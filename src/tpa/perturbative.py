"""Closed-form weak-drive expansion of the ladder steady state.

Orders count powers of phi/delta_big: odd orders carry the one-photon
coherences (rho01, rho20), even orders the populations and the two-photon
coherence rho21. Each harmonic coefficient is an explicit rational function
of the one-photon denominators

    D+ = gamma - i(delta - Omega),  D- = gamma - i(delta + Omega),
    D0 = gamma - i delta,

with Omega = 2kv the harmonic splitting of the moving atom. Everything here
is in normalized units (gamma = 1, detunings in gamma, fields phi_tilde).

The dc upper-level population through third order is the quantity averaged
over velocity elsewhere; `upper_dc_series` evaluates it vectorized over
Omega for that purpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import NormalizedParams, ParameterError, PerVelocityContext


@dataclass(frozen=True)
class PerturbativeComponents:
    """Harmonic coefficients of one perturbative order, keyed by (i, j, n)."""

    order: int
    terms: dict = field(default_factory=dict)

    def term(self, i: int, j: int, n: int) -> complex:
        """Coefficient c(i,j,n); hermitian partner is filled in, else 0."""
        if (i, j, n) in self.terms:
            return complex(self.terms[(i, j, n)])
        if (j, i, -n) in self.terms:
            return complex(np.conj(self.terms[(j, i, -n)]))
        return 0.0 + 0.0j


def order1_coherences(ctx: PerVelocityContext,
                      params: NormalizedParams) -> PerturbativeComponents:
    """One-photon coherence rho01 at first order: one harmonic per beam."""
    dbig = params.delta_big_tilde
    return PerturbativeComponents(order=1, terms={
        (0, 1, +1): -2.0 * params.phi1 / dbig,
        (0, 1, -1): +2.0 * params.phi2 / dbig,
    })


def order1_twophoton(ctx: PerVelocityContext,
                     params: NormalizedParams) -> PerturbativeComponents:
    """Two-photon coherence rho21 at first order in x = phi^2/delta_big."""
    p1, p2, mu = params.phi1, params.phi2, params.mu
    f = -2j * mu / params.delta_big_tilde
    return PerturbativeComponents(order=1, terms={
        (2, 1, +2): f * p1 ** 2 / ctx.d_plus,
        (2, 1, 0): -2.0 * f * p1 * p2 / ctx.d_zero,
        (2, 1, -2): f * p2 ** 2 / ctx.d_minus,
    })


def order2_components(ctx: PerVelocityContext,
                      params: NormalizedParams) -> PerturbativeComponents:
    """Second-order populations and coherences.

    Covers rho20 and rho01 (harmonics +-1, +-3), the populations rho22 and
    rho00 (dc and +-2), and the two-photon coherence rho21 (dc and +-2).
    The +-4 population harmonics are of the same order but do not feed the
    averaged dc signal and are not reconstructed.
    """
    p1, p2, mu = params.phi1, params.phi2, params.mu
    dbig = params.delta_big_tilde
    dp, dm, d0 = ctx.d_plus, ctx.d_minus, ctx.d_zero
    kv = 0.5 * ctx.omega
    m2 = mu ** 2 - 1.0
    terms = {}

    f = 4j * mu / dbig ** 2
    terms[(2, 0, +3)] = f * (-p1 ** 2 * p2 / dp)
    terms[(2, 0, +1)] = f * (p1 ** 3 / dp + 2 * p1 * p2 ** 2 / d0)
    terms[(2, 0, -1)] = -f * (p2 ** 3 / dm + 2 * p1 ** 2 * p2 / d0)
    terms[(2, 0, -3)] = f * (p1 * p2 ** 2 / dm)

    g = 4j * mu ** 2 / dbig ** 2
    terms[(0, 1, +3)] = g * (-p1 ** 2 * p2 / dp)
    terms[(0, 1, +1)] = g * ((1.0 + dp) * p1 / (2 * mu ** 2)
                             + p1 ** 3 / dp + 2 * p1 * p2 ** 2 / d0)
    terms[(0, 1, -1)] = -g * ((1.0 + dm) * p2 / (2 * mu ** 2)
                              + p2 ** 3 / dm + 2 * p1 ** 2 * p2 / d0)
    terms[(0, 1, -3)] = g * (p1 * p2 ** 2 / dm)

    dc22 = 2.0 * ((4 * mu ** 2 / dbig ** 2)
                  * (p1 ** 4 / dp + p2 ** 4 / dm
                     + 4 * p1 ** 2 * p2 ** 2 / d0)).real
    g22 = (-(16 * mu ** 2 * p1 * p2 / dbig ** 2)
           * ((1.0 + 1j * kv) / (1.0 - 2j * kv))
           * (p1 ** 2 / (np.conj(d0) * dp) + p2 ** 2 / (d0 * np.conj(dm))))
    terms[(2, 2, 0)] = dc22
    terms[(2, 2, +2)] = g22
    terms[(2, 2, -2)] = np.conj(g22)

    h = 8.0 / dbig ** 2
    g00 = -h * ((1.0 + 1j * kv) / (1.0 + 2j * kv)) * p1 * p2
    terms[(0, 0, 0)] = h * (p1 ** 2 + p2 ** 2)
    terms[(0, 0, +2)] = g00
    terms[(0, 0, -2)] = np.conj(g00)

    terms[(2, 1, 0)] = (4 * mu * p1 * p2 / (dbig ** 2 * d0)) * (
        1.0 + d0 + m2 * (2 * (p1 ** 2 + p2 ** 2) / d0
                         + p1 ** 2 / dp + p2 ** 2 / dm))
    terms[(2, 1, +2)] = -(2 * mu * p1 ** 2 / (dbig ** 2 * d0)) * (
        1.0 + dp + 2 * m2 * (2 * p2 ** 2 / d0 + (p1 ** 2 + p2 ** 2) / dm))
    terms[(2, 1, -2)] = -(2 * mu * p2 ** 2 / (dbig ** 2 * d0)) * (
        1.0 + dm + 2 * m2 * (2 * p1 ** 2 / d0 + (p1 ** 2 + p2 ** 2) / dp))

    return PerturbativeComponents(order=2, terms=terms)


def _order3_dc(params: NormalizedParams, om):
    """Third-order dc upper population at Omega = om (scalar or array)."""
    p1, p2, mu = params.phi1, params.phi2, params.mu
    delta = params.delta_tilde
    ap = 1.0 + (delta - om) ** 2
    am = 1.0 + (delta + om) ** 2
    a0 = 1.0 + delta ** 2
    kv = 0.5 * om
    s = p1 ** 2 + p2 ** 2
    return (32 * mu ** 2 * (mu ** 2 - 1) / params.delta_big_tilde ** 3) * (
        (delta - 2 * kv) / ap ** 2 * s * p1 ** 4
        + ((delta - kv) / ap * p1 ** 2 + (delta + kv) / am * p2 ** 2
           + delta / a0 * s) * p1 ** 2 * p2 ** 2 / a0
        + (delta + 2 * kv) / am ** 2 * s * p2 ** 4)


def order3_upper_dc(ctx: PerVelocityContext,
                    params: NormalizedParams) -> float:
    """Third-order dc upper population; odd in delta, vanishes at mu = 1."""
    return float(_order3_dc(params, ctx.omega))


def order3_coherences(ctx: PerVelocityContext,
                      params: NormalizedParams) -> PerturbativeComponents:
    """Third-order one-photon coherence rho20, harmonics +-1."""
    p1, p2, mu = params.phi1, params.phi2, params.mu
    dbig = params.delta_big_tilde
    dp, dm, d0 = ctx.d_plus, ctx.d_minus, ctx.d_zero
    cdp, cdm, cd0 = np.conj(dp), np.conj(dm), np.conj(d0)
    kv = 0.5 * ctx.omega
    m2 = mu ** 2 - 1.0
    plus = (8 * mu * p1 / dbig ** 3) * (
        (m2 / dp ** 2 - 4 * mu ** 2 / (dp * cdp)) * p1 ** 4
        + 2 * p1 ** 2
        + (m2 / d0 * (2 / d0 + 3 / dp + d0 / dp ** 2)
           - (4 * mu ** 2 / cd0) * (4 / d0
                                    - (1.0 + 1j * kv) / (dp * (1.0 - 2j * kv))))
        * p1 ** 2 * p2 ** 2
        + (4 - dp / d0 + 1.0 / (1.0 + 2j * kv)) * p2 ** 2
        + (m2 / d0 * (1 / dm + 2 / d0)
           - (4 * mu ** 2 / cdm) * (1 / dm
                                    + (1.0 + 1j * kv) / (d0 * (1.0 - 2j * kv))))
        * p2 ** 4)
    minus = -(8 * mu * p2 / dbig ** 3) * (
        (m2 / dm ** 2 - 4 * mu ** 2 / (dm * cdm)) * p2 ** 4
        + 2 * p2 ** 2
        + (m2 / d0 * (2 / d0 + 3 / dm + d0 / dm ** 2)
           - (4 * mu ** 2 / cd0) * (4 / d0
                                    + (1.0 - 1j * kv) / (dm * (1.0 + 2j * kv))))
        * p2 ** 2 * p1 ** 2
        + (4 - dm / d0 + 1.0 / (1.0 - 2j * kv)) * p1 ** 2
        + (m2 / d0 * (1 / dp + 2 / d0)
           - (4 * mu ** 2 / cdp) * (1 / dp
                                    - (1.0 - 1j * kv) / (d0 * (1.0 + 2j * kv))))
        * p1 ** 4)
    return PerturbativeComponents(order=3, terms={(2, 0, +1): plus,
                                                  (2, 0, -1): minus})


def upper_dc_series(params: NormalizedParams, omega, order: int = 3):
    """dc upper population summed through the given order, vectorized in Omega.

    order=2 keeps the leading two-photon term; order=3 adds the light-shift
    correction (odd in delta, zero at mu=1). Scalar Omega in, float out.
    """
    if order not in (2, 3):
        raise ParameterError(f"order must be 2 or 3, got {order}")
    om = np.asarray(omega, dtype=float)
    scalar = om.ndim == 0
    om = np.atleast_1d(om)
    p1, p2, mu = params.phi1, params.phi2, params.mu
    delta = params.delta_tilde
    dbig = params.delta_big_tilde
    ap = 1.0 + (delta - om) ** 2
    am = 1.0 + (delta + om) ** 2
    a0 = 1.0 + delta ** 2
    out = (8 * mu ** 2 / dbig ** 2) * (p1 ** 4 / ap + p2 ** 4 / am
                                       + 4 * p1 ** 2 * p2 ** 2 / a0)
    if order >= 3:
        out = out + _order3_dc(params, om)
    return float(out[0]) if scalar else out
