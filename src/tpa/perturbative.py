"""Closed-form weak-drive series of the dc upper-level population.

Orders count powers of phi/delta_big. The dc upper population starts at
second order, through |D+|^2, |D-|^2 and |D0|^2 of the one-photon
denominators

    D+ = gamma - i(delta - Omega),  D- = gamma - i(delta + Omega),
    D0 = gamma - i delta,

with Omega = 2kv the harmonic splitting of the moving atom; the third order
adds the light shift, odd in delta and zero at mu = 1. Everything here is
in normalized units (gamma = 1, detunings in gamma, fields phi_tilde).

`upper_dc_series` evaluates the sum vectorized over Omega, for the velocity
averages in `averaging` and for the per-velocity cross-checks against the
solver. The harmonic coefficients of the lower orders, from which these dc
terms follow, are written out in the tests as reference formulas.
"""

from __future__ import annotations

from .core import NormalizedParams, ParameterError, _lazy_module

np = _lazy_module("numpy")  # at the first array of Omega values


def _order3_dc(params: NormalizedParams, om):
    """Third-order dc upper population at Omega = om (float or array)."""
    p1, p2, mu = params.phi1, params.phi2, params.mu
    delta = params.delta_tilde
    up, um = delta - om, delta + om
    ap = 1.0 + up * up
    am = 1.0 + um * um
    a0 = 1.0 + delta ** 2
    kv = 0.5 * om
    s = p1 ** 2 + p2 ** 2
    return (32 * mu ** 2 * (mu ** 2 - 1) / params.delta_big_tilde ** 3) * (
        (delta - 2 * kv) / (ap * ap) * s * p1 ** 4
        + ((delta - kv) / ap * p1 ** 2 + (delta + kv) / am * p2 ** 2
           + delta / a0 * s) * p1 ** 2 * p2 ** 2 / a0
        + (delta + 2 * kv) / (am * am) * s * p2 ** 4)


def upper_dc_series(params: NormalizedParams, omega, order: int = 3):
    """dc upper population summed through the given order, vectorized in Omega.

    order=2 keeps the leading two-photon term; order=3 adds the light-shift
    correction (odd in delta, zero at mu=1). Scalar Omega in, float out. A
    float Omega is evaluated in float arithmetic and gives a float
    bit-identical to its entry in an array, because the squares of Omega
    terms are products (a float's ** 2 calls C pow(), which can differ from
    numpy's square in the last bit).
    """
    if order not in (2, 3):
        raise ParameterError(f"order must be 2 or 3, got {order}")
    om = omega if isinstance(omega, float) else np.asarray(omega, dtype=float)
    p1, p2, mu = params.phi1, params.phi2, params.mu
    delta = params.delta_tilde
    dbig = params.delta_big_tilde
    up, um = delta - om, delta + om
    ap = 1.0 + up * up
    am = 1.0 + um * um
    a0 = 1.0 + delta ** 2
    out = (8 * mu ** 2 / dbig ** 2) * (p1 ** 4 / ap + p2 ** 4 / am
                                       + 4 * p1 ** 2 * p2 ** 2 / a0)
    if order >= 3:
        out = out + _order3_dc(params, om)
    return float(out) if isinstance(om, float) or om.ndim == 0 else out
