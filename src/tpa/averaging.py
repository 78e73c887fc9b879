"""Velocity averaging: closed Lorentzian moments and numerical quadratures.

A moving atom sees the standing-wave harmonics split by Omega = 2kv, so
observables are velocity averages over the Doppler profile. Three profiles
are supported, parameterized by the half width at half maximum gamma_v:

  * homogeneous: delta function at v = 0; the average is just f(0);
  * lorentzian: gamma_v/pi / (gamma_v^2 + Omega^2), for which the moments
    of the one-photon denominators close analytically (lorentz_int1/int2)
    and the averaged series is the analytics profile n2 + n3;
  * gaussian: HWHM gamma_v; series averages close through the Faddeeva
    function, generic integrands use a nested trapezoid rule.

The profile picks the rule. Gaussian averages always use the trapezoid rule
on |Omega| <= 8 sigma (sigma = gamma_v / sqrt(2 ln 2)): each level halves
the step and evaluates f only at the new midpoints, so every node is reused,
and the error falls geometrically in (pole distance)/h for integrands with
poles off the real axis. The non-closed Lorentzian averages use a tangent
substitution Omega = gamma_v * tan(theta), which maps the weighted line
integral to a plain integral of f(gamma_v tan theta)/pi over theta;
Gauss-Legendre nodes with doubling then converge geometrically for smooth f.

Averaging the brute-force steady state needs care: the power-law Lorentzian
wings reach velocity classes where high harmonics are stepwise resonant
(Omega near delta_big +- delta), a saturation effect outside the weak-drive
expansion whose weighted share scales like the signal itself. The windowed
difference scheme in `oracle_average` therefore integrates only the
deviation from the closed-form series inside |Omega| <= h*gamma_v and keeps
the series value as the tail model, which restores the expected
1/delta_big^2 convergence of oracle minus theory.

`oracle_average` evaluates the new nodes of a quadrature level at once and
sweeps them inward, in descending |Omega|: slow atoms need the deepest
truncations, so each velocity class starts its truncation ladder at two
rungs below the n_used of the class before it (from n_max = 3 at a level's
first class), and skips rungs that are known to be unsettled. A ladder that
starts low enough settles where a fresh one would, on the identical
solution; otherwise it settles deeper. An outward sweep would carry the
deep rungs of the slow classes out to fast ones that settle at shallow
truncations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracle as oracle_mod
from .analytics import n2, n3
from .core import (NormalizedParams, ParameterError, _check_profile,
                   _lazy_module)
from .perturbative import upper_dc_series

special = _lazy_module("scipy.special")  # wofz, at the first Gaussian average

__all__ = ["QuadratureError", "averaged_population", "oracle_average"]

_MAX_NODES = 2048
# The Gaussian weight beyond 8 standard deviations carries
# erfc(8 / sqrt 2) ~ 1.2e-15 of the mass, below every tolerance in use.
_GAUSS_WINDOW = 8.0
_EPS = float(np.finfo(float).eps)


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Quadrature policy: starting node count, window, tolerance.

    The velocity profile picks the rule. nodes is the first level's
    Gauss-Legendre node count for a Lorentzian profile and its interval
    count (nodes + 1 points on |Omega| <= 8 sigma) for a Gaussian one; each
    later level doubles it, up to 2,048, so nodes <= 1,024 leaves room for
    the two levels a convergence test needs. domain_halfwidth, in units of
    gamma_v, is read only by the Lorentzian difference scheme of
    `oracle_average`, whose window it sets; a Lorentzian `velocity_average`
    integrates the whole line.
    """

    nodes: int = 32
    domain_halfwidth: float = 10.0
    tol: float = 1e-10

    def __post_init__(self):
        if not 8 <= self.nodes <= _MAX_NODES // 2:
            raise ParameterError(f"nodes must be in [8, {_MAX_NODES // 2}], "
                                 f"got {self.nodes}")
        if not 0.0 < self.domain_halfwidth < math.inf:
            raise ParameterError("domain_halfwidth must be positive and "
                                 f"finite, got {self.domain_halfwidth}")
        if not self.tol > 0.0:
            raise ParameterError(f"tol must be positive, got {self.tol}")


DEFAULT_ORACLE_QUAD = QuadratureSpec(tol=1e-6)


def lorentz_int1(gamma_v: float, delta: float) -> float:
    """Lorentzian average of 1 / (1 + (delta - Omega)^2)."""
    if gamma_v < 0.0:
        raise ParameterError("gamma_v must be nonnegative")
    w = (1.0 + gamma_v) ** 2 + delta ** 2
    return (1.0 + gamma_v) / w


def lorentz_int2(n: int, gamma_v: float, delta: float) -> float:
    """Lorentzian average of Omega / (1 + (delta - Omega)^2)^n, n in {1, 2}."""
    if gamma_v < 0.0:
        raise ParameterError("gamma_v must be nonnegative")
    w = (1.0 + gamma_v) ** 2 + delta ** 2
    if n == 1:
        return gamma_v * delta / w
    if n == 2:
        return (gamma_v * delta * ((1.0 + gamma_v) * (3.0 + gamma_v)
                                   + delta ** 2) / (2 * w ** 2))
    raise ParameterError(f"n must be 1 or 2, got {n}")


def _converge(sums, tol, abs_floor):
    """Run a node-doubling ladder until consecutive estimates agree.

    `sums` yields (estimate, l1_mass) pairs. Convergence demands
    |I_k - I_{k-1}| <= max(tol * max(|I_k|, abs_floor), 100 * eps * l1_mass);
    the mass term stops the ladder from chasing roundoff when the integral
    is tiny compared to the summed magnitudes (odd integrands, near
    cancellations).
    """
    prev = None
    last_gap = None
    est = mass = 0.0
    for est, mass in sums:
        if prev is not None:
            last_gap = abs(est - prev)
            if last_gap <= max(tol * max(abs(est), abs_floor),
                               100.0 * _EPS * mass):
                return est
        prev = est
    raise QuadratureError(
        f"quadrature not converged at {_MAX_NODES} nodes; "
        f"last estimate {est:.6e}"
        + (f", last change {last_gap:.3e}" if last_gap is not None else ""))


def _trapezoid_sums(f, gamma_v, start):
    # `start` intervals on |Omega| <= 8 sigma, ends at half weight; each
    # later level halves h and adds the new midpoints to the running sums.
    # Poles about 1 off the real axis make the error fall geometrically in
    # 1/h (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)).
    sigma = gamma_v / math.sqrt(2.0 * math.log(2.0))
    half = _GAUSS_WINDOW * sigma
    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi))

    def weighted(omegas):
        return (norm * np.exp(-0.5 * (omegas / sigma) ** 2)
                * np.asarray(f(omegas), dtype=float))

    m = start
    h = 2.0 * half / m
    terms = weighted(np.linspace(-half, half, m + 1))
    terms[[0, -1]] *= 0.5
    total, mass = float(np.sum(terms)), float(np.sum(np.abs(terms)))
    yield h * total, h * mass
    while 2 * m <= _MAX_NODES:
        terms = weighted(np.linspace(-half + 0.5 * h, half - 0.5 * h, m))
        total += float(np.sum(terms))
        mass += float(np.sum(np.abs(terms)))
        m *= 2
        h *= 0.5
        yield h * total, h * mass


def _tan_map_sums(f, gamma_v, theta_max, start):
    # Gauss-Legendre in theta, doubling the node count from `start`
    m = start
    while m <= _MAX_NODES:
        t, w = np.polynomial.legendre.leggauss(m)
        theta = theta_max * t
        vals = np.asarray(f(gamma_v * np.tan(theta)), dtype=float)
        terms = (theta_max / math.pi) * w * vals
        yield float(np.sum(terms)), float(np.sum(np.abs(terms)))
        m *= 2


def velocity_average(f, kind: str, gamma_v: float,
                     quad: QuadratureSpec | None = None) -> float:
    """Average f(Omega) over the velocity profile `kind` of HWHM gamma_v.

    f takes an array of Omega values and returns their values. Homogeneous
    media need no quadrature and return f(0). Gaussian profiles use the
    nested trapezoid rule on |Omega| <= 8 sigma. Lorentzian profiles use the
    tan-mapped Gauss-Legendre rule over the whole compactified line. kind
    and gamma_v follow the rules of NormalizedParams: gamma_v is 0 if and
    only if the kind is 'homogeneous'.
    """
    _check_profile(kind, gamma_v)
    if kind == "homogeneous":
        return float(f(0.0))
    if quad is None:
        quad = QuadratureSpec()
    if kind == "gaussian":
        sums = _trapezoid_sums(f, gamma_v, quad.nodes)
        return _converge(sums, quad.tol, 0.0)
    sums = _tan_map_sums(f, gamma_v, 0.5 * math.pi, quad.nodes)
    return _converge(sums, quad.tol, 0.0)


# Beyond |zeta| = 6, w'(zeta) is summed from its asymptotic series, cut at
# its smallest term there (k = 36, 2e-14 relative); below it the identity
# w' = -2 zeta w + 2i/sqrt(pi) loses at most |zeta|^2 < 36 times the
# accuracy of w.
_ASYMPTOTIC_ZETA = 6.0
_ASYMPTOTIC_TERMS = 36


def _faddeeva_derivative(zeta: complex, w: complex) -> complex:
    """w'(zeta) for Im zeta > 0, given w = w(zeta).

    The identity w' = -2 zeta w + 2i/sqrt(pi) cancels to a relative size
    ~1/|zeta|^2, so at large |zeta| the asymptotic series
    w'(zeta) = -(2i/sqrt(pi)) sum_{k>=1} (2k-1)!! / (2 zeta^2)^k
    is summed instead (Horner form).
    """
    if abs(zeta) < _ASYMPTOTIC_ZETA:
        return -2.0 * zeta * w + 2j / math.sqrt(math.pi)
    x = 0.5 / (zeta * zeta)
    total = 0.0
    for k in range(_ASYMPTOTIC_TERMS, 0, -1):
        total = (2 * k - 1) * x * (1.0 + total)
    return -2j / math.sqrt(math.pi) * total


def _faddeeva_moments(delta: float, gamma_v: float) -> tuple[complex, complex]:
    """Gaussian averages of the one-photon resolvents via the Faddeeva function.

    With u = delta - Omega and Omega drawn from the Gaussian of HWHM gamma_v
    (standard deviation sigma = gamma_v / sqrt(2 ln 2)), returns

      first  = < 1 / (1 - i u) >   (real part: Lorentzian kernel average)
      second = < 1 / (1 - i u)^2 > = -i d(first)/d(delta)

    computed from w(zeta) and w'(zeta) with zeta = (delta + i) / (sigma
    sqrt(2)). Both stay within 1e-12 of their exact values for any width:
    down to the homogeneous limit gamma_v -> 0+, where |zeta| grows like
    1/gamma_v, and up to wide profiles, where a quadrature's node count
    grows like gamma_v because the integrand stays unit width.
    """
    sigma = gamma_v / math.sqrt(2.0 * math.log(2.0))
    root2 = math.sqrt(2.0)
    zeta = (delta + 1j) / (sigma * root2)
    # a Python complex from here on: numpy scalar arithmetic costs more
    # and rounds the same
    w = complex(special.wofz(zeta))
    first = math.sqrt(0.5 * math.pi) / sigma * w
    second = (-1j * math.sqrt(0.5 * math.pi) / (sigma ** 2 * root2)
              * _faddeeva_derivative(zeta, w))
    return first, second


def _gaussian_series_dc(params: NormalizedParams, d: float,
                        order: int) -> float:
    """Closed Gaussian average of the dc perturbative population at delta d."""
    first, second = _faddeeva_moments(d, params.gamma_v_tilde)
    p1sq = params.phi1 ** 2
    p2sq = params.phi2 ** 2
    mu2 = params.mu ** 2
    a0 = 1.0 + d * d
    dbig = params.delta_big_tilde
    total = (8.0 * mu2 / dbig ** 2
             * ((p1sq ** 2 + p2sq ** 2) * first.real + 4.0 * p1sq * p2sq / a0))
    if order >= 3:
        # Averages of the shifted odd kernels: the Gaussian is even in Omega,
        # so < u / (1 + u^2)^2 > = Im(second) / 2 for u = delta -+ Omega alike,
        # and < (delta -+ Omega/2) / (1 + u^2) > = (Im(first) + d Re(first)) / 2.
        s = p1sq + p2sq
        quartic = s * (p1sq ** 2 + p2sq ** 2) * 0.5 * second.imag
        cross = (p1sq * p2sq * s / a0
                 * (0.5 * (first.imag + d * first.real) + d / a0))
        total += 32.0 * mu2 * (mu2 - 1.0) / dbig ** 3 * (quartic + cross)
    return total


def averaged_population(params: NormalizedParams, order: int = 2) -> float:
    """Velocity-averaged dc upper population of the perturbative series.

    Lorentzian and homogeneous averages come out in closed form, as do
    Gaussian ones through the Faddeeva function.
    """
    return averaged_series(params, params.delta_tilde, order)


def averaged_series(params: NormalizedParams, delta_tilde: float,
                    order: int = 2) -> float:
    """`averaged_population` at two-photon detuning delta_tilde.

    Reads every parameter but delta_tilde from params, as the analytics
    profiles do, so one parameter set serves a whole line; the value is
    bit-identical to averaged_population of
    dataclasses.replace(params, delta_tilde=delta_tilde).
    """
    if order not in (2, 3):
        raise ParameterError(f"order must be 2 or 3, got {order}")
    d = float(delta_tilde)
    if params.kind == "gaussian":
        return _gaussian_series_dc(params, d, order)
    total = n2(params, d)
    if order == 3:
        total += n3(params, d)
    return total


def oracle_average(params: NormalizedParams,
                   quad: QuadratureSpec | None = None, *,
                   order: int = 3,
                   n_cap: int = oracle_mod.DEFAULT_N_CAP,
                   refine_tol: float = 1e-14,
                   return_info: bool = False):
    """Velocity-averaged dc upper population of the brute-force steady state.

    Homogeneous media solve a single velocity class. Gaussian profiles
    average the solver output directly under the nested trapezoid rule of
    `velocity_average`, solving only the new nodes of each level. Lorentzian
    profiles use the windowed difference scheme described in the module
    docstring: the closed-form series through `order` is the reference, and
    only the solver's deviation from it is integrated over
    |Omega| <= domain_halfwidth * gamma_v (default 10 widths). quad
    defaults to DEFAULT_ORACLE_QUAD for both profiles. Each quadrature
    level is solved in one inward sweep, as the module docstring describes.
    """
    info = {"n_used": 0, "reference": 0.0, "correction": 0.0}
    if quad is None:
        quad = DEFAULT_ORACLE_QUAD
    lorentzian = params.kind == "lorentzian"

    def level(points):
        # one quadrature level, swept inward: each ladder starts two rungs
        # below where its outer neighbour settled; the hint is local to
        # this call, so every level starts its ladders afresh from 3
        omegas = np.asarray(points, dtype=float).reshape(-1)
        values = np.empty_like(omegas)
        start = 3
        for k in np.argsort(-np.abs(omegas), kind="stable"):
            om = float(omegas[k])
            rho, n_used = oracle_mod.refine(params, om, refine_tol, n_cap,
                                            start=start)
            info["n_used"] = max(info["n_used"], n_used)
            start = max(3, n_used - 2)
            values[k] = oracle_mod.dc_upper_population(rho)
            if lorentzian:
                values[k] -= float(upper_dc_series(params, om, order))
        return values.reshape(np.shape(points))

    if not lorentzian:
        value = velocity_average(level, params.kind, params.gamma_v_tilde,
                                 quad)
        info["correction"] = value
        return (value, info) if return_info else value

    reference = averaged_series(params, params.delta_tilde, order)
    sums = _tan_map_sums(level, params.gamma_v_tilde,
                         math.atan(quad.domain_halfwidth), quad.nodes)
    correction = _converge(sums, quad.tol, abs_floor=1e-3 * abs(reference))
    info["reference"] = reference
    info["correction"] = correction
    value = reference + correction
    return (value, info) if return_info else value
