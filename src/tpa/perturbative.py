"""Closed-form weak-drive series of the dc upper-level population.

Orders count powers of the pump strength x = phi_tilde^2 / delta_big_tilde.
The dc upper population starts at second order; the third order adds the
light shift, odd in delta and zero at mu = 1. Everything here is in
normalized units (gamma = 1, detunings in gamma).

In a velocity class of Doppler splitting Omega = 2kv, the forward beam
meets the one-photon resonance at u+ = delta - Omega and the backward beam
at u- = delta + Omega, and the series depends on them only through the
resolvents M_k(u) = 1 / (1 - i u)^k, k = 1, 2. A velocity average replaces
each M_k by its moment over the profile; the profiles are even, so both
beams share that moment. So `_series` is the one formula of the series,
per velocity class and for every average:

  * `upper_dc_series` evaluates it at the exact resolvents, vectorized in
    Omega, for the Lorentzian difference scheme of `averaging` and the
    per-velocity cross-checks against the solver;
  * the averages read it at the profile's moments: residues for a
    Lorentzian or homogeneous profile, the Faddeeva function for a
    Gaussian one (`_faddeeva_moments`);
  * `_peak_shift` is the first-order displacement of its peak,
    -n3'(0)/n2''(0), read off the same moments at line center.

The harmonic coefficients of the lower orders, from which these dc terms
follow, are written out in the tests as reference formulas.
"""

from __future__ import annotations

import cmath
import math

from .core import NormalizedParams, ParameterError, _lazy_module

np = _lazy_module("numpy")  # at the first array of Omega values
special = _lazy_module("scipy.special")  # wofz, at the first Gaussian average

# Beyond |zeta| = 6, M2 and M3 are summed from the asymptotic series of
# w'(zeta) and w''(zeta), cut at their smallest term there (k = 36, 2e-14
# relative); below it the identities w' = -2 zeta w + 2i/sqrt(pi) and
# w'' = -2 w - 2 zeta w' each lose at most |zeta|^2 < 36 times the accuracy
# they start from.
_ASYMPTOTIC_ZETA = 6.0
_ASYMPTOTIC_TERMS = 36


def _asymptotic_sum(q: complex, weighted: bool) -> complex:
    """S2(q) = sum_{k>=1} (2k-1)!! q^(k-1), or with `weighted` S3(q) =
    sum_{k>=1} k (2k-1)!! q^(k-1), through k = _ASYMPTOTIC_TERMS (Horner
    form)."""
    total = 0.0
    for k in range(_ASYMPTOTIC_TERMS, 1, -1):
        total = (2 * k - 1) * q * ((k if weighted else 1.0) + total)
    return 1.0 + total


def _faddeeva_moments(delta: float, gamma_v: float, count: int = 2) -> tuple:
    """Gaussian averages of the one-photon resolvents via the Faddeeva function.

    With u = delta - Omega and Omega drawn from the Gaussian of HWHM gamma_v
    (standard deviation sigma = gamma_v / sqrt(2 ln 2)), returns the first
    `count` (2 or 3) moments M_k = < 1 / (1 - i u)^k >:

      M1 = < 1 / (1 - i u) >   (real part: Lorentzian kernel average)
      M2 = -i dM1/d(delta),   M3 = -(i/2) dM2/d(delta)

    computed from w(zeta) and w'(zeta) = -2 zeta w + 2i/sqrt(pi), with
    zeta = (delta + i) s and s = 1 / (sigma sqrt 2) = sqrt(ln 2) / gamma_v:

      M1 = sqrt(pi) s w,   M2 = -i sqrt(pi) s^2 w',
      M3 = -sqrt(pi) s^3 w''(zeta) / 2 = sqrt(pi) s^3 (w + zeta w'),

    so no power of sigma overflows. Both w' and w + zeta w' cancel to a
    relative size ~1/|zeta|^2, so at |zeta| >= 6 their asymptotic series
    are summed instead, scaled by the homogeneous moments: in q = sigma^2 /
    (delta + i)^2 = (1/zeta)^2 / 2,

      M2 = -S2(q) / (delta + i)^2,   M3 = -i S3(q) / (delta + i)^3

    (S2, S3 as in `_asymptotic_sum`), which hold no power of s or zeta, so a
    q that underflows gives the homogeneous moments. M1 and M2 stay within
    1e-12 of their exact values for any width: down to the homogeneous
    limit, where |zeta| grows like 1/gamma_v (once zeta or s overflows, or
    w underflows to 0, M1 is the pole 1/(1 - i delta) and q is 0, so the
    asymptotic M2 and M3 end there too), and up to wide profiles, where a
    quadrature's node count grows like gamma_v because the integrand stays
    unit width. So does M3 at delta = 0, where `_peak_shift` reads it;
    elsewhere, below |zeta| = 6, it carries the ~5e-15 relative error of w
    times up to |zeta|^4, within 1e-11.
    """
    s = math.sqrt(math.log(2.0)) / gamma_v
    zeta = (delta + 1j) * s
    # a Python complex from here on: numpy scalar arithmetic costs more
    # and rounds the same
    w = complex(special.wofz(zeta))
    first = math.sqrt(math.pi) * s * w
    homogeneous = not (cmath.isfinite(zeta + first) and first != 0)
    if homogeneous:
        first = 1j / (delta + 1j)
    if homogeneous or abs(zeta) >= _ASYMPTOTIC_ZETA:
        pole = delta + 1j
        square = pole * pole
        # (1/zeta)^2, never zeta * zeta, which overflows to nan
        q = 0.0 if homogeneous else 0.5 * (1.0 / zeta) ** 2
        second = -_asymptotic_sum(q, False) / square
        if count == 2:
            return first, second
        return first, second, -1j * _asymptotic_sum(q, True) / (square * pole)
    w1 = -2.0 * zeta * w + 2j / math.sqrt(math.pi)
    second = -1j * math.sqrt(math.pi) * (s * s) * w1
    if count == 2:
        return first, second
    return first, second, math.sqrt(math.pi) * (s * s * s) * (w + zeta * w1)


def _series(params: NormalizedParams, d, low: int, high: int, omega=None):
    """dc series at two-photon detuning d: the order-2 term (low = high =
    2), the order-3 term (3, 3) or their sum (2, 3).

    With omega, the velocity class at Omega = omega (float or array);
    without, the average over the profile of params. Each beam enters
    through (Re M1, Im M1, Im M2) of its resolvents: exact at u = d -+ omega
    for a velocity class; for an average, residues at the shifted pole
    1/(1 + gamma_v - i d) of a Lorentzian or homogeneous profile, in real
    arithmetic, or the Faddeeva moments of a Gaussian one (Armstrong,
    JQSRT 7, 61 (1967)). d is a float; squares of d and omega are products,
    so a float omega rounds as its entry in an array does.
    """
    if omega is not None:
        up, um = d - omega, d + omega
        ap, am = 1.0 + up * up, 1.0 + um * um
        re_p, im_p, im2_p = 1.0 / ap, up / ap, 2.0 * up / (ap * ap)
        re_m, im_m, im2_m = 1.0 / am, um / am, 2.0 * um / (am * am)
    else:
        if params.kind == "gaussian":
            first, second = _faddeeva_moments(d, params.gamma_v_tilde)
            re_p, im_p, im2_p = first.real, first.imag, second.imag
        else:
            # scaled by g1, so that no square of it overflows
            g1 = 1.0 + params.gamma_v_tilde
            t = d / g1
            w = g1 + d * t
            re_p, im_p, im2_p = 1.0 / w, t / w, 2.0 * t / (w * w)
        re_m, im_m, im2_m = re_p, im_p, im2_p
    a2 = params.a_ratio ** 2
    a4 = a2 * a2
    el = 1.0 + d * d
    mu2 = params.mu ** 2
    if low == 2:
        order2 = 8 * mu2 * params.x ** 2 * (re_p + a4 * re_m + 4.0 * a2 / el)
        if high == 2:
            return order2
    # Im M2(u) = 2u / (1 + u^2)^2, and (d -+ Omega/2) / (1 + u^2) is
    # (Im M1 + d Re M1) / 2 at u = d -+ Omega
    order3 = (16 * mu2 * (mu2 - 1.0) * params.x ** 3
              * ((1.0 + a2) * (im2_p + a4 * im2_m)
                 + a2 * ((im_p + d * re_p) + a2 * (im_m + d * re_m)
                         + 2.0 * (1.0 + a2) * d / el) / el))
    return order3 if low == 3 else order2 + order3


def _peak_shift(params: NormalizedParams, a_ratio: float) -> float:
    """First-order displacement of the peak of the averaged `_series`
    through order 3, -n3'(0)/n2''(0), at beam ratio A = a_ratio.

    With dM1/dd = i M2, dM2/dd = 2i M3 and an even profile, n2''(0) is
    -16 mu^2 x^2 ((1 + A^4) R3 + 4 A^2) and n3'(0) is 16 mu^2 (mu^2 - 1)
    (1 + A^2) x^3 (2 (1 + A^4) R3 + A^2 (R1 + R2 + 2)), in R_k = Re M_k(0):
    (1 + gamma_v)^-k on a Lorentzian or homogeneous profile, the Faddeeva
    moments on a Gaussian one. At A = 0 their ratio is exactly 1, which is
    taken as such, so that an R3 that underflows to 0 gives no 0/0.
    """
    if params.kind == "gaussian":
        r1, r2, r3 = (m.real for m in _faddeeva_moments(
            0.0, params.gamma_v_tilde, 3))
    else:
        # powers of 1/g1, which underflow where powers of g1 would overflow
        r1 = 1.0 / (1.0 + params.gamma_v_tilde)
        r2, r3 = r1 * r1, r1 * r1 * r1
    a2 = a_ratio ** 2
    a4 = 1.0 + a2 ** 2
    ratio = 1.0 if a2 == 0.0 else ((2.0 * a4 * r3 + a2 * (r1 + r2 + 2.0))
                                   / (2.0 * a4 * r3 + 8.0 * a2))
    return 2.0 * (1.0 + a2) * (params.mu ** 2 - 1.0) * params.x * ratio


def upper_dc_series(params: NormalizedParams, omega, order: int = 3):
    """dc upper population of the velocity class at Omega, summed through
    the given order, vectorized in Omega.

    order=2 keeps the leading two-photon term; order=3 adds the light-shift
    correction (odd in delta, zero at mu=1). Scalar Omega in, float out. A
    float Omega is evaluated in float arithmetic and gives a float
    bit-identical to its entry in an array.
    """
    if order not in (2, 3):
        raise ParameterError(f"order must be 2 or 3, got {order}")
    om = omega if isinstance(omega, float) else np.asarray(omega, dtype=float)
    out = _series(params, params.delta_tilde, 2, order, om)
    return float(out) if isinstance(om, float) or om.ndim == 0 else out
