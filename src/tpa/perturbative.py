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
    Lorentzian or homogeneous profile, the Faddeeva function w for a
    Gaussian one (`_faddeeva_moments`, with w from Weideman's series,
    `_wofz`), in plain complex arithmetic, without numpy or scipy; the
    Gaussian average of one pole, `_resolvent_average`, also averages each
    pole of the solver's steady state (`averaging.oracle_average`);
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

# Weideman's rational series for the Faddeeva function w (SIAM J. Numer.
# Anal. 31, 1497 (1994)) with N = 40 terms: L = sqrt(N / sqrt 2), and the
# coefficients a_N, ..., a_1 of p(Z) = sum_n a_n Z^(n-1), his program cef's
# FFT of exp(-t^2) (L^2 + t^2) at t = L tan(k pi / 4N), which the tests
# regenerate.
_WEIDEMAN_L = 5.3182958969449885
_WEIDEMAN_A = (
    -1.7356980998791865e-15, 1.201674910759281e-15, 1.1519170220749485e-14,
    -5.231716366324404e-15, -7.071088022159408e-14, 1.3778224047664046e-14,
    4.5341448909434655e-13, 1.203330952919568e-13, -2.90771851041427e-12,
    -2.7277735625830245e-12, 1.771418567386718e-11, 3.4727420938907015e-11,
    -9.055138860958323e-11, -3.5632350403602684e-10, 2.1085990731251058e-10,
    3.017780425551564e-09, 3.249746582945079e-09, -1.8315616834296834e-08,
    -6.351773483015411e-08, 1.419864237295343e-08, 5.912136953029057e-07,
    1.4835661133172014e-06, -1.066013898416273e-06, -1.8007447144723407e-05,
    -5.5913092642348794e-05, -3.939363145483805e-05, 0.000439807015986967,
    0.002705405633073729, 0.010048186242783535, 0.02920291647124188,
    0.07182361779074328, 0.15504263802479504, 0.2998943799615006,
    0.5266528988277086, 0.8472174576593815, 1.2563815675765133,
    1.7253830848179779, 2.201513794878312, 2.6160541527618597,
    2.899624509389705)

# Beyond |zeta| = 6, M2 and M3 are summed from the asymptotic series of
# w'(zeta) and w''(zeta), cut at their smallest term there (k = 36, 2e-14
# relative); below it the identities w' = -2 zeta w + 2i/sqrt(pi) and
# w'' = -2 w - 2 zeta w' each lose at most |zeta|^2 < 36 times the accuracy
# they start from.
_ASYMPTOTIC_ZETA = 6.0
_ASYMPTOTIC_TERMS = 36


def _wofz(z: complex) -> complex:
    """The Faddeeva function w(z) = exp(-z^2) erfc(-iz), for Im z > 0.

    Weideman's 2 p(Z) / L'^2 + 1 / (sqrt(pi) L'), with L' = L - iz and
    Z = (L + iz) / L', summed as (2 p / L' + 1 / sqrt(pi)) / L', so that no
    square of a huge z overflows; p in Horner form. Against 40-digit
    mpmath, on 10,000 draws of the zeta of `_faddeeva_moments` with gamma_v
    and |delta| in [1e-4, 1e4], it held 1.2e-15 relative for |z| < 6 and
    7e-16 beyond. A z that is not finite gives nan.
    """
    lz = _WEIDEMAN_L - 1j * z
    big_z = (_WEIDEMAN_L + 1j * z) / lz
    p = 0.0
    for a in _WEIDEMAN_A:
        p = p * big_z + a
    return (2.0 * p / lz + 1.0 / math.sqrt(math.pi)) / lz


def _resolvent_average(pole: complex, s: float) -> tuple:
    """The Gaussian average <1 / (Omega - pole)> for Im pole > 0, and w.

    Omega is drawn from the Gaussian of HWHM gamma_v, s = sqrt(ln 2) /
    gamma_v; the average is i sqrt(pi) s w(zeta) with zeta = pole s, the
    plasma dispersion function (Fried & Conte, The Plasma Dispersion
    Function, 1961). Returns (average, w(zeta)). Once zeta or the product
    overflows, or w underflows to 0, the profile is narrower than a double
    resolves next to the pole, and the average is the homogeneous -1/pole,
    returned with w None; it is written i (i / pole), so that -i times it
    is i / pole bit for bit.
    """
    zeta = pole * s
    w = _wofz(zeta)
    average = 1j * (math.sqrt(math.pi) * s * w)
    if cmath.isfinite(zeta + average) and average != 0:
        return average, w
    return 1j * (1j / pole), None


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

    so no power of sigma overflows; M1 is -i times the average of the pole
    1 / (Omega - (delta + i)), `_resolvent_average`. Both w' and w + zeta w'
    cancel to a relative size ~1/|zeta|^2, so at |zeta| >= 6 their
    asymptotic series are summed instead, scaled by the homogeneous
    moments: in q = sigma^2 / (delta + i)^2 = (1/zeta)^2 / 2,

      M2 = -S2(q) / (delta + i)^2,   M3 = -i S3(q) / (delta + i)^3

    (S2, S3 as in `_asymptotic_sum`), which hold no power of s or zeta, so a
    q that underflows gives the homogeneous moments. M1 and M2 stay within
    1e-12 of their exact values for any width: down to the homogeneous
    limit, where |zeta| grows like 1/gamma_v (once zeta or s overflows, or
    w underflows to 0, M1 is the pole 1/(1 - i delta) and q is 0, so the
    asymptotic M2 and M3 end there too), and up to wide profiles, where a
    quadrature's node count grows like gamma_v because the integrand stays
    unit width. So does M3 at delta = 0, where `_peak_shift` reads it;
    elsewhere, below |zeta| = 6, it carries the ~1e-15 relative error of
    `_wofz` times up to |zeta|^4, within 1e-11 (5.4e-13 at delta = -20,
    |zeta| = 5.3).
    """
    s = math.sqrt(math.log(2.0)) / gamma_v
    pole = delta + 1j
    average, w = _resolvent_average(pole, s)
    first = -1j * average  # the product with +-i is exact
    homogeneous = w is None
    zeta = pole * s
    if homogeneous or abs(zeta) >= _ASYMPTOTIC_ZETA:
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
