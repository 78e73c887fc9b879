"""Closed-form line profiles of the velocity-averaged two-photon signal.

Through third order in the pump strength x = phi_tilde^2 / delta_big_tilde,
the velocity-averaged dc upper population is the series
`perturbative._series`, stated once for a velocity class and for every
profile. This module collects the profiles it gives and the line parameters
read off them:

  * the order-2 profile n2 and its peak height n2_max;
  * the full width at half maximum of n2, in closed form (width_fwhm) and
    by direct root bracketing on any even profile (numeric_fwhm);
  * the third-order light-shift asymmetry n3, the peak displacement
    stark_shift = -n3'(0)/n2''(0) it produces (`perturbative._peak_shift`),
    and a direct peak locator (numeric_peak), the bracketed root of the
    line's slope, for profiles only available pointwise.

Both locators refine a root by Brent's method (`_brentq`, scipy's brentq
written out), and raise LocatorError on a nan or inf profile value, a
bracket without a sign change or a root that does not converge.

Everything is normalized: detunings and widths in units of gamma, x
dimensionless, mu the ratio of the two transition dipoles. The profiles take
NormalizedParams, the one parameter set of the solver and the series; the
two-photon detuning is their second argument, so one parameter set serves a
whole line. n2, n3, n2_max and stark_shift follow its kind; width_fwhm is
the Lorentzian/homogeneous closed form. n2 and n3 take one real detuning,
under the number rule of `core._require_finite`, and give one float, so a
line is one call per detuning; an array of detunings is a TypeError.
Neither the profiles nor the locators load numpy or scipy.
"""

from __future__ import annotations

import math
import sys

from .core import NormalizedParams, _linspace, _require_finite
from .perturbative import _peak_shift, _series

__all__ = ["LocatorError", "width_fwhm", "stark_shift"]


class LocatorError(RuntimeError):
    """Bracketing or refinement of a line feature failed."""


def width_fwhm(a_ratio: float, gamma_v_tilde: float) -> float:
    """Closed-form FWHM of the n2 profile, in units of gamma.

    2 sqrt(s) with s = sqrt(w + q^2) + q, w = (1 + gamma_v_tilde)^2 and
    q = (w - 1) f. Collapses to 2 for a homogeneous medium (any beam ratio)
    and to 2*(1 + gamma_v_tilde) for a single running wave; for every
    A > 0 it tends to 2, the sub-Doppler limit, as gamma_v_tilde grows.
    There q < 0, and s is taken as w / (sqrt(w + q^2) - q), which does not
    cancel. Both are read off q / w and sqrt(w + q^2) / w, so w never
    overflows. Near 1 + A^4 = 4 (1 + gamma_v_tilde) A^2 the relative
    condition number in A is about (1 + gamma_v_tilde)/2, so the last digits
    follow the rounding of A^2 (6.3e-13 relative at gamma_v_tilde = 1e6).
    Both arguments are numbers >= 0.
    """
    a_ratio = _require_finite("a_ratio", a_ratio, 0.0)
    gamma_v_tilde = _require_finite("gamma_v_tilde", gamma_v_tilde, 0.0)
    a4 = a_ratio ** 4
    g1 = 1.0 + gamma_v_tilde
    r = 1.0 / g1
    f = 0.5 * (1.0 + a4 - 4.0 * g1 * a_ratio ** 2) / (1.0 + a4
                                                      + 4.0 * g1 * a_ratio ** 2)
    v = (1.0 - r * r) * f  # q / w
    root = math.hypot(r, v)
    return (2.0 * g1 * math.sqrt(root + v) if v >= 0.0
            else 2.0 / math.sqrt(root - v))


def _detuning(value) -> float:
    """The detuning of n2 or n3 under the number rule, with an array of
    detunings a TypeError: a line is one call per detuning."""
    if getattr(value, "ndim", 0):
        raise TypeError(f"delta_tilde must be one detuning, got an array of "
                        f"shape {value.shape}")
    return _require_finite("delta_tilde", value)


def n2(p: NormalizedParams, delta_tilde):
    """Velocity-averaged order-2 profile versus two-photon detuning."""
    if type(delta_tilde) is not float or not math.isfinite(delta_tilde):
        delta_tilde = _detuning(delta_tilde)  # a finite float passes as is
    return _series(p, delta_tilde, 2, 2)


def n2_max(p: NormalizedParams) -> float:
    """Peak (line-center) value of n2."""
    return _series(p, 0.0, 2, 2)


def n3(p: NormalizedParams, delta_tilde):
    """Velocity-averaged order-3 profile: the odd light-shift term."""
    if type(delta_tilde) is not float or not math.isfinite(delta_tilde):
        delta_tilde = _detuning(delta_tilde)
    return _series(p, delta_tilde, 3, 3)


def stark_shift(p: NormalizedParams) -> float:
    """Closed-form displacement of the n2 + n3 peak, in units of gamma.

    -n3'(0)/n2''(0) of the averaged series, so it follows p.kind like the
    profiles. Linear in x and in mu^2 - 1; vanishes identically when the
    two dipoles match (mu = 1).
    """
    return _peak_shift(p, p.a_ratio)


def stark_shift_tw(p: NormalizedParams) -> float:
    """Running-wave (A = 0) displacement: 2 (mu^2 - 1) x on every profile."""
    return _peak_shift(p, 0.0)


def stark_shift_sw(p: NormalizedParams) -> float:
    """Equal standing wave (A = 1) displacement."""
    return _peak_shift(p, 1.0)


def _value(curve, d: float) -> float:
    """float(curve(d)), refusing a non-finite value."""
    value = float(curve(d))
    if not math.isfinite(value):
        raise LocatorError(f"profile is not finite at {d!r}: {value!r}")
    return value


def _brentq(f, lo: float, hi: float, xtol: float, rtol: float) -> float:
    """Root of f in [lo, hi] by Brent's method (Algorithms for Minimization
    Without Derivatives, 1973, ch. 4).

    Step for step the C brentq of scipy.optimize, so it makes the same
    evaluations and returns the same root: each step interpolates (secant)
    or extrapolates (inverse quadratic) from the last iterates, or bisects
    the bracket when that step is not short enough, and it stops when half
    the bracket is within (xtol + rtol |x|) / 2 of the best iterate x. A
    bracket without a sign change, or 100 steps without convergence, is a
    LocatorError.
    """
    xpre, xcur = lo, hi
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise LocatorError(f"no root in [{lo:.6g}, {hi:.6g}]: f has the "
                           f"same sign at both ends")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # a short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
    raise LocatorError(f"no convergence in [{lo:.6g}, {hi:.6g}] after 100 "
                       f"steps")


def numeric_fwhm(curve) -> float:
    """FWHM of an even, single-peaked profile given only pointwise.

    Brackets the half-maximum crossing by doubling outward from 1, then
    refines the root to 1e-8 (1 + |root|). The profile must be > 0 at the
    center and even; a symmetry spot-check guards against misuse.
    """
    peak = _value(curve, 0.0)
    if not peak > 0.0:
        raise LocatorError(f"profile center must be > 0, got {peak!r}")
    target = 0.5 * peak
    hi = 1.0
    lo = 0.0
    for _ in range(60):
        if _value(curve, hi) < target:
            break
        lo = hi
        hi *= 2.0
    else:
        raise LocatorError("no half-maximum crossing within bracket ladder")
    root = _brentq(lambda d: _value(curve, d) - target, lo, hi, 1e-8, 1e-8)
    mirrored = _value(curve, -root)
    if abs(mirrored - target) > 1e-6 * peak:
        raise LocatorError(
            f"profile is not even: f({root:.6g}) = {target:.6e} but "
            f"f({-root:.6g}) = {mirrored:.6e}")
    return 2.0 * root


def numeric_peak(curve, bracket_halfwidth: float) -> float:
    """Location of the maximum of a single-peaked profile.

    Scans a coarse symmetric grid (33 points over +-bracket_halfwidth),
    widens the bracket geometrically while the maximum sits on its edge,
    then finds the root of the central-difference slope
    curve(d + h) - curve(d - h) between the maximum's two grid neighbours,
    with h = 1e-4 of that bracket. Unlike a minimizer, which resolves a
    flat peak only to about sqrt(eps) * width, the root has no width floor.
    """
    half = _require_finite("bracket_halfwidth", bracket_halfwidth, 0.0,
                           strict=True)
    for _ in range(12):
        grid = _linspace(-half, half, 33)
        values = [_value(curve, d) for d in grid]
        k = values.index(max(values))
        if 0 < k < len(grid) - 1:
            lo, hi = grid[k - 1], grid[k + 1]
            h = 1e-4 * (hi - lo)
            return _brentq(
                lambda d: _value(curve, d + h) - _value(curve, d - h),
                lo, hi, 1e-12 * h, 4.0 * sys.float_info.epsilon)
        half *= 4.0
    raise LocatorError("peak keeps escaping the bracket; profile may be "
                       "monotonic")
