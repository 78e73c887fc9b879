"""Closed-form line profiles of the velocity-averaged two-photon signal.

The Lorentzian-averaged dc upper population is, through third order in the
pump strength x = phi_tilde^2 / delta_big_tilde, an explicit function of the
two-photon detuning delta_tilde, the beam ratio A, and the Doppler width
gamma_v_tilde. This module collects those profiles and the line parameters
read off them:

  * the order-2 profile n2 and its peak height n2_max;
  * the full width at half maximum of n2, in closed form (width_fwhm) and
    by direct root bracketing on any even profile (numeric_fwhm);
  * the third-order light-shift asymmetry n3, the closed-form peak
    displacement stark_shift it produces, and a direct peak locator
    (numeric_peak) for profiles only available pointwise.

Everything is normalized: detunings and widths in units of gamma, x
dimensionless, mu the ratio of the two transition dipoles. The profiles take
NormalizedParams, the one normalized parameter set that the solver and the
series use too, and read only its x, a_ratio, gamma_v_tilde and mu; the
two-photon detuning is their second argument, so one parameter set serves a
whole line. The detuning is a float or an array; a float is evaluated in
float arithmetic and gives a float bit-identical to its entry in an array,
because squares of detuning terms are products (a float's ** 2 calls C
pow(), which can differ from numpy's square in the last bit), and it loads
no numpy.
"""

from __future__ import annotations

import math

from .core import NormalizedParams, ParameterError, _lazy_module

np = _lazy_module("numpy")  # at the first array profile or locator
optimize = _lazy_module("scipy.optimize")  # the locators, at their first call

__all__ = ["LocatorError", "width_fwhm", "stark_shift"]


class LocatorError(RuntimeError):
    """Bracketing or refinement of a line feature failed."""


def width_fwhm(a_ratio: float, gamma_v_tilde: float) -> float:
    """Closed-form FWHM of the n2 profile, in units of gamma.

    Collapses to 2 for a homogeneous medium (any beam ratio) and to
    2*(1 + gamma_v_tilde) for a single running wave.
    """
    a4 = a_ratio ** 4
    g1 = 1.0 + gamma_v_tilde
    w = g1 ** 2
    f = 0.5 * (1.0 + a4 - 4.0 * g1 * a_ratio ** 2) / (1.0 + a4
                                                      + 4.0 * g1 * a_ratio ** 2)
    wf = (w - 1.0) * f
    return 2.0 * math.sqrt(math.sqrt(w + (w - 1.0) ** 2 * f ** 2) + wf)


def _detuning(delta_tilde):
    # a float stays a float; anything else becomes a float array
    if isinstance(delta_tilde, float):
        return delta_tilde
    return np.asarray(delta_tilde, dtype=float)


def n2(p: NormalizedParams, delta_tilde):
    """Lorentzian-averaged order-2 profile versus two-photon detuning.

    Scalar in, float out; arrays are evaluated elementwise.
    """
    d = _detuning(delta_tilde)
    a2 = p.a_ratio ** 2
    g1 = 1.0 + p.gamma_v_tilde
    w = g1 ** 2 + d * d
    out = 8 * p.mu ** 2 * p.x ** 2 * (g1 * (1.0 + a2 ** 2) / w
                                      + 4.0 * a2 / (1.0 + d * d))
    return float(out) if isinstance(d, float) or d.ndim == 0 else out


def n2_max(p: NormalizedParams) -> float:
    """Peak (line-center) value of n2."""
    a2 = p.a_ratio ** 2
    gv = p.gamma_v_tilde
    return (8 * p.mu ** 2 * p.x ** 2
            * ((a2 ** 2 + 4.0 * a2 + 1.0) + 4.0 * gv * a2) / (1.0 + gv))


def n3(p: NormalizedParams, delta_tilde):
    """Lorentzian-averaged order-3 profile: the odd light-shift term."""
    d = _detuning(delta_tilde)
    a2 = p.a_ratio ** 2
    gv = p.gamma_v_tilde
    g1 = 1.0 + gv
    w = g1 ** 2 + d * d
    el = 1.0 + d * d
    b1 = a2 * (2.0 / (el * el) + (2.0 + gv) / (el * w))
    b2 = 2.0 * (1.0 + a2 ** 2) * g1 / (w * w)
    mu2 = p.mu ** 2
    out = (16 * mu2 * (mu2 - 1.0) * (1.0 + a2) * d * p.x ** 3
           * (b1 + b2))
    return float(out) if isinstance(d, float) or d.ndim == 0 else out


def stark_shift(p: NormalizedParams) -> float:
    """Closed-form displacement of the n2 + n3 peak, in units of gamma.

    Linear in x and in mu^2 - 1; vanishes identically when the two dipoles
    match (mu = 1).
    """
    a2 = p.a_ratio ** 2
    a4 = a2 ** 2
    gv = p.gamma_v_tilde
    g1 = 1.0 + gv
    num = (1.0 + a4) + a2 * g1 * (2.0 + 2.5 * gv + gv ** 2)
    den = (1.0 + a4) + 4.0 * a2 * g1 ** 3
    return 2.0 * (1.0 + a2) * (p.mu ** 2 - 1.0) * p.x * num / den


def stark_shift_tw(p: NormalizedParams) -> float:
    """Running-wave (A = 0) displacement: independent of the Doppler width."""
    return 2.0 * (p.mu ** 2 - 1.0) * p.x


def stark_shift_sw(p: NormalizedParams) -> float:
    """Equal standing wave (A = 1) displacement."""
    gv = p.gamma_v_tilde
    return ((p.mu ** 2 - 1.0) * p.x
            * (1.0 + (5.0 + 3.0 * gv + gv ** 2)
               / (1.0 + 2.0 * (1.0 + gv) ** 3)))


def numeric_fwhm(curve) -> float:
    """FWHM of an even, single-peaked profile given only pointwise.

    Brackets the half-maximum crossing by doubling outward from 1, then
    refines the root to 1e-8 (1 + |root|). The profile must be positive at
    the center and even; a symmetry spot-check guards against misuse.
    """
    peak = float(curve(0.0))
    if not (peak > 0.0 and math.isfinite(peak)):
        raise LocatorError(f"profile center must be positive, got {peak!r}")
    target = 0.5 * peak
    hi = 1.0
    lo = 0.0
    for _ in range(60):
        if float(curve(hi)) < target:
            break
        lo = hi
        hi *= 2.0
    else:
        raise LocatorError("no half-maximum crossing within bracket ladder")
    root = optimize.brentq(lambda d: float(curve(d)) - target, lo, hi,
                           xtol=1e-8, rtol=1e-8)
    mirrored = float(curve(-root))
    if abs(mirrored - target) > 1e-6 * peak:
        raise LocatorError(
            f"profile is not even: f({root:.6g}) = {target:.6e} but "
            f"f({-root:.6g}) = {mirrored:.6e}")
    return 2.0 * root


def numeric_peak(curve, bracket_halfwidth: float,
                 tol: float = 1e-10) -> float:
    """Location of the maximum of a single-peaked profile.

    Scans a coarse symmetric grid (33 points over +-bracket_halfwidth),
    widens the bracket geometrically while the maximum sits on its edge,
    then polishes with bounded minimization to absolute tolerance tol.
    """
    half = float(bracket_halfwidth)
    if not half > 0.0:
        raise ParameterError(
            f"bracket_halfwidth must be positive, got {bracket_halfwidth}")
    for _ in range(12):
        grid = np.linspace(-half, half, 33)
        values = np.array([float(curve(d)) for d in grid])
        k = int(np.argmax(values))
        if 0 < k < grid.size - 1:
            lo, hi = grid[k - 1], grid[k + 1]
            res = optimize.minimize_scalar(lambda d: -float(curve(d)),
                                           bounds=(lo, hi), method="bounded",
                                           options={"xatol": tol})
            return float(res.x)
        half *= 4.0
    raise LocatorError("peak keeps escaping the bracket; profile may be "
                       "monotonic")
