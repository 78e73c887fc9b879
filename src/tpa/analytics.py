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
dimensionless, mu the ratio of the two transition dipoles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .core import NormalizedParams, ParameterError, _require_finite

__all__ = ["LocatorError", "LineshapeParams", "width_fwhm", "stark_shift"]


class LocatorError(RuntimeError):
    """Bracketing or refinement of a line feature failed."""


@dataclass(frozen=True)
class LineshapeParams:
    """Line-profile inputs: pump strength, beam ratio, width, dipole ratio."""

    x: float
    a_ratio: float = 0.0
    gamma_v_tilde: float = 0.0
    mu: float = 1.0

    def __post_init__(self):
        for name in ("x", "a_ratio", "gamma_v_tilde", "mu"):
            _require_finite(name, getattr(self, name))
        if self.x == 0.0:
            raise ParameterError("x must be nonzero")
        if self.a_ratio < 0.0:
            raise ParameterError(f"a_ratio must be >= 0, got {self.a_ratio}")
        if self.gamma_v_tilde < 0.0:
            raise ParameterError(
                f"gamma_v_tilde must be >= 0, got {self.gamma_v_tilde}")
        if self.mu <= 0.0:
            raise ParameterError(f"mu must be positive, got {self.mu}")

    @classmethod
    def from_params(cls, params: NormalizedParams) -> "LineshapeParams":
        return cls(x=params.x, a_ratio=params.a_ratio,
                   gamma_v_tilde=params.gamma_v_tilde, mu=params.mu)


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


def _profile_args(p: LineshapeParams, delta_tilde):
    d = np.asarray(delta_tilde, dtype=float)
    return d, d.ndim == 0


def n2(p: LineshapeParams | NormalizedParams, delta_tilde):
    """Lorentzian-averaged order-2 profile versus two-photon detuning.

    Reads only x, a_ratio, gamma_v_tilde and mu, so a NormalizedParams of
    a Lorentzian or homogeneous profile works as well as a LineshapeParams.
    """
    d, scalar = _profile_args(p, delta_tilde)
    a2 = p.a_ratio ** 2
    g1 = 1.0 + p.gamma_v_tilde
    w = g1 ** 2 + d ** 2
    out = 8 * p.mu ** 2 * p.x ** 2 * (g1 * (1.0 + a2 ** 2) / w
                                      + 4.0 * a2 / (1.0 + d ** 2))
    return float(out) if scalar else out


def n2_max(p: LineshapeParams) -> float:
    """Peak (line-center) value of n2."""
    a2 = p.a_ratio ** 2
    gv = p.gamma_v_tilde
    return (8 * p.mu ** 2 * p.x ** 2
            * ((a2 ** 2 + 4.0 * a2 + 1.0) + 4.0 * gv * a2) / (1.0 + gv))


def n3(p: LineshapeParams | NormalizedParams, delta_tilde):
    """Lorentzian-averaged order-3 profile: the odd light-shift term.

    Takes the same parameter objects as n2.
    """
    d, scalar = _profile_args(p, delta_tilde)
    a2 = p.a_ratio ** 2
    gv = p.gamma_v_tilde
    g1 = 1.0 + gv
    w = g1 ** 2 + d ** 2
    el = 1.0 + d ** 2
    b1 = a2 * (2.0 / el ** 2 + (2.0 + gv) / (el * w))
    b2 = 2.0 * (1.0 + a2 ** 2) * g1 / w ** 2
    mu2 = p.mu ** 2
    out = (16 * mu2 * (mu2 - 1.0) * (1.0 + a2) * d * p.x ** 3
           * (b1 + b2))
    return float(out) if scalar else out


def stark_shift(p: LineshapeParams) -> float:
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


def stark_shift_tw(p: LineshapeParams) -> float:
    """Running-wave (A = 0) displacement: independent of the Doppler width."""
    return 2.0 * (p.mu ** 2 - 1.0) * p.x


def stark_shift_sw(p: LineshapeParams) -> float:
    """Equal standing wave (A = 1) displacement."""
    gv = p.gamma_v_tilde
    return ((p.mu ** 2 - 1.0) * p.x
            * (1.0 + (5.0 + 3.0 * gv + gv ** 2)
               / (1.0 + 2.0 * (1.0 + gv) ** 3)))


def numeric_fwhm(curve, tol: float = 1e-8) -> float:
    """FWHM of an even, single-peaked profile given only pointwise.

    Brackets the half-maximum crossing by doubling outward from
    delta_tilde = 1, then refines the root. The profile must be positive at
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
    root = brentq(lambda d: float(curve(d)) - target, lo, hi,
                  xtol=tol, rtol=max(tol, 4 * np.finfo(float).eps))
    mirrored = float(curve(-root))
    if abs(mirrored - target) > 1e-6 * peak:
        raise LocatorError(
            f"profile is not even: f({root:.6g}) = {target:.6e} but "
            f"f({-root:.6g}) = {mirrored:.6e}")
    return 2.0 * root


def numeric_peak(curve, bracket_halfwidth: float | None = None,
                 tol: float = 1e-10) -> float:
    """Location of the maximum of a single-peaked profile.

    Scans a coarse symmetric grid (33 points over +-bracket_halfwidth,
    default +-4), widens the bracket geometrically while the maximum sits on
    its edge, then polishes with bounded minimization to absolute
    tolerance tol.
    """
    half = 4.0 if bracket_halfwidth is None else float(bracket_halfwidth)
    if not half > 0.0:
        raise ParameterError(
            f"bracket_halfwidth must be positive, got {bracket_halfwidth}")
    for _ in range(12):
        grid = np.linspace(-half, half, 33)
        values = np.array([float(curve(d)) for d in grid])
        k = int(np.argmax(values))
        if 0 < k < grid.size - 1:
            lo, hi = grid[k - 1], grid[k + 1]
            res = minimize_scalar(lambda d: -float(curve(d)),
                                  bounds=(lo, hi), method="bounded",
                                  options={"xatol": tol})
            return float(res.x)
        half *= 4.0
    raise LocatorError("peak keeps escaping the bracket; profile may be "
                       "monotonic")
