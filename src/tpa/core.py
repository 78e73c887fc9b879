"""The normalized parameter set and its rules.

Model: a three-level ladder atom (ground |1>, intermediate |0>, upper |2>)
driven by two counterpropagating monochromatic waves of equal frequency with
Rabi half-amplitudes phi1 = phi and phi2 = A*phi, so the drive at position
theta = k*z is E(theta) = phi*exp(i*theta) - A*phi*exp(-i*theta).

gamma = 1 fixes the frequency unit, and the wavenumber k and the velocity v
never appear separately: every formula depends on them only through the
two-photon Doppler variable Omega = 2*k*v. `NormalizedParams` is the one
parameter object; its constructor states every parameter rule, so a copy
at another detuning, dataclasses.replace(params, delta_tilde=d), obeys
them too.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass

__all__ = ["ParameterError", "NormalizedParams"]

_KINDS = ("homogeneous", "lorentzian", "gaussian")
_EPS = math.ulp(1.0)
_TINY = math.ulp(0.0)


class ParameterError(ValueError):
    """Invalid physical or numerical parameter."""


def _lazy_module(name: str):
    """The module `name`, loaded on its first attribute access.

    A closed-form scan calls no scipy routine, and importing scipy.linalg,
    scipy.special and scipy.optimize takes longer than the scan itself; so
    the layers that use them hold this stand-in instead of importing them.
    A module already imported is returned as it is.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return value


def _check_profile(kind: str, gamma_v: float) -> None:
    """The velocity-profile rules: a known kind, and a HWHM gamma_v that is
    finite, >= 0, and 0 if and only if the kind is 'homogeneous'."""
    if kind not in _KINDS:
        raise ParameterError(f"kind must be one of {_KINDS}, got {kind!r}")
    if not 0.0 <= gamma_v < math.inf:
        raise ParameterError(
            f"gamma_v_tilde must be finite and >= 0, got {gamma_v!r}")
    if (gamma_v == 0.0) != (kind == "homogeneous"):
        raise ParameterError(
            "gamma_v_tilde = 0 if and only if kind is 'homogeneous'")


def _phi_squared(phi: float) -> float:
    # the one rounding of phi_tilde**2 that build and the x rule share
    try:
        return phi ** 2
    except OverflowError:
        raise ParameterError(f"phi_tilde**2 overflows, got {phi!r}") from None


@dataclass(frozen=True)
class NormalizedParams:
    """Dimensionless parameter set; all rates in units of gamma.

    delta_tilde     : two-photon detuning delta/gamma.
    gamma_v_tilde   : inhomogeneous HWHM gamma_v/gamma.
    x               : phi**2/(gamma*delta_big), the perturbative strength
                      (signed; carries the sign of delta_big). It must equal
                      phi_tilde**2/delta_big_tilde to rounding, since the
                      closed Lorentzian forms read x and the solver and the
                      Gaussian average read phi_tilde and delta_big_tilde.
    a_ratio         : amplitude ratio A >= 0 of the backward wave
                      (0 traveling wave, 1 standing wave).
    mu              : ratio of the upper to the lower transition dipole, > 0.
    phi_tilde       : phi/gamma >= 0, Rabi half-amplitude of the forward wave.
    delta_big_tilde : delta_big/gamma, the intermediate detuning (nonzero).
    kind            : velocity profile, 'homogeneous', 'lorentzian' or
                      'gaussian'; gamma_v_tilde is its HWHM in Omega and is
                      0 if and only if the kind is 'homogeneous'.
    """

    delta_tilde: float
    gamma_v_tilde: float
    x: float
    a_ratio: float
    mu: float
    phi_tilde: float
    delta_big_tilde: float
    kind: str = "homogeneous"

    def __post_init__(self):
        for name in ("delta_tilde", "gamma_v_tilde", "x", "a_ratio", "mu",
                     "phi_tilde", "delta_big_tilde"):
            _require_finite(name, getattr(self, name))
        _check_profile(self.kind, self.gamma_v_tilde)
        if self.delta_big_tilde == 0.0:
            raise ParameterError("delta_big_tilde must be nonzero")
        if self.mu <= 0.0:
            raise ParameterError(f"mu must be > 0, got {self.mu}")
        if self.phi_tilde < 0.0 or self.a_ratio < 0.0:
            raise ParameterError("phi_tilde and a_ratio must be >= 0")
        # build rounds phi_tilde**2 once and the quotient once, and this
        # product rounds once more: a consistent set stays within 4 eps,
        # plus the absolute rounding of subnormal quotients and products
        phi_sq = _phi_squared(self.phi_tilde)
        slack = (4.0 * _EPS * phi_sq + _TINY
                 * (1.0 + abs(self.x) + abs(self.delta_big_tilde)))
        if abs(self.x * self.delta_big_tilde - phi_sq) > slack:
            raise ParameterError(
                f"x = {self.x!r} contradicts phi_tilde**2 / delta_big_tilde "
                f"= {phi_sq / self.delta_big_tilde!r}; give one of them to "
                "NormalizedParams.build")

    @classmethod
    def build(cls, *, delta_tilde=0.0, gamma_v_tilde=0.0, a_ratio=0.0, mu=1.0,
              phi_tilde=1.0, delta_big_tilde=None, x=None,
              kind=None) -> "NormalizedParams":
        """Construct directly in normalized units.

        Exactly one of delta_big_tilde or x must be given; the other is
        derived from phi_tilde. kind defaults to 'homogeneous' when
        gamma_v_tilde is 0 and 'lorentzian' otherwise.
        """
        if (delta_big_tilde is None) == (x is None):
            raise ParameterError("give exactly one of delta_big_tilde or x")
        if x is None:
            if delta_big_tilde == 0.0:
                raise ParameterError("delta_big_tilde must be nonzero")
            x = _phi_squared(phi_tilde) / delta_big_tilde
        else:
            if x == 0.0:
                raise ParameterError("x must be nonzero")
            delta_big_tilde = _phi_squared(phi_tilde) / x
        if kind is None:
            kind = "homogeneous" if gamma_v_tilde == 0.0 else "lorentzian"
        return cls(delta_tilde=float(delta_tilde),
                   gamma_v_tilde=float(gamma_v_tilde), x=float(x),
                   a_ratio=float(a_ratio), mu=float(mu),
                   phi_tilde=float(phi_tilde),
                   delta_big_tilde=float(delta_big_tilde), kind=kind)

    @property
    def phi1(self) -> float:
        return self.phi_tilde

    @property
    def phi2(self) -> float:
        return self.a_ratio * self.phi_tilde


def epsilon_eff(params: NormalizedParams) -> float:
    """Perturbative-validity ratio max(gamma, |delta|, phi, gamma_v)/|delta_big|.

    A pragmatic diagnostic: the closed forms are leading orders of an
    expansion in 1/delta_big and degrade as this ratio approaches 1.
    """
    top = max(1.0, abs(params.delta_tilde), params.phi_tilde,
              params.gamma_v_tilde)
    return top / abs(params.delta_big_tilde)
