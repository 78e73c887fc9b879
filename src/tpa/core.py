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

import importlib.machinery
import importlib.util
import math
import numbers
import sys
from dataclasses import dataclass, field

__all__ = ["ParameterError", "NormalizedParams"]

_KINDS = ("homogeneous", "lorentzian", "gaussian")
_EPS = math.ulp(1.0)


class ParameterError(ValueError):
    """Invalid physical or numerical parameter."""


def _lazy_module(name: str):
    """The module `name`, loaded on its first attribute access.

    A closed-form scan calls no numpy or scipy routine, and importing them
    takes longer than the scan itself; so the layers that use them hold this
    stand-in instead of importing them. A module already imported is
    returned as it is. A submodule is found without importing its package:
    importlib.util.find_spec("scipy.linalg") would import scipy, and with
    it numpy, so the submodule is looked up in the package's directory,
    which find_spec of a top-level name reports without importing it. Once
    loaded, the module is a plain module again, and attribute reads cost
    what they cost on an imported one.
    """
    if name in sys.modules:
        return sys.modules[name]
    parent, _, _ = name.rpartition(".")
    if parent and parent not in sys.modules:
        where = importlib.util.find_spec(parent).submodule_search_locations
        spec = importlib.machinery.PathFinder.find_spec(name, where)
    else:
        spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


def _linspace(start: float, stop: float, count: int) -> list:
    """np.linspace(start, stop, count).tolist(), value for value, count >= 2.

    numpy rounds k * step + start, or (k / div) * delta + start when the
    step underflows to 0, and puts stop itself last.
    """
    div = count - 1
    delta = stop - start
    step = delta / div
    if step == 0.0:
        grid = [k / div * delta + start for k in range(count)]
    else:
        grid = [k * step + start for k in range(count)]
    grid[-1] = stop
    return grid


def _geomspace(start: float, stop: float, count: int) -> list:
    """np.geomspace(start, stop, count).tolist() to rounding, for 0 < start:
    exact ends, and 10.0 ** e at evenly spaced base-10 logs e between."""
    logs = _linspace(math.log10(start), math.log10(stop), count)
    return [start] + [10.0 ** e for e in logs[1:-1]] + [stop]


def _require_finite(name: str, value, low=-math.inf, strict=False) -> float:
    """value as a finite float >= low, or > low if strict: the number rule.

    Booleans, text and bytes (which float() reads), and whatever float()
    refuses, are not numbers; an integer beyond double range is not repr'd,
    since it may have thousands of digits, and a refused value shows at
    most 60 characters of its repr.
    """
    if type(value) is float and low < value < math.inf:
        return value
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = None
    except OverflowError:
        raise ParameterError(f"{name} is beyond double precision") from None
    # an exact int, the usual number from outside, skips the type test
    if number is None or (type(value) is not int
                          and isinstance(value, (bool, str, bytes, bytearray))):
        raise ParameterError(f"{name} must be a number, got {value!r:.60}")
    if not math.isfinite(number):
        raise ParameterError(f"{name} must be finite, got {number!r}")
    if number <= low and (strict or number < low):
        bound = ">" if strict else ">="
        raise ParameterError(f"{name} must be {bound} {low:g}, got {number!r}")
    return number


def _require_int(name: str, value, low, high=math.inf) -> int:
    """value as an int in [low, high]: the one rule of an integer from outside.
    numpy ints pass; booleans fail, and so do 19+ digits, which never print;
    another refused value shows at most 60 characters of its repr."""
    if type(value) is int and low <= value <= high and abs(value) < 10 ** 18:
        return value
    whole = isinstance(value, numbers.Integral) and type(value) is not bool
    big = whole and not -10 ** 18 < value < 10 ** 18
    if whole and not big and low <= value <= high:
        return int(value)
    got = ("an integer beyond 1e18" if big else value if whole
           else f"{value!r:.60}")
    bound = (f" in [{low}, {high}]" if high < math.inf
             else f" >= {low}" if low > -math.inf else "")
    raise ParameterError(f"{name} must be an integer{bound}, got {got}")


def _check_profile(kind: str, gamma_v: float) -> None:
    """The velocity-profile rules: a known kind, and a HWHM gamma_v (>= 0 by
    the number rule) that is 0 if and only if the kind is 'homogeneous'."""
    if kind not in _KINDS:
        raise ParameterError(f"kind must be one of {_KINDS}, got {kind!r}")
    if (gamma_v == 0.0) != (kind == "homogeneous"):
        raise ParameterError(
            "gamma_v_tilde = 0 if and only if kind is 'homogeneous'")


def _phi_squared(phi: float) -> float:
    # the one rounding of phi_tilde**2 that build and the derived x share
    try:
        return phi ** 2
    except OverflowError:
        raise ParameterError(f"phi_tilde**2 overflows, got {phi!r}") from None


# The numbers of NormalizedParams: name, lower bound, whether it is strict
_BOUNDS = (("delta_tilde", -math.inf, False), ("gamma_v_tilde", 0.0, False),
           ("a_ratio", 0.0, False), ("mu", 0.0, True),
           ("phi_tilde", 0.0, False), ("delta_big_tilde", -math.inf, False))


@dataclass(frozen=True)
class NormalizedParams:
    """Dimensionless parameter set; all rates in units of gamma.

    delta_tilde     : two-photon detuning delta/gamma.
    gamma_v_tilde   : inhomogeneous HWHM gamma_v/gamma.
    x               : phi**2/(gamma*delta_big), the perturbative strength
                      (signed; carries the sign of delta_big). It is not an
                      argument: the constructor derives it as
                      phi_tilde**2/delta_big_tilde, so the series, which
                      read x, and the solver, which reads phi_tilde and
                      delta_big_tilde, see one atom.
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
    x: float = field(init=False)
    a_ratio: float
    mu: float
    phi_tilde: float
    delta_big_tilde: float
    kind: str = "homogeneous"

    def __post_init__(self):
        for name, low, strict in _BOUNDS:
            value = getattr(self, name)
            number = _require_finite(name, value, low, strict)
            if number is not value:  # a float passes as itself
                object.__setattr__(self, name, number)
        _check_profile(self.kind, self.gamma_v_tilde)
        if self.delta_big_tilde == 0.0:
            raise ParameterError("delta_big_tilde must be nonzero")
        object.__setattr__(self, "x", _require_finite(
            "x", _phi_squared(self.phi_tilde) / self.delta_big_tilde))

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
        if x is not None:
            x = _require_finite("x", x)
            if x == 0.0:
                raise ParameterError("x must be nonzero")
            delta_big_tilde = _phi_squared(
                _require_finite("phi_tilde", phi_tilde)) / x
        if kind is None:
            kind = "homogeneous" if gamma_v_tilde == 0.0 else "lorentzian"
        return cls(delta_tilde=delta_tilde, gamma_v_tilde=gamma_v_tilde,
                   a_ratio=a_ratio, mu=mu, phi_tilde=phi_tilde,
                   delta_big_tilde=delta_big_tilde, kind=kind)

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
