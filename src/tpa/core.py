"""Physical parameters, normalization conventions, and the velocity ensemble.

Model: a three-level ladder atom (ground |1>, intermediate |0>, upper |2>)
driven by two counterpropagating monochromatic waves of equal frequency with
Rabi half-amplitudes phi1 = phi and phi2 = A*phi, so the drive at position
theta = k*z is E(theta) = phi*exp(i*theta) - A*phi*exp(-i*theta).

Internally gamma = 1 fixes the frequency unit, and the wavenumber k and the
velocity v never appear separately: every formula depends on them only through
the two-photon Doppler variable Omega = 2*k*v. Raw-unit inputs are converted
at the boundary by :func:`normalize`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

__all__ = [
    "ParameterError",
    "AtomSpec",
    "FieldSpec",
    "VelocityDistribution",
    "NormalizedParams",
    "normalize",
    "denormalize",
    "dump_parameters",
    "load_parameters",
]

_KINDS = ("homogeneous", "lorentzian", "gaussian")


class ParameterError(ValueError):
    """Invalid physical or numerical parameter."""


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class AtomSpec:
    """Atomic constants: relaxation rate, intermediate detuning, dipole ratio.

    gamma     : relaxation rate of all levels and coherences, > 0.
    delta_big : intermediate-level detuning (signed, nonzero); the expansion
                parameter of the perturbative results is 1/delta_big.
    mu        : ratio of the upper to the lower transition dipole projections,
                > 0.
    """

    gamma: float
    delta_big: float
    mu: float = 1.0

    def __post_init__(self):
        g = _require_finite("gamma", self.gamma)
        if g <= 0.0:
            raise ParameterError(f"gamma must be > 0, got {g}")
        d = _require_finite("delta_big", self.delta_big)
        if d == 0.0:
            raise ParameterError("delta_big must be nonzero")
        m = _require_finite("mu", self.mu)
        if m <= 0.0:
            raise ParameterError(f"mu must be > 0, got {m}")


@dataclass(frozen=True)
class FieldSpec:
    """Drive parameters: Rabi half-amplitude, beam ratio, two-photon detuning.

    phi     : Rabi half-amplitude of the forward beam (phi1 = phi >= 0).
    a_ratio : amplitude ratio A >= 0 of the counterpropagating beam,
              phi2 = A*phi. A=0 is a traveling wave, A=1 a standing wave.
    delta   : two-photon detuning (signed), the resonance variable.
    """

    phi: float
    a_ratio: float
    delta: float = 0.0

    def __post_init__(self):
        p = _require_finite("phi", self.phi)
        if p < 0.0:
            raise ParameterError(f"phi must be >= 0, got {p}")
        a = _require_finite("a_ratio", self.a_ratio)
        if a < 0.0:
            raise ParameterError(f"a_ratio must be >= 0, got {a}")
        _require_finite("delta", self.delta)


@dataclass(frozen=True)
class VelocityDistribution:
    """Velocity ensemble in the Doppler variable Omega = 2*k*v.

    kind    : 'homogeneous', 'lorentzian', or 'gaussian'.
    gamma_v : inhomogeneous HWHM in Omega; 0 if and only if homogeneous.

    Densities are unit-normalized over Omega in (-inf, inf):
      Lorentzian L(Omega) = (1/pi) * gamma_v / (gamma_v**2 + Omega**2)
      Gaussian   G(Omega) = (sqrt(ln2)/(gamma_v*sqrt(pi))) * exp(-ln2*(Omega/gamma_v)**2)
    Both have half-width gamma_v at half maximum.
    """

    kind: str
    gamma_v: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ParameterError(
                f"kind must be one of {_KINDS}, got {self.kind!r}")
        gv = _require_finite("gamma_v", self.gamma_v)
        if gv < 0.0:
            raise ParameterError(f"gamma_v must be >= 0, got {gv}")
        if (gv == 0.0) != (self.kind == "homogeneous"):
            raise ParameterError(
                "gamma_v = 0 if and only if kind is 'homogeneous', "
                f"got kind={self.kind!r}, gamma_v={gv}")

    @classmethod
    def homogeneous(cls) -> "VelocityDistribution":
        return cls("homogeneous", 0.0)

    @classmethod
    def lorentzian(cls, gamma_v: float) -> "VelocityDistribution":
        return cls("lorentzian", gamma_v)

    @classmethod
    def gaussian(cls, gamma_v: float) -> "VelocityDistribution":
        return cls("gaussian", gamma_v)


@dataclass(frozen=True)
class NormalizedParams:
    """Dimensionless parameter set; all rates in units of gamma.

    delta_tilde     : two-photon detuning delta/gamma.
    gamma_v_tilde   : inhomogeneous HWHM gamma_v/gamma.
    x               : phi**2/(gamma*delta_big), the perturbative strength
                      (signed; carries the sign of delta_big).
    a_ratio, mu     : as in FieldSpec/AtomSpec (mu > 0).
    phi_tilde       : phi/gamma.
    delta_big_tilde : delta_big/gamma.
    kind            : velocity distribution kind.
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
        if self.kind not in _KINDS:
            raise ParameterError(
                f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.delta_big_tilde == 0.0:
            raise ParameterError("delta_big_tilde must be nonzero")
        if self.mu <= 0.0:
            raise ParameterError(f"mu must be > 0, got {self.mu}")
        if self.phi_tilde < 0.0 or self.a_ratio < 0.0 or self.gamma_v_tilde < 0.0:
            raise ParameterError("phi_tilde, a_ratio, gamma_v_tilde must be >= 0")
        if (self.gamma_v_tilde == 0.0) != (self.kind == "homogeneous"):
            raise ParameterError(
                "gamma_v_tilde = 0 if and only if kind is 'homogeneous'")

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
            x = phi_tilde ** 2 / delta_big_tilde
        else:
            if x == 0.0:
                raise ParameterError("x must be nonzero")
            delta_big_tilde = phi_tilde ** 2 / x
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

    def distribution(self) -> VelocityDistribution:
        return VelocityDistribution(self.kind, self.gamma_v_tilde)

    def with_delta(self, delta_tilde: float) -> "NormalizedParams":
        return replace(self, delta_tilde=float(delta_tilde))


def normalize(atom: AtomSpec, field: FieldSpec,
              dist: VelocityDistribution) -> NormalizedParams:
    """Convert raw-unit inputs to the internal gamma = 1 representation."""
    g = atom.gamma
    return NormalizedParams(
        delta_tilde=field.delta / g,
        gamma_v_tilde=dist.gamma_v / g,
        x=field.phi ** 2 / (g * atom.delta_big),
        a_ratio=field.a_ratio,
        mu=atom.mu,
        phi_tilde=field.phi / g,
        delta_big_tilde=atom.delta_big / g,
        kind=dist.kind,
    )


def denormalize(params: NormalizedParams, gamma: float):
    """Inverse of :func:`normalize` for a chosen value of gamma."""
    g = _require_finite("gamma", gamma)
    if g <= 0.0:
        raise ParameterError(f"gamma must be > 0, got {g}")
    atom = AtomSpec(gamma=g, delta_big=params.delta_big_tilde * g, mu=params.mu)
    field = FieldSpec(phi=params.phi_tilde * g, a_ratio=params.a_ratio,
                      delta=params.delta_tilde * g)
    dist = VelocityDistribution(params.kind, params.gamma_v_tilde * g)
    return atom, field, dist


def epsilon_eff(params: NormalizedParams) -> float:
    """Perturbative-validity ratio max(gamma, |delta|, phi, gamma_v)/|delta_big|.

    A pragmatic diagnostic: the closed forms are leading orders of an
    expansion in 1/delta_big and degrade as this ratio approaches 1.
    """
    top = max(1.0, abs(params.delta_tilde), params.phi_tilde,
              params.gamma_v_tilde)
    return top / abs(params.delta_big_tilde)


# JSON document layout for a raw-unit parameter set. Unknown keys anywhere
# are rejected so that typos fail loudly instead of silently using defaults.
_TOP_KEYS = {"gamma", "delta_big", "mu", "phi", "a_ratio", "delta", "dist"}
_DIST_KEYS = {"kind", "gamma_v"}


def dump_parameters(atom: AtomSpec, field: FieldSpec,
                    dist: VelocityDistribution) -> dict:
    """Serialize a raw-unit parameter set to a plain JSON-compatible dict."""
    return {
        "gamma": atom.gamma,
        "delta_big": atom.delta_big,
        "mu": atom.mu,
        "phi": field.phi,
        "a_ratio": field.a_ratio,
        "delta": field.delta,
        "dist": {"kind": dist.kind, "gamma_v": dist.gamma_v},
    }


def load_parameters(doc: dict):
    """Parse the dict produced by :func:`dump_parameters`.

    Returns (AtomSpec, FieldSpec, VelocityDistribution). All keys are
    required; unknown keys raise ParameterError.
    """
    if not isinstance(doc, dict):
        raise ParameterError(f"parameter document must be a mapping, got {type(doc).__name__}")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ParameterError(f"unknown parameter keys: {sorted(unknown)}")
    missing = _TOP_KEYS - set(doc)
    if missing:
        raise ParameterError(f"missing parameter keys: {sorted(missing)}")
    dist_doc = doc["dist"]
    if not isinstance(dist_doc, dict):
        raise ParameterError("'dist' must be a mapping")
    unknown = set(dist_doc) - _DIST_KEYS
    if unknown:
        raise ParameterError(f"unknown dist keys: {sorted(unknown)}")
    missing = _DIST_KEYS - set(dist_doc)
    if missing:
        raise ParameterError(f"missing dist keys: {sorted(missing)}")
    kind = str(dist_doc["kind"]).lower()
    atom = AtomSpec(gamma=float(doc["gamma"]), delta_big=float(doc["delta_big"]),
                    mu=float(doc["mu"]))
    field = FieldSpec(phi=float(doc["phi"]), a_ratio=float(doc["a_ratio"]),
                      delta=float(doc["delta"]))
    dist = VelocityDistribution(kind, float(dist_doc["gamma_v"]))
    return atom, field, dist
