"""Velocity averaging: the averaged series and numerical quadratures.

A moving atom sees the standing-wave harmonics split by Omega = 2kv, so
observables are velocity averages over the Doppler profile. Three profiles
are supported, parameterized by the half width at half maximum gamma_v:

  * homogeneous: delta function at v = 0; the average is just f(0);
  * lorentzian: gamma_v/pi / (gamma_v^2 + Omega^2);
  * gaussian: HWHM gamma_v.

The weak-drive series averages in closed form on all three: the one
formula `perturbative._series` reads the profile's resolvent moments, and
`averaged_population` and the reference of `oracle_average` read it.
A Gaussian `oracle_average` is closed in Omega too: the dc population of
the steady state at one truncation is 2 Re sum_k alpha_k / (Omega - p_k)
over the poles p_k above the real axis (`oracle.pole_expansion`; their
conjugates below it carry the conjugate residues, and no constant is
left), and each pole term averages over the whole line as
alpha i sqrt(pi) s w(p s), s = sqrt(ln 2)/gamma_v, with the same Faddeeva
w as the series (`perturbative._resolvent_average`), evaluated for all the
poles of a rung as one array (`_pole_average`). Its truncation ladder runs
on the average itself, the one ladder that a velocity class climbs too
(`oracle._climb`), and the last rung is checked against two direct solves
(`_gaussian_oracle`); where it misses them, at |x| below about 1e-7 at
A = 1 and 1e-6 at A <= 0.1, the average is a quadrature. A rung costs one
real eigendecomposition of m = 9 n_max - 1 unknowns at the odd n_max it
climbs (9 n_max at even n_max), about m^3 on one OpenBLAS thread, so an
average costs more the stronger the drive that sets its last rung.
Everything else is averaged by quadrature, under the rule that `_average`
picks for the profile; `velocity_average` and the Lorentzian
`oracle_average` both call it.

Averaging the brute-force steady state needs care: the power-law Lorentzian
wings reach velocity classes where high harmonics are stepwise resonant
(Omega near delta_big +- delta), a saturation effect outside the weak-drive
expansion whose weighted share scales like the signal itself. The windowed
difference scheme in `oracle_average` therefore integrates only the
deviation from the series inside |Omega| <= h*gamma_v and keeps the series
value as the tail model, which restores the expected 1/delta_big^2
convergence of oracle minus theory. The per-velocity series it subtracts and
the closed average it adds back are one formula, `_series`.

A Lorentzian `oracle_average` is thus the solver's average over
|Omega| <= domain_halfwidth * gamma_v plus the closed series beyond, which
at the default 10 widths holds 1 - (2/pi) atan 10 = 6.35 % of the mass at
every gamma_v. So at strong drive the value leans on the series, and as
gamma_v -> 0 it does not tend to the homogeneous solve: the tail's mass
stays near Omega = 0, where solver and series differ.

A Lorentzian `oracle_average` (and `_class_values`, the per-class values
a Gaussian one is validated against) evaluates the new nodes of a
quadrature level at once and sweeps them inward, in descending |Omega|:
slow atoms need the deepest truncations, so each velocity class starts its
truncation ladder at two
rungs below the n_used of the class before it (from n_max = 3 at a level's
first class), and skips rungs that are known to be unsettled. A ladder that
starts low enough settles where a fresh one would, on the identical
solution; otherwise it settles deeper. An outward sweep would carry the
deep rungs of the slow classes out to fast ones that settle at shallow
truncations. Every level is exactly antisymmetric (Gauss-Legendre nodes
are, and the trapezoid nodes are built as h (k - m/2)), so the sweep meets
each mirror pair -Omega, +Omega back to back. With equal beams (A = 1
exactly) the second class of a pair is the first mirrored by
U = diag(1, -1, -1), c(i,j,n) -> U_ii U_jj c(i,j,-n), and `oracle.refine`
returns that mirror with the same n_used, without a solve; at A != 1
every class solves its own ladder.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import oracle as oracle_mod
from .core import (_EPS, NormalizedParams, ParameterError, _check_profile,
                   _lazy_module, _require_finite, _require_int)
# imported by name, so a patch of averaging.upper_dc_series sees every call
from .perturbative import _resolvent_average, _series, upper_dc_series

np = _lazy_module("numpy")  # at the first quadrature

__all__ = ["QuadratureError", "averaged_population", "oracle_average"]

_MAX_NODES = 2048
# Relative gap to a direct solve that a Gaussian pole form may leave: the
# accuracy to which the per-class quadrature holds the pole average.
_POLE_GAP = 1e-9
# The Gaussian weight beyond 8 standard deviations carries
# erfc(8 / sqrt 2) ~ 1.2e-15 of the mass, below every tolerance in use.
_GAUSS_WINDOW = 8.0


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Quadrature policy: starting node count, window, tolerance.

    The velocity profile picks the rule (see `_average`). nodes is the
    first level's Gauss-Legendre node count for a Lorentzian profile and its
    interval count (nodes + 1 points on |Omega| <= 8 sigma) for a Gaussian
    one; each later level doubles it, up to 2,048, so nodes <= 1,024 leaves
    room for the two levels a convergence test needs. domain_halfwidth, in
    units of gamma_v, is read only by the Lorentzian difference scheme of
    `oracle_average`, whose window it sets; a Lorentzian `velocity_average`
    integrates the whole line. A Gaussian `oracle_average` reads nodes and
    tol only where its closed form falls back. domain_halfwidth and tol are
    numbers > 0; all three are stored converted. `oracle.LadderSpec` is the
    ladder's twin.
    """

    nodes: int = 32
    domain_halfwidth: float = 10.0
    tol: float = 1e-10

    def __post_init__(self):
        object.__setattr__(self, "nodes", _require_int(
            "nodes", self.nodes, 8, _MAX_NODES // 2))
        for name in ("domain_halfwidth", "tol"):
            object.__setattr__(self, name, _require_finite(
                name, getattr(self, name), 0.0, strict=True))


DEFAULT_ORACLE_QUAD = QuadratureSpec(tol=1e-6)


def _converge(sums, tol, abs_floor):
    """Run a node-doubling ladder until consecutive estimates agree.

    `sums` yields (estimate, l1_mass) pairs, at least two. Convergence
    demands |I_k - I_{k-1}| <= max(tol * max(|I_k|, abs_floor),
    100 * eps * l1_mass); the mass term stops the ladder from chasing
    roundoff when the integral is tiny compared to the summed magnitudes
    (odd integrands, near cancellations).
    """
    prev = None
    for est, mass in sums:
        if prev is not None:
            last_gap = abs(est - prev)
            scale = max(abs(est), abs_floor)
            if last_gap <= max(tol * scale, 100.0 * _EPS * mass):
                return est
        prev = est
    relative = last_gap / scale if scale else math.inf
    raise QuadratureError(
        f"quadrature not converged at {_MAX_NODES} nodes; last estimate "
        f"{est:.6e}, last change {last_gap:.3e} ({relative:.3e} relative); "
        f"loosen quadrature.tol (now {tol:g})")


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

    # Node k of a level of m intervals sits at h (k - m/2), so every
    # level is exactly antisymmetric and the next one adds the odd k of 2m.
    m = start
    h = 2.0 * half / m
    terms = weighted(h * (np.arange(m + 1) - 0.5 * m))
    terms[[0, -1]] *= 0.5
    total, mass = float(np.sum(terms)), float(np.sum(np.abs(terms)))
    yield h * total, h * mass
    while 2 * m <= _MAX_NODES:
        m *= 2
        h *= 0.5
        terms = weighted(h * (np.arange(1, m, 2) - 0.5 * m))
        total += float(np.sum(terms))
        mass += float(np.sum(np.abs(terms)))
        yield h * total, h * mass


@functools.lru_cache(maxsize=9)  # one ladder: 8, 16, ..., 2,048 nodes
def _gauss_legendre(m: int) -> tuple:
    """Nodes and weights of the m-point Gauss-Legendre rule, read-only.

    Computed once per node count: leggauss solves an eigenproblem, which
    OpenBLAS would thread at every node count in use (`oracle._OneThread`).
    """
    with oracle_mod._OneThread():
        rule = np.polynomial.legendre.leggauss(m)
    for a in rule:
        a.flags.writeable = False
    return rule


def _tan_map_sums(f, gamma_v, theta_max, start):
    # Gauss-Legendre in theta, doubling the node count from `start`
    m = start
    while m <= _MAX_NODES:
        t, w = _gauss_legendre(m)
        theta = theta_max * t
        vals = np.asarray(f(gamma_v * np.tan(theta)), dtype=float)
        terms = (theta_max / math.pi) * w * vals
        yield float(np.sum(terms)), float(np.sum(np.abs(terms)))
        m *= 2


def _average(f, kind: str, gamma_v: float, quad: QuadratureSpec,
             halfwidth: float, abs_floor: float) -> float:
    """Average f(Omega) over the profile `kind` of HWHM gamma_v by the rule
    that the profile picks; f takes an array of Omega values.

      * homogeneous: f(0), no quadrature;
      * gaussian: the nested trapezoid rule on |Omega| <= 8 sigma, sigma =
        gamma_v / sqrt(2 ln 2): each level halves the step and evaluates f
        only at the new midpoints, and the error falls geometrically in
        (pole distance)/h for integrands with poles off the real axis;
      * lorentzian: Gauss-Legendre in theta, doubling, on |Omega| <=
        halfwidth * gamma_v (math.inf: the whole line), with Omega = gamma_v
        tan(theta), which makes the weighted integral a plain one of
        f(gamma_v tan theta)/pi; it converges geometrically for smooth f.

    The levels stop as `_converge` says, with abs_floor.
    """
    if kind == "homogeneous":
        return float(f(0.0))
    if kind == "gaussian":
        sums = _trapezoid_sums(f, gamma_v, quad.nodes)
    else:
        sums = _tan_map_sums(f, gamma_v, math.atan(halfwidth), quad.nodes)
    return _converge(sums, quad.tol, abs_floor)


def velocity_average(f, kind: str, gamma_v: float,
                     quad: QuadratureSpec | None = None) -> float:
    """Average f(Omega) over the velocity profile `kind` of HWHM gamma_v.

    f takes an array of Omega values. The rule is `_average`'s, over the
    whole line for a Lorentzian profile. kind and gamma_v follow the rules
    of NormalizedParams: gamma_v is 0 if and only if the kind is
    'homogeneous'.
    """
    gamma_v = _require_finite("gamma_v_tilde", gamma_v, 0.0)
    _check_profile(kind, gamma_v)
    return _average(f, kind, gamma_v, QuadratureSpec() if quad is None
                    else quad, math.inf, 0.0)


def averaged_population(params: NormalizedParams, order: int = 2) -> float:
    """Velocity-averaged dc upper population of the perturbative series.

    Lorentzian and homogeneous averages come out in closed form, as do
    Gaussian ones through the Faddeeva function.
    """
    if order not in (2, 3):
        raise ParameterError(f"order must be 2 or 3, got {order}")
    return _series(params, float(params.delta_tilde), 2, order)


def _class_values(params: NormalizedParams, ladder: oracle_mod.LadderSpec,
                  info: dict | None = None):
    """f(Omega) for `_average`: the dc upper population of each velocity
    class of an array of Omega values from its own `oracle.refine` ladder,
    less the order-3 series on a Lorentzian profile.

    Each call is one quadrature level, swept inward as the module docstring
    describes: each ladder starts two rungs below where its outer neighbour
    settled; the hint is local to the call, so every level starts its
    ladders afresh from 3. The deepest n_used goes to info["n_used"].
    """
    lorentzian = params.kind == "lorentzian"
    if info is None:
        info = {"n_used": 0}

    def level(points):
        omegas = np.asarray(points, dtype=float).reshape(-1)
        values = np.empty_like(omegas)
        start = 3
        for k in np.argsort(-np.abs(omegas), kind="stable"):
            om = float(omegas[k])
            rho, n_used = oracle_mod.refine(params, om, ladder, start=start)
            info["n_used"] = max(info["n_used"], n_used)
            start = n_used - 2
            values[k] = oracle_mod.dc_upper_population(rho)
            if lorentzian:
                values[k] -= float(upper_dc_series(params, om, 3))
        return values.reshape(np.shape(points))
    return level


def _pole_average(residues, poles, s: float) -> float:
    """2 Re sum_k residues[k] <1 / (Omega - poles[k])> over the Gaussian of
    s = sqrt(ln 2) / gamma_v, the poles as one array."""
    with np.errstate(all="ignore"):
        averages = _resolvent_average(poles, s)[0]
    return 2.0 * float((residues @ averages).real)


def _gaussian_oracle(params: NormalizedParams,
                     ladder: oracle_mod.LadderSpec, info: dict):
    """The Gaussian average of the steady state, exact in Omega, and its
    truncation in info["n_used"]; or None where the pole form is off.

    Each rung n_max = 3, 5, ..., ladder.n_cap averages the pole form of
    `oracle.pole_expansion` in closed form, 2 Re sum_k residues[k]
    <1 / (Omega - poles[k])> over its poles above the real axis, and the
    ladder (`oracle._climb`, the one `oracle.refine` climbs for a velocity
    class) stops when the average moves by less than ladder.refine_tol. The
    last expansion is then checked against direct solves at Omega = 0 and
    Omega = sigma. The form misses them by about 0.4 eps / |x| relative at
    weak drive (`oracle` module docstring); a gap above _POLE_GAP relative,
    or a NaN, gives None.
    """
    s = math.sqrt(math.log(2.0)) / params.gamma_v_tilde

    def rung(n_max):
        expansion = oracle_mod.pole_expansion(params, n_max)
        return _pole_average(*expansion, s), expansion
    value, (residues, poles), n_max = oracle_mod._climb(
        rung, 3, ladder, "Gaussian average")
    sigma = params.gamma_v_tilde / math.sqrt(2.0 * math.log(2.0))
    for omega in (0.0, sigma):
        direct = oracle_mod.solve_steady_state(
            oracle_mod.SteadyStateProblem(params, omega, n_max)).dc(2, 2)
        gap = abs(2.0 * np.sum(residues / (omega - poles)).real - direct)
        if not gap <= _POLE_GAP * abs(direct):  # a NaN fails too
            return None
    info["n_used"] = n_max
    return value


def oracle_average(params: NormalizedParams,
                   quad: QuadratureSpec = DEFAULT_ORACLE_QUAD,
                   ladder: oracle_mod.LadderSpec = oracle_mod.LadderSpec(), *,
                   return_info: bool = False):
    """Velocity-averaged dc upper population of the brute-force steady state.

    Homogeneous media solve a single velocity class. Gaussian profiles
    average the steady state's pole expansion in closed form over the whole
    line (`_gaussian_oracle`), with its truncation ladder under `ladder`.
    Where that form misses its direct solves, and on Lorentzian profiles,
    the solver is averaged by the rule of `_average` under quad, each node
    from its own `oracle.refine` ladder (`_class_values`). Lorentzian ones
    use the windowed difference scheme of the module docstring: the
    closed-form series through order 3 is the reference, and only the
    solver's deviation from it is integrated, over |Omega| <=
    domain_halfwidth * gamma_v (default 10 widths). info["n_used"] is the
    deepest truncation used.
    """
    info = {"n_used": 0}
    value = (_gaussian_oracle(params, ladder, info)
             if params.kind == "gaussian" else None)
    if value is None:
        reference = (_series(params, params.delta_tilde, 2, 3)
                     if params.kind == "lorentzian" else 0.0)
        value = reference + _average(
            _class_values(params, ladder, info), params.kind,
            params.gamma_v_tilde, quad, quad.domain_halfwidth,
            1e-3 * abs(reference))
    return (value, info) if return_info else value
