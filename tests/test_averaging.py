import math
from dataclasses import replace
from decimal import Decimal
import random
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from tpa import analytics, averaging, oracle
from tpa.averaging import (DEFAULT_ORACLE_QUAD, QuadratureError,
                           QuadratureSpec, averaged_population,
                           oracle_average, velocity_average)
from tpa.core import NormalizedParams, ParameterError
from tpa.perturbative import (_WEIDEMAN_A, _WEIDEMAN_L, _faddeeva_moments,
                              _resolvent_average, _series, _wofz,
                              upper_dc_series)

from conftest import fresh_python, reference_system, rel_err


def test_quadrature_spec_validation():
    QuadratureSpec()
    with pytest.raises(ParameterError):
        QuadratureSpec(nodes=4)
    # a start above half the 2,048-node cap leaves no second level
    QuadratureSpec(nodes=1024)
    with pytest.raises(ParameterError, match="nodes"):
        QuadratureSpec(nodes=1025)
    with pytest.raises(ParameterError):
        QuadratureSpec(tol=0.0)
    with pytest.raises(ParameterError):
        QuadratureSpec(domain_halfwidth=0.0)


@pytest.mark.parametrize("setting", [
    {"nodes": 32.5}, {"nodes": 32.0}, {"tol": math.inf},
    *({"nodes": bad} for bad in (True, 5.0, "5", None, 10 ** 400,
                                 -10 ** 5000)),
    *({name: bad} for name in ("tol", "domain_halfwidth")
      for bad in (True, "x", "1e-6", b"1e-6", None))])
def test_quadrature_spec_takes_integer_nodes_and_finite_tol(setting):
    # each refusal names its field, and never prints a long integer
    (name, _), = setting.items()
    with pytest.raises(ParameterError, match=f"^{name} must be") as error:
        QuadratureSpec(**setting)
    assert len(str(error.value)) <= 100


def test_velocity_average_homogeneous_passthrough():
    got = velocity_average(lambda om: 7.0 + om, "homogeneous", 0.0)
    assert got == 7.0


def test_velocity_average_rejects_unknown_kind():
    with pytest.raises(ParameterError, match="kind"):
        velocity_average(lambda om: 1.0 + 0.0 * om, "voigt", 1.0)


@pytest.mark.parametrize("kind, widths", [
    ("homogeneous", (1e-300, 1.0, -1.0)),
    ("lorentzian", (0.0, -0.0, -1.0, math.inf, math.nan, True, "x", "2.0",
                    None)),
    ("gaussian", (0.0, -1.0, math.inf, math.nan, True, "x", b"2.0", None)),
])
def test_velocity_average_rejects_width_contradicting_kind(kind, widths):
    # the rule of NormalizedParams: gamma_v is 0 if and only if homogeneous,
    # and a number, never negative or non-finite
    for gv in widths:
        with pytest.raises(ParameterError, match="gamma_v_tilde"):
            velocity_average(lambda om: 1.0 + 0.0 * om, kind, gv)
        with pytest.raises(ParameterError, match="gamma_v_tilde"):
            NormalizedParams.build(x=1e-3, gamma_v_tilde=gv, kind=kind)


@pytest.mark.parametrize("kind", ["lorentzian", "gaussian"])
def test_velocity_average_takes_the_converted_width(kind):
    # the number rule converts the width, and the average uses what it
    # returned: a Decimal, which float() reads, averages as its float
    f = lambda om: 1.0 / (1.0 + om * om)
    assert (velocity_average(f, kind, Decimal("2.0"))
            == velocity_average(f, kind, 2.0))


def test_velocity_average_preserves_unit_mass():
    one = lambda om: 1.0
    assert velocity_average(one, "lorentzian", 2.0) == pytest.approx(
        1.0, rel=1e-12)
    assert velocity_average(one, "gaussian", 2.0) == pytest.approx(
        1.0, rel=1e-12)


def test_velocity_average_kills_odd_kernels():
    odd = lambda om: om / (1.0 + om ** 2)
    assert abs(velocity_average(odd, "lorentzian", 1.5)) < 1e-12
    assert abs(velocity_average(odd, "gaussian", 1.5)) < 1e-12


def test_velocity_average_reproduces_closed_moments():
    # the residues at the shifted pole: with g = 1 + gamma_v and
    # w = g^2 + delta^2, the averages are g / w = 0.3 and gamma_v delta / w
    # = 0.2
    gv, delta = 2.0, 1.0
    got1 = velocity_average(lambda om: 1.0 / (1.0 + (delta - om) ** 2),
                            "lorentzian", gv)
    assert abs(got1 - 0.3) <= 1e-8
    got2 = velocity_average(lambda om: om / (1.0 + (delta - om) ** 2),
                            "lorentzian", gv)
    assert abs(got2 - 0.2) <= 1e-8


def test_wide_gaussian_node_ladder_exhausts():
    spec = QuadratureSpec(tol=1e-10)
    # the message names the one setting that can help
    with pytest.raises(QuadratureError,
                       match=r"; loosen quadrature\.tol \(now 1e-10\)$"):
        velocity_average(lambda om: 1.0 / (1.0 + om ** 2), "gaussian", 100.0,
                         spec)


def test_closed_averages_match_profile_forms(rng):
    # the closed Lorentzian averages against quadrature of the per-velocity
    # series, order 2 and the order-3 term each on their own
    draws = []
    for _ in range(10):
        x = float(rng.uniform(1e-4, 1e-2)) * float(rng.choice([-1.0, 1.0]))
        gv = float(rng.uniform(0.0, 5.0))
        draws.append(NormalizedParams.build(
            delta_tilde=float(rng.uniform(-3.0, 3.0)),
            a_ratio=float(rng.uniform(0.0, 1.5)),
            mu=float(rng.uniform(0.5, 2.0)),
            phi_tilde=1.0, x=x, gamma_v_tilde=gv,
            kind="homogeneous" if gv == 0.0 else "lorentzian"))
    for p in draws:
        quad2 = velocity_average(lambda om: upper_dc_series(p, om, 2),
                                 p.kind, p.gamma_v_tilde)
        quad3 = velocity_average(
            lambda om: upper_dc_series(p, om, 3) - upper_dc_series(p, om, 2),
            p.kind, p.gamma_v_tilde)
        closed2 = averaged_population(p, order=2)
        assert rel_err(quad2, closed2) <= 1e-8
        assert rel_err(quad3, averaged_population(p, order=3) - closed2) <= 1e-8


def test_closed_averages_reject_gaussian_profiles():
    p = NormalizedParams.build(delta_tilde=0.5, a_ratio=1.0, x=1e-3,
                               gamma_v_tilde=1.0, kind="gaussian")
    with pytest.raises(ParameterError):
        averaged_population(p, order=4)
    # a gaussian profile never falls back to the Lorentzian closed form
    q = replace(p, kind="lorentzian")
    lorentz = (analytics.n2(q, q.delta_tilde)
               + analytics.n3(q, q.delta_tilde))
    assert rel_err(averaged_population(p, order=3), lorentz) > 1e-2
    # the gaussian series average itself is handled in closed form
    assert averaged_population(p, order=3) > 0.0


def test_gaussian_closed_average_matches_quadrature():
    quad = QuadratureSpec(tol=1e-7)
    cases = ((0.0, 1.0, 1.0, 2), (1.0, 0.5, 1.3, 3),
             (-0.7, 1.0, math.sqrt(2.0), 3))
    for gv in (0.3, 1.0, 2.0, 5.0, 10.0):
        for delta, a, mu, order in cases:
            p = NormalizedParams.build(delta_tilde=delta, a_ratio=a, mu=mu,
                                       phi_tilde=1.0, delta_big_tilde=1e3,
                                       gamma_v_tilde=gv, kind="gaussian")
            closed = averaged_population(p, order=order)
            quadv = velocity_average(
                lambda om: upper_dc_series(p, om, order), p.kind,
                p.gamma_v_tilde, quad)
            assert rel_err(quadv, closed) <= 1e-8, (gv, delta, a, mu, order)


def test_gaussian_average_narrow_width_limit():
    kw = dict(delta_tilde=0.8, a_ratio=0.6, mu=1.3, phi_tilde=1.0,
              delta_big_tilde=1e3)
    narrow = NormalizedParams.build(gamma_v_tilde=1e-5, kind="gaussian", **kw)
    still = NormalizedParams.build(**kw)
    for order in (2, 3):
        assert rel_err(averaged_population(narrow, order=order),
                       upper_dc_series(still, 0.0, order=order)) <= 1e-8


def _faddeeva_reference(delta, gamma_v):
    """The three Faddeeva moments from mpmath, at 80 digits.

    w' = -2 zeta w + 2i/sqrt(pi) and w'' = -2 w - 2 zeta w' each lose about
    2 log10|zeta| digits to cancellation, 46 in all at gamma_v = 1e-10;
    80 digits leave more than 30.
    """
    with mpmath.workdps(80):
        sigma = mpmath.mpf(gamma_v) / mpmath.sqrt(2 * mpmath.log(2))
        zeta = (mpmath.mpf(delta) + 1j) / (sigma * mpmath.sqrt(2))
        w = mpmath.exp(-zeta ** 2) * mpmath.erfc(-1j * zeta)
        w_prime = -2 * zeta * w + 2j / mpmath.sqrt(mpmath.pi)
        w_second = -2 * w - 2 * zeta * w_prime
        scale = mpmath.sqrt(mpmath.pi / 2) / sigma
        return (complex(scale * w),
                complex(-1j * scale / (sigma * mpmath.sqrt(2)) * w_prime),
                complex(-scale / (4 * sigma ** 2) * w_second))


@pytest.mark.parametrize("delta", [0.0, 0.3, -1.7, 5.0, -20.0])
def test_faddeeva_moments_match_mpmath(delta):
    # from the homogeneous limit, where |zeta| ~ 1/gamma_v is huge, to
    # widths of 100 where zeta sits near the real axis. The third moment
    # is read at delta = 0, where it holds 1e-12. Elsewhere, below
    # |zeta| = 6, w'' inherits the ~1e-15 relative error of w times up to
    # |zeta|^4: 5.4e-13 at delta = -20, gamma_v = 3.2 (|zeta| = 5.3)
    third_tol = 1e-12 if delta == 0.0 else 1e-11
    for gv in np.geomspace(1e-10, 100.0, 25):
        got = _faddeeva_moments(delta, float(gv), 3)
        want = _faddeeva_reference(delta, float(gv))
        assert got[:2] == _faddeeva_moments(delta, float(gv))
        for g, w, tol in zip(got, want, (1e-12, 1e-12, third_tol)):
            assert rel_err(g, w) <= tol, (gv, g, w)


def _w_reference(z):
    """The Faddeeva function w(z) from mpmath, at 40 digits."""
    with mpmath.workdps(40):
        z = mpmath.mpc(z.real, z.imag)
        return complex(mpmath.exp(-z * z) * mpmath.erfc(-1j * z))


def test_wofz_matches_mpmath():
    # at the zeta = (delta + i) s of the Gaussian moments, s = sqrt(ln 2) /
    # gamma_v, on both sides of |zeta| = 6, and near the real axis
    scales = math.sqrt(math.log(2.0)) / np.geomspace(1e-3, 1e3, 13)
    points = [(sign * d + 1j) * s for s in scales
              for d in np.geomspace(1e-3, 1e3, 13) for sign in (1.0, -1.0)]
    points += [complex(x, y) for x in np.linspace(-8.0, 8.0, 17)
               for y in (1e-12, 1e-6, 1e-2)]
    inside = [abs(z) < 6.0 for z in points]
    assert any(inside) and not all(inside)
    for z in points:
        assert rel_err(_wofz(z), _w_reference(z)) <= 2e-15, z


def test_wofz_coefficients_are_weidemans():
    # Weideman's program cef: a 0, then exp(-t^2) (L^2 + t^2) at
    # t = L tan(k pi / 4N), |k| < 2N; entries 1 to N of its FFT are
    # a_1 ... a_N
    n = len(_WEIDEMAN_A)
    m = 2 * n
    scale = math.sqrt(n / math.sqrt(2.0))
    assert _WEIDEMAN_L == scale
    t = scale * np.tan(np.arange(-m + 1, m) * np.pi / m / 2.0)
    f = np.concatenate(([0.0], np.exp(-t * t) * (scale * scale + t * t)))
    want = (np.fft.fft(np.fft.fftshift(f)).real / (2 * m))[n:0:-1]
    gap = np.max(np.abs(np.array(_WEIDEMAN_A) - want))
    assert gap <= 4.0 * math.ulp(np.max(np.abs(want)))


_PROFILE_DRAWS = dict(a=st.floats(0.0, 2.0), mu=st.floats(0.3, 2.5),
                      phi=st.floats(0.1, 3.0), d=st.floats(-10.0, 10.0))


@given(kind=st.sampled_from(["lorentzian", "gaussian"]),
       log_gv=st.floats(-10.0, -6.0), order=st.sampled_from([2, 3]),
       **_PROFILE_DRAWS)
def test_averaged_population_continuous_at_zero_width(kind, log_gv, a, mu,
                                                      phi, d, order):
    # every closed average tends to the homogeneous value as gamma_v -> 0+:
    # a Lorentzian one linearly, a Gaussian one quadratically in gamma_v
    kw = dict(delta_tilde=d, a_ratio=a, mu=mu, phi_tilde=phi,
              delta_big_tilde=1e3)
    gv = 10.0 ** log_gv
    narrow = NormalizedParams.build(gamma_v_tilde=gv, kind=kind, **kw)
    still = NormalizedParams.build(**kw)
    assert rel_err(averaged_population(narrow, order=order),
                   averaged_population(still, order=order)) <= 10.0 * gv + 1e-12


@given(kind=st.sampled_from(["lorentzian", "gaussian"]),
       gv=st.floats(0.05, 20.0), **_PROFILE_DRAWS)
def test_averaged_orders_separate_under_detuning_flip(kind, gv, a, mu, phi,
                                                      d):
    # Delta -> -Delta: the order-2 average is even and the order-3 term odd,
    # so the order-3 averages at +-Delta sum to twice the order-2 one
    kw = dict(delta_tilde=d, a_ratio=a, mu=mu, phi_tilde=phi,
              gamma_v_tilde=gv, kind=kind)
    plus = NormalizedParams.build(delta_big_tilde=1e3, **kw)
    minus = NormalizedParams.build(delta_big_tilde=-1e3, **kw)
    two = [averaged_population(p, order=2) for p in (plus, minus)]
    three = [averaged_population(p, order=3) for p in (plus, minus)]
    assert rel_err(two[1], two[0]) <= 1e-14
    assert rel_err(0.5 * (three[0] + three[1]), two[0]) <= 1e-14


def test_lorentzian_series_average_closes():
    p = NormalizedParams.build(delta_tilde=1.0, a_ratio=1.0,
                               mu=math.sqrt(2.0), phi_tilde=1.0,
                               delta_big_tilde=1e3, gamma_v_tilde=2.0)
    quadv = velocity_average(lambda om: upper_dc_series(p, om, 3),
                             p.kind, p.gamma_v_tilde)
    assert rel_err(quadv, averaged_population(p, order=3)) <= 1e-8


@given(kind=st.sampled_from(["lorentzian", "gaussian"]),
       gv=st.floats(0.05, 20.0), a=st.floats(0.1, 10.0),
       phi=st.floats(0.1, 3.0), mu=st.floats(0.1, 3.0),
       d=st.floats(-10.0, 10.0), order=st.sampled_from([2, 3]))
def test_averaged_population_invariant_under_beam_exchange(kind, gv, a, phi,
                                                           mu, d, order):
    # relabelling the beams (phi, A) -> (A phi, 1/A); the Gaussian average
    # goes through the Faddeeva moments, the Lorentzian one through residues
    kw = dict(delta_tilde=d, gamma_v_tilde=gv, mu=mu, delta_big_tilde=1e3,
              kind=kind)
    p = NormalizedParams.build(a_ratio=a, phi_tilde=phi, **kw)
    q = NormalizedParams.build(a_ratio=1.0 / a, phi_tilde=a * phi, **kw)
    assert rel_err(averaged_population(q, order=order),
                   averaged_population(p, order=order)) < 1e-12


def _detunings(lo, hi):
    # about one float in a thousand has a square that C pow(), behind a
    # float's ** 2, rounds otherwise than the product d * d; mixing such
    # detunings in lets the property see a ** 2 on the float path
    rng = random.Random(0)
    draws = (rng.uniform(lo, hi) for _ in range(20_000))
    rounded = [d for d in draws if d ** 2 != d * d][:8]
    return st.floats(lo, hi) | (st.sampled_from(rounded) if rounded
                                else st.nothing())


# |zeta| = sqrt(1 + delta^2) sqrt(ln 2) / gamma_v: narrow profiles put every
# detuning beyond |zeta| = 6, where w' is summed asymptotically, and wide ones
# with small detunings keep it below, where the identity for w' is used.
_ZETA_SIDES = {"asymptotic": (st.floats(1e-4, 0.1), _detunings(-50.0, 50.0)),
               "identity": (st.floats(1.0, 100.0), _detunings(-3.0, 3.0))}


@pytest.mark.parametrize("side", sorted(_ZETA_SIDES))
@pytest.mark.parametrize("order", [2, 3])
@settings(max_examples=60)
@given(data=st.data(), a=st.floats(0.0, 2.0), mu=st.floats(0.3, 2.5),
       x=st.floats(1e-6, 1e-1) | st.floats(-1e-1, -1e-6))
def test_line_evaluation_is_bit_identical(side, order, data, a, mu, x):
    # the detuning-taking average rounds exactly as a fresh parameter set
    # per detuning, and the closed lines give a float
    widths, detunings = _ZETA_SIDES[side]
    gv, d = data.draw(widths), data.draw(detunings)
    zeta = math.hypot(1.0, d) * math.sqrt(math.log(2.0)) / gv
    assert (zeta >= 6.0) == (side == "asymptotic")
    p = NormalizedParams.build(a_ratio=a, mu=mu, x=x, gamma_v_tilde=gv,
                               kind="gaussian")
    assert _series(p, d, 2, order) == averaged_population(
        replace(p, delta_tilde=d), order)
    for profile in (analytics.n2, analytics.n3):
        assert type(profile(p, d)) is float


def test_oracle_average_homogeneous_is_single_solve():
    p = NormalizedParams.build(delta_tilde=0.5, a_ratio=1.0, mu=1.0,
                               phi_tilde=1.0, delta_big_tilde=300.0)
    value, info = oracle_average(p, return_info=True)
    rho, n_used = oracle.refine(p, 0.0)
    assert value == pytest.approx(oracle.dc_upper_population(rho), rel=1e-14)
    assert info == {"n_used": n_used}


@given(delta=st.floats(-3.0, 3.0), a=st.floats(0.3, 3.0),
       mu=st.floats(0.5, 2.0), phi=st.floats(0.3, 2.0),
       dbig=st.floats(100.0, 2000.0))
def test_oracle_average_homogeneous_invariant_under_beam_exchange(
        delta, a, mu, phi, dbig):
    # (phi, A) -> (A phi, 1/A) mirrors the standing wave, z -> -z, which
    # maps each truncation onto itself: both ladders solve mirror systems
    kw = dict(delta_tilde=delta, mu=mu, delta_big_tilde=dbig)
    p = NormalizedParams.build(a_ratio=a, phi_tilde=phi, **kw)
    q = NormalizedParams.build(a_ratio=1.0 / a, phi_tilde=a * phi, **kw)
    assert rel_err(oracle_average(q), oracle_average(p)) < 1e-10


@pytest.mark.parametrize("setting", [{"n_cap": 5.5}, {"n_cap": 41.0},
                                     {"refine_tol": math.inf}])
def test_oracle_average_rejects_bad_ladder_settings(monkeypatch, setting):
    # a bad setting never makes a LadderSpec, and the keywords that carried
    # the settings before raise too, both before any solve
    def no_solve(problem):
        raise AssertionError("solved before the settings were checked")
    monkeypatch.setattr(oracle, "solve_steady_state", no_solve)
    for kind, gv in (("homogeneous", 0.0), ("lorentzian", 2.0),
                     ("gaussian", 2.0)):
        p = NormalizedParams.build(delta_tilde=0.5, a_ratio=1.0,
                                   delta_big_tilde=100.0, gamma_v_tilde=gv,
                                   kind=kind)
        with pytest.raises(ParameterError):
            oracle_average(p, ladder=oracle.LadderSpec(**setting))
        with pytest.raises(TypeError, match="unexpected keyword"):
            oracle_average(p, **setting)


def test_oracle_average_lorentzian_matches_series():
    p = NormalizedParams.build(delta_tilde=1.0, a_ratio=1.0, mu=1.0,
                               phi_tilde=1.0, delta_big_tilde=1e3,
                               gamma_v_tilde=2.0)
    value, info = oracle_average(p, return_info=True)
    closed = averaged_population(p, order=3)
    assert rel_err(value, closed) < 1e-3
    # the closed series through order 3 plus the quadrature of the
    # solver's deviation from it, bit for bit
    reference = averaging._series(p, p.delta_tilde, 2, 3)
    assert reference == pytest.approx(closed, rel=1e-12)
    assert value == reference + averaging._average(
        averaging._class_values(p, oracle.LadderSpec()), p.kind,
        p.gamma_v_tilde, DEFAULT_ORACLE_QUAD, 10.0, 1e-3 * abs(reference))
    assert set(info) == {"n_used"}
    assert info["n_used"] >= 3


def test_gauss_legendre_rules_are_cached_read_only(monkeypatch):
    # the Lorentzian rule's nodes and weights are leggauss's, bit for bit,
    # shared read-only, and computed once per node count
    for m in (8, 32, 2048):
        rule = averaging._gauss_legendre(m)
        for got, want in zip(rule, np.polynomial.legendre.leggauss(m)):
            assert np.array_equal(got, want)
            assert not got.flags.writeable
    computed = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda m: computed.append(m) or leggauss(m))
    averaging._gauss_legendre.cache_clear()
    p = NormalizedParams.build(delta_tilde=1.0, a_ratio=1.0, mu=1.0,
                               phi_tilde=1.0, delta_big_tilde=1e3,
                               gamma_v_tilde=2.0)
    assert oracle_average(p) == oracle_average(p)
    # the default first level has 32 nodes, and a test needs two levels
    assert computed == [32 * 2 ** k for k in range(len(computed))]
    assert len(computed) >= 2


# One strong_lorentz-physics Lorentzian average right after a warm-up one,
# in a fresh process; prints its process CPU time over its wall time. The
# warm-up's first Gauss-Legendre rules run on one BLAS thread, so no helper
# thread they woke still spins while the timed average runs.
_CPU_PER_WALL = """
import time
from tpa.averaging import oracle_average
from tpa.core import NormalizedParams

p = NormalizedParams.build(delta_tilde=0.5, a_ratio=1.0, mu=1.2,
                           phi_tilde=3.0, delta_big_tilde=100.0,
                           gamma_v_tilde=2.0)
oracle_average(p)
wall, cpu = time.perf_counter(), time.process_time()
oracle_average(p)
print((time.process_time() - cpu) / (time.perf_counter() - wall))
"""


def test_strong_drive_lorentzian_average_runs_on_one_core():
    # every LAPACK call of a warm average stays below OpenBLAS's threading
    # threshold: a threaded call leaves helper threads spinning on the other
    # cores, which process CPU time counts (about 1.9x the wall time when
    # the 104- to 168-unknown Schur complements were factorized whole)
    done = fresh_python("-c", _CPU_PER_WALL)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) <= 1.25


def test_oracle_average_sweep_settles_each_node_at_or_past_its_fresh_ladder(
        monkeypatch):
    # each quadrature level is swept inward with ladder starts carried from
    # node to node; against the ladder from n_max = 3, every node settles at
    # the same rung with the identical value, or deeper
    p = NormalizedParams.build(delta_tilde=0.5, a_ratio=1.0, mu=1.2,
                               phi_tilde=3.0, delta_big_tilde=100.0,
                               gamma_v_tilde=2.0)
    quad = QuadratureSpec(nodes=8, domain_halfwidth=10.0, tol=1e-3)
    calls = []
    refine = oracle.refine

    def recorded(params, omega, ladder, start=3):
        rho, n_used = refine(params, omega, ladder, start=start)
        calls.append((omega, start, n_used, oracle.dc_upper_population(rho)))
        return rho, n_used
    monkeypatch.setattr(oracle, "refine", recorded)
    value, info = oracle_average(p, quad, return_info=True)
    monkeypatch.undo()
    assert len(calls) in (8 * 3, 8 * 7, 8 * 15)
    level_starts = (0, 8, 24, 56)
    deeper = 0
    for k, (omega, start, n_used, dc) in enumerate(calls):
        if k in level_starts:
            assert start == 3
        else:
            assert abs(omega) <= abs(calls[k - 1][0])
            assert start == max(3, calls[k - 1][2] - 2)
        rho, fresh = oracle.refine(p, omega)
        assert n_used >= fresh
        if n_used == fresh:
            assert dc == oracle.dc_upper_population(rho)
        deeper += n_used > fresh
    assert deeper < len(calls)
    assert info["n_used"] == max(c[2] for c in calls)
    # the average over fresh ladders: deeper nodes move it only in roundoff
    monkeypatch.setattr(oracle, "refine",
                        lambda params, omega, ladder, start=3:
                        refine(params, omega, ladder))
    assert rel_err(value, oracle_average(p, quad)) < 1e-12


@pytest.mark.parametrize("kind, gamma_v, nodes", [("lorentzian", 2.0, 8),
                                                   ("gaussian", 0.5, 16)])
def test_oracle_average_folds_each_mirror_pair_into_one_ladder(
        monkeypatch, kind, gamma_v, nodes):
    # at A = 1 every level is exactly antisymmetric and the inward sweep
    # meets each mirror pair back to back, so refine solves one ladder per
    # pair (and one at Omega = 0); the average is the one, bit for bit, with
    # the mirror memo cleared before every refine call
    p = NormalizedParams.build(delta_tilde=0.5, a_ratio=1.0, mu=1.2,
                               phi_tilde=1.0, delta_big_tilde=100.0,
                               gamma_v_tilde=gamma_v, kind=kind)
    quad = QuadratureSpec(nodes=nodes, tol=1e-6)
    solves, calls = [], []  # calls: (omega, whether it solved)
    refine, solve = oracle.refine, oracle.solve_steady_state

    def average():
        # a Gaussian oracle_average at this drive reads no velocity class,
        # so its per-class ladders are those of the reference the tests hold
        # it to, and of its weak-drive quadrature
        if kind == "lorentzian":
            return oracle_average(p, quad)
        return velocity_average(averaging._class_values(
            p, oracle.LadderSpec()), kind, gamma_v, quad)

    def recorded(params, omega, ladder, start=3):
        before = len(solves)
        result = refine(params, omega, ladder, start=start)
        calls.append((omega, len(solves) > before))
        return result
    monkeypatch.setattr(oracle, "solve_steady_state",
                        lambda problem: solves.append(problem)
                        or solve(problem))
    monkeypatch.setattr(oracle, "refine", recorded)
    folded = average()
    if kind == "lorentzian":
        sizes = [nodes * 2 ** k for k in range(8)]
    else:
        sizes = [nodes + 1] + [nodes * 2 ** k for k in range(7)]
    levels = 0
    while calls:
        level, calls = calls[:sizes[levels]], calls[sizes[levels]:]
        omegas = np.sort([omega for omega, _ in level])
        assert len(level) == sizes[levels]
        assert np.array_equal(omegas, -omegas[::-1])
        assert sum(solved for _, solved in level) == (len(level) + 1) // 2
        levels += 1
    assert levels >= 2

    def unfolded(params, omega, ladder, start=3):
        oracle._mirror_memo = None
        return refine(params, omega, ladder, start=start)
    monkeypatch.setattr(oracle, "refine", unfolded)
    assert average() == folded


def test_oracle_average_gaussian_matches_series():
    p = NormalizedParams.build(delta_tilde=1.0, a_ratio=1.0, mu=1.0,
                               phi_tilde=1.0, delta_big_tilde=1e3,
                               gamma_v_tilde=0.5, kind="gaussian")
    assert rel_err(oracle_average(p), averaged_population(p, order=3)) < 1e-3


def test_oracle_average_gaussian_walks_the_pole_ladder(monkeypatch):
    # one pole expansion per rung n_max = 3, 5, ..., n_used and no per-class
    # ladder; the last rung checked by exactly two direct solves, at
    # Omega = 0 and sigma; the value is the closed average of each pole
    p = NormalizedParams.build(delta_tilde=0.5, a_ratio=1.0, mu=1.2,
                               phi_tilde=1.0, delta_big_tilde=1e3,
                               gamma_v_tilde=0.5, kind="gaussian")
    rungs, solves = [], []
    expansion, solve = oracle.pole_expansion, oracle.solve_steady_state

    def no_refine(*args, **kwargs):
        raise AssertionError("a Gaussian average walked a per-class ladder")
    monkeypatch.setattr(oracle, "refine", no_refine)
    monkeypatch.setattr(oracle, "pole_expansion", lambda params, n_max:
                        rungs.append(expansion(params, n_max)) or rungs[-1])
    monkeypatch.setattr(oracle, "solve_steady_state",
                        lambda problem: solves.append(problem)
                        or solve(problem))
    value, info = oracle_average(p, QuadratureSpec(nodes=8, tol=1e-3),
                                 return_info=True)
    n_used = info["n_used"]
    assert n_used == 7  # the weak_gauss physics settles at 7
    assert [poles.size for _, poles in rungs] == [
        (9 * n - 1) // 2 for n in range(3, n_used + 1, 2)]
    sigma = p.gamma_v_tilde / math.sqrt(2.0 * math.log(2.0))
    assert [(q.omega, q.n_max) for q in solves] == [(0.0, n_used),
                                                    (sigma, n_used)]
    assert info == {"n_used": n_used}
    # the pole route reads no quadrature block: the default gives the same
    # bits
    monkeypatch.undo()
    assert oracle_average(p) == value
    # each pole above the axis averaged as i sqrt(pi) s w(p s), and its
    # conjugate below the axis as the conjugate: twice the real part
    residues, poles = rungs[-1]
    assert poles.imag.min() >= 2.0 / n_used * (1.0 - 1e-8)
    s = math.sqrt(math.log(2.0)) / p.gamma_v_tilde
    terms = [r * 1j * math.sqrt(math.pi) * s * _w_reference(q * s)
             for r, q in zip(residues.tolist(), poles.tolist())]
    assert rel_err(value, 2.0 * sum(terms).real) < 1e-12
    # and a pole form that misses the direct solves falls back to the
    # per-class quadrature under the quadrature block, bit for bit, with
    # the per-class n_used
    refined = []
    refine = oracle.refine
    monkeypatch.setattr(oracle, "refine", lambda *args, **kwargs:
                        refined.append(args) or refine(*args, **kwargs))
    monkeypatch.setattr(oracle, "pole_expansion", lambda params, n_max: (
        lambda r, q: (r * (1.0 + 1e-8), q))(*expansion(params, n_max)))
    value, info = oracle_average(p, return_info=True)
    assert refined
    monkeypatch.undo()
    per_class = {"n_used": 0}
    assert value == averaging._average(
        averaging._class_values(p, oracle.LadderSpec(), per_class), p.kind,
        p.gamma_v_tilde, DEFAULT_ORACLE_QUAD, 10.0, 0.0)
    assert info == per_class and per_class["n_used"] >= 3


def test_gaussian_oracle_ladder_exhaustion_names_its_knobs():
    # a strong drive that the rungs up to n_max = 5 cannot settle
    p = NormalizedParams.build(delta_tilde=0.5, a_ratio=1.0, mu=1.2,
                               phi_tilde=3.0, delta_big_tilde=100.0,
                               gamma_v_tilde=2.0, kind="gaussian")
    with pytest.raises(oracle.TruncationError,
                       match=r"^Gaussian average not settled .* n_max = 5; "
                             r"last change .*oracle\.n_cap \(now 5\) or "
                             r"loosen oracle\.refine_tol$"):
        oracle_average(p, ladder=oracle.LadderSpec(n_cap=5))


def test_wide_gaussian_oracle_average_matches_a_trapezoid_of_direct_solves():
    # gamma_v = 100 exhausted the 2,048-node trapezoid of per-class ladders;
    # the pole average settles at n_max = 5. A trapezoid of dense direct
    # solves at that truncation agrees: step 1/5 on |Omega| <= 8 sigma
    # (6,801 nodes), folded onto
    # Omega >= 0, as the dc population is even in Omega at A = 1, and on
    # the pumped sector, the one the pump reaches; a step of 1/10 moves the
    # sum by 3e-14 (relative)
    p = NormalizedParams.build(delta_tilde=0.5, a_ratio=1.0, mu=1.2,
                               phi_tilde=1.0, delta_big_tilde=1e3,
                               gamma_v_tilde=100.0, kind="gaussian")
    value, info = oracle_average(p, return_info=True)
    assert info["n_used"] == 5
    assert value == pytest.approx(3.7799e-5, rel=1e-4)
    matrix, rhs = reference_system(oracle.SteadyStateProblem(p, 0.0, 5))
    n = np.tile(np.arange(-5, 6), 9)
    odd = np.repeat([(i, j) in {(0, 1), (1, 0), (0, 2), (2, 0)}
                     for i in range(3) for j in range(3)], 11)
    pumped = np.flatnonzero(odd == (n % 2 == 1))
    matrix, rhs = matrix[np.ix_(pumped, pumped)], rhs[pumped, None]
    advection = np.diag(-0.5j * n[pumped])
    upper = int(np.flatnonzero(pumped == 8 * 11 + 5)[0])  # c(2, 2, 0)
    sigma = p.gamma_v_tilde / math.sqrt(2.0 * math.log(2.0))
    omegas = np.linspace(0.0, 8.0 * sigma, 3401)
    weights = np.exp(-0.5 * (omegas / sigma) ** 2)
    weights[[0, -1]] *= 0.5
    weights *= 2.0 * omegas[1] / (sigma * math.sqrt(2.0 * math.pi))
    total = 0.0
    for chunk in np.array_split(np.arange(omegas.size), 20):
        systems = matrix + omegas[chunk, None, None] * advection
        dc = np.linalg.solve(systems, np.broadcast_to(
            rhs, (chunk.size,) + rhs.shape))[:, upper, 0]
        total += float(np.sum(weights[chunk] * dc.real))
    assert rel_err(value, total) < 1e-11


@settings(max_examples=50)
@given(delta=st.floats(-2.0, 2.0), phi=st.floats(0.3, 5.0),
       log_dbig=st.floats(2.0, 3.0), log_gv=st.floats(-1.0, 1.0),
       a=st.floats(0.0, 1.2), mu=st.floats(0.6, 1.6))
def test_gaussian_pole_average_matches_per_class_quadrature(
        delta, phi, log_dbig, log_gv, a, mu):
    # the closed average of the pole expansion against the trapezoid rule
    # at tol 1e-10 over velocity classes that each climb their own ladder.
    # At strong drive that reference can fail itself, its 2,048 nodes short
    # of 1e-10 on wide profiles or a class ladder unsettled at n_max = 41;
    # there the pole average, checked against its direct solves, must still
    # give a population
    p = NormalizedParams.build(delta_tilde=delta, a_ratio=a, mu=mu,
                               phi_tilde=phi, delta_big_tilde=10.0 ** log_dbig,
                               gamma_v_tilde=10.0 ** log_gv, kind="gaussian")
    got = oracle_average(p)
    try:
        want = velocity_average(
            averaging._class_values(p, oracle.LadderSpec()), p.kind,
            p.gamma_v_tilde, QuadratureSpec(tol=1e-10))
    except (QuadratureError, oracle.TruncationError) as exc:
        event(f"per-class reference raised {type(exc).__name__}")
        assert 0.0 < got < 1.0
        return
    event("compared")
    assert rel_err(got, want) <= 1e-9


_WEAK_PHI = (0.0316, 1e-2, 1e-4, 1e-8)


@pytest.mark.parametrize("phi, a", [
    *(pytest.param(phi, 1.0, id=str(phi)) for phi in _WEAK_PHI),
    *(pytest.param(phi, 0.1, id=f"{phi}-a0.1") for phi in _WEAK_PHI)])
def test_weak_drive_gaussian_oracle_average_is_a_population(phi, a):
    # x ~ 1e-6, 1e-7, 1e-11, 1e-19: the pole terms cancel to the O(x^2)
    # population, and the average still meets the per-class quadrature on
    # both sides of the hand-over to it. x ~ 1e-6 takes the pole form at
    # both beam ratios and the weaker drives the quadrature, to which a
    # weak second beam (A = 0.1) hands over about ten times sooner as x
    # falls
    p = NormalizedParams.build(delta_tilde=0.5, a_ratio=a, mu=1.2,
                               phi_tilde=phi, delta_big_tilde=1e3,
                               gamma_v_tilde=2.0, kind="gaussian")
    got = oracle_average(p)
    want = velocity_average(
        averaging._class_values(p, oracle.LadderSpec()), p.kind,
        p.gamma_v_tilde, QuadratureSpec(tol=1e-10))
    assert got > 0.0
    assert rel_err(got, want) <= 1e-9


def test_oracle_average_converges_on_wide_gaussian():
    # at gamma_v = 10 the line is narrow next to the profile, and the pole
    # average still meets the closed series
    p = NormalizedParams.build(delta_tilde=0.5, a_ratio=1.0, mu=1.2,
                               phi_tilde=1.0, delta_big_tilde=1e3,
                               gamma_v_tilde=10.0, kind="gaussian")
    assert rel_err(oracle_average(p), averaged_population(p, order=3)) <= 3e-3


@settings(max_examples=30)
@given(log_gv=st.floats(-6.0, -3.0), delta=st.floats(-3.0, 3.0),
       a=st.floats(0.3, 3.0), mu=st.floats(0.5, 2.0), phi=st.floats(0.3, 2.0),
       dbig=st.floats(100.0, 2000.0), sign=st.sampled_from([-1.0, 1.0]))
def test_oracle_average_gaussian_continuous_at_zero_width(
        log_gv, delta, a, mu, phi, dbig, sign):
    # a Gaussian average of the solver tends to the single homogeneous solve
    # as gamma_v -> 0+, quadratically in gamma_v as the even profile allows
    kw = dict(delta_tilde=delta, a_ratio=a, mu=mu, phi_tilde=phi,
              delta_big_tilde=sign * dbig)
    gv = 10.0 ** log_gv
    narrow = NormalizedParams.build(gamma_v_tilde=gv, kind="gaussian", **kw)
    still = NormalizedParams.build(**kw)
    gap = rel_err(oracle_average(narrow), oracle_average(still))
    assert gap <= gv ** 2 + 1e-12


@settings(max_examples=60)
@given(n_max=st.sampled_from([3, 5, 7]), delta=st.floats(-3.0, 3.0),
       a=st.floats(0.0, 1.5), mu=st.floats(0.5, 2.0),
       log_x=st.floats(-6.0, -0.5), dbig=st.floats(100.0, 1e3),
       sign=st.sampled_from([-1.0, 1.0]),
       gamma_v=st.sampled_from([1e-310, 1e-307, 1e-300, 1e-12, 0.5, 2.0,
                                1e3]))
def test_rung_average_is_the_scalar_sum_over_its_poles(
        n_max, delta, a, mu, log_x, dbig, sign, gamma_v):
    # one array call of _resolvent_average and one reduction give the sum
    # of the scalar averages of each pole, within 4e-15 of the size of the
    # terms (the measured worst is 5.3e-16), with no floating-point warning.
    # Each pole whose zeta or average overflows falls back to the
    # homogeneous average on its own: at the weak_gauss physics none at
    # gamma_v = 1e-300, about half at 1e-307 and all at 1e-310, where s is
    # inf
    p = NormalizedParams.build(
        delta_tilde=delta, a_ratio=a, mu=mu, delta_big_tilde=sign * dbig,
        phi_tilde=math.sqrt(10.0 ** log_x * dbig), gamma_v_tilde=gamma_v,
        kind="gaussian")
    residues, poles = oracle.pole_expansion(p, n_max)
    s = math.sqrt(math.log(2.0)) / gamma_v
    terms = [r * _resolvent_average(q, s)[0]
             for r, q in zip(residues.tolist(), poles.tolist())]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = averaging._pole_average(residues, poles, s)
    want = 2.0 * sum(term.real for term in terms)
    assert abs(got - want) <= 4e-15 * 2.0 * sum(map(abs, terms))


@pytest.mark.parametrize("gamma_v", [1e-310, 1e-307, 1e-300, 1e-12])
@pytest.mark.parametrize("delta", [0.0, 0.5])
def test_narrow_gaussian_oracle_average_is_the_homogeneous_one(
        monkeypatch, gamma_v, delta):
    # at the weak_gauss physics the pole route, its poles averaged as one
    # array, meets the single homogeneous solve: to 2.5e-14 at delta = 0.5
    # and 6.4e-14 at 0, the weak-drive cancellation of the pole terms
    kw = dict(delta_tilde=delta, a_ratio=1.0, mu=1.2, phi_tilde=1.0,
              delta_big_tilde=1e3)
    still = oracle_average(NormalizedParams.build(**kw))

    def no_refine(*args, **kwargs):
        raise AssertionError("the pole route fell back to the quadrature")
    monkeypatch.setattr(oracle, "refine", no_refine)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        narrow = oracle_average(NormalizedParams.build(
            gamma_v_tilde=gamma_v, kind="gaussian", **kw))
    assert rel_err(narrow, still) <= 1e-13
