import math

import pytest

from tpa import analytics, oracle
from tpa.averaging import (QuadratureError, QuadratureSpec,
                           averaged_population, lorentz_int1, lorentz_int2,
                           oracle_average, velocity_average)
from tpa.core import NormalizedParams, ParameterError, VelocityDistribution
from tpa.perturbative import upper_dc_series

from conftest import rel_err


def test_lorentzian_moment_examples():
    assert lorentz_int1(1.0, 1.0, 1.0) == pytest.approx(0.4, rel=1e-12)
    assert lorentz_int2(1, 1.0, 1.0, 1.0) == pytest.approx(0.2, rel=1e-12)
    assert lorentz_int2(2, 1.0, 1.0, 1.0) == pytest.approx(0.18, rel=1e-12)
    # no drift through a symmetric distribution at line center
    assert lorentz_int2(1, 1.0, 2.0, 0.0) == 0.0


def test_lorentzian_moment_validation():
    with pytest.raises(ParameterError):
        lorentz_int1(0.0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        lorentz_int1(1.0, -1.0, 1.0)
    with pytest.raises(ParameterError):
        lorentz_int2(3, 1.0, 1.0, 1.0)


def test_quadrature_spec_validation():
    QuadratureSpec()
    with pytest.raises(ParameterError):
        QuadratureSpec(method="simpson")
    with pytest.raises(ParameterError):
        QuadratureSpec(nodes=4)
    with pytest.raises(ParameterError):
        QuadratureSpec(tol=0.0)
    with pytest.raises(ParameterError):
        QuadratureSpec(domain_halfwidth=0.0)


def test_velocity_average_homogeneous_passthrough():
    got = velocity_average(lambda om: 7.0 + om, VelocityDistribution.homogeneous())
    assert got == 7.0


def test_velocity_average_preserves_unit_mass():
    one = lambda om: 1.0
    lor = VelocityDistribution.lorentzian(2.0)
    gau = VelocityDistribution.gaussian(2.0)
    assert velocity_average(one, lor) == pytest.approx(1.0, rel=1e-12)
    assert velocity_average(one, gau) == pytest.approx(1.0, rel=1e-12)
    clipped = QuadratureSpec(domain_halfwidth=5.0)
    assert velocity_average(one, lor, clipped) == pytest.approx(1.0, rel=1e-12)


def test_velocity_average_kills_odd_kernels():
    odd = lambda om: om / (1.0 + om ** 2)
    lor = VelocityDistribution.lorentzian(1.5)
    gau = VelocityDistribution.gaussian(1.5)
    assert abs(velocity_average(odd, lor)) < 1e-12
    assert abs(velocity_average(odd, gau)) < 1e-12


def test_velocity_average_method_mismatches():
    f = lambda om: 1.0
    with pytest.raises(ParameterError):
        velocity_average(f, VelocityDistribution.gaussian(1.0),
                         QuadratureSpec(method="adaptive_finite"))
    with pytest.raises(ParameterError):
        velocity_average(f, VelocityDistribution.lorentzian(1.0),
                         QuadratureSpec(method="gauss_hermite"))


def test_velocity_average_reproduces_closed_moments():
    gv, delta = 2.0, 1.0
    lor = VelocityDistribution.lorentzian(gv)
    got1 = velocity_average(lambda om: 1.0 / (1.0 + (delta - om) ** 2), lor)
    assert abs(got1 - lorentz_int1(1.0, gv, delta)) <= 1e-8
    got2 = velocity_average(lambda om: om / (1.0 + (delta - om) ** 2), lor)
    assert abs(got2 - lorentz_int2(1, 1.0, gv, delta)) <= 1e-8


def test_wide_gaussian_node_ladder_exhausts():
    dist = VelocityDistribution.gaussian(100.0)
    spec = QuadratureSpec(method="gauss_hermite", tol=1e-10)
    with pytest.raises(QuadratureError):
        velocity_average(lambda om: 1.0 / (1.0 + om ** 2), dist, spec)


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
        dist = p.distribution()
        quad2 = velocity_average(lambda om: upper_dc_series(p, om, 2), dist,
                                 vectorized=True)
        quad3 = velocity_average(
            lambda om: upper_dc_series(p, om, 3) - upper_dc_series(p, om, 2),
            dist, vectorized=True)
        closed2 = averaged_population(p, order=2)
        assert rel_err(quad2, closed2) <= 1e-8
        assert rel_err(quad3, averaged_population(p, order=3) - closed2) <= 1e-8


def test_closed_averages_reject_gaussian_profiles():
    p = NormalizedParams.build(delta_tilde=0.5, a_ratio=1.0, x=1e-3,
                               gamma_v_tilde=1.0, kind="gaussian")
    with pytest.raises(ParameterError):
        averaged_population(p, order=4)
    # a gaussian profile never falls back to the Lorentzian closed form
    lorentz = (analytics.n2(p, p.delta_tilde)
               + analytics.n3(p, p.delta_tilde))
    assert rel_err(averaged_population(p, order=3), lorentz) > 1e-2
    # the gaussian series average itself is handled in closed form
    assert averaged_population(p, order=3) > 0.0


def test_gaussian_closed_average_matches_quadrature():
    quad = QuadratureSpec(method="gauss_hermite", tol=1e-7)
    cases = ((0.0, 1.0, 1.0, 2), (1.0, 0.5, 1.3, 3),
             (-0.7, 1.0, math.sqrt(2.0), 3))
    for gv in (0.3, 1.0, 2.0):
        for delta, a, mu, order in cases:
            p = NormalizedParams.build(delta_tilde=delta, a_ratio=a, mu=mu,
                                       phi_tilde=1.0, delta_big_tilde=1e3,
                                       gamma_v_tilde=gv, kind="gaussian")
            closed = averaged_population(p, order=order)
            quadv = averaged_population(p, order=order, quad=quad)
            assert rel_err(quadv, closed) <= 1e-8, (gv, delta, a, mu, order)


def test_gaussian_average_narrow_width_limit():
    kw = dict(delta_tilde=0.8, a_ratio=0.6, mu=1.3, phi_tilde=1.0,
              delta_big_tilde=1e3)
    narrow = NormalizedParams.build(gamma_v_tilde=1e-5, kind="gaussian", **kw)
    still = NormalizedParams.build(**kw)
    for order in (2, 3):
        assert rel_err(averaged_population(narrow, order=order),
                       upper_dc_series(still, 0.0, order=order)) <= 1e-8


def test_lorentzian_series_average_closes():
    p = NormalizedParams.build(delta_tilde=1.0, a_ratio=1.0,
                               mu=math.sqrt(2.0), phi_tilde=1.0,
                               delta_big_tilde=1e3, gamma_v_tilde=2.0)
    quadv = velocity_average(lambda om: upper_dc_series(p, om, 3),
                             p.distribution(), vectorized=True)
    assert rel_err(quadv, averaged_population(p, order=3)) <= 1e-8


def test_oracle_average_homogeneous_is_single_solve():
    p = NormalizedParams.build(delta_tilde=0.5, a_ratio=1.0, mu=1.0,
                               phi_tilde=1.0, delta_big_tilde=300.0)
    value, info = oracle_average(p, return_info=True)
    rho, n_used = oracle.refine(oracle.SteadyStateProblem(p, 0.0), 1e-14)
    assert value == pytest.approx(oracle.dc_upper_population(rho), rel=1e-14)
    assert set(info) == {"n_used", "reference", "correction"}
    assert info["n_used"] == n_used


def test_oracle_average_lorentzian_matches_series():
    p = NormalizedParams.build(delta_tilde=1.0, a_ratio=1.0, mu=1.0,
                               phi_tilde=1.0, delta_big_tilde=1e3,
                               gamma_v_tilde=2.0)
    value, info = oracle_average(p, return_info=True)
    closed = averaged_population(p, order=3)
    assert rel_err(value, closed) < 1e-3
    assert info["reference"] == pytest.approx(closed, rel=1e-12)
    assert info["n_used"] >= 3
    with pytest.raises(ParameterError):
        oracle_average(p, QuadratureSpec(method="gauss_hermite"))


def test_oracle_average_gaussian_matches_series():
    p = NormalizedParams.build(delta_tilde=1.0, a_ratio=1.0, mu=1.0,
                               phi_tilde=1.0, delta_big_tilde=1e3,
                               gamma_v_tilde=0.5, kind="gaussian")
    assert rel_err(oracle_average(p), averaged_population(p, order=3)) < 1e-3
