import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tpa import oracle
from tpa import perturbative as pt
from tpa.core import NormalizedParams, ParameterError

from conftest import (build_pair, even_part, odd_part, order1_coherences,
                      order1_twophoton, order2_components, order3_coherences,
                      rel_err, solve_pair, term)


def _params(delta=0.0, a=1.0, mu=1.0, phi=1.0, dbig=100.0):
    return NormalizedParams.build(delta_tilde=delta, a_ratio=a, mu=mu,
                                  phi_tilde=phi, delta_big_tilde=dbig)


def _order3_dc(p, omega):
    """Third-order dc upper population, the order-3 series less order 2."""
    return pt.upper_dc_series(p, omega, 3) - pt.upper_dc_series(p, omega, 2)


def _identity_rate(params, comps):
    """dc feeding rate implied by a rho20 harmonic pair."""
    combo = (params.phi1 * term(comps, 2, 0, +1)
             - params.phi2 * term(comps, 2, 0, -1))
    return 2.0 * params.mu * combo.imag


@pytest.fixture(scope="module")
def extraction_pair():
    pair = build_pair(delta=0.8, a=0.7, mu=1.3, phi=1.0, dbig=2e3)
    rho_plus, rho_minus = solve_pair(pair, 1.7)
    return pair[0], 1.7, rho_plus, rho_minus


def test_components_fill_hermitian_partners():
    p = _params()
    comps = order1_coherences(p, 0.0)
    assert term(comps, 0, 1, +1) == pytest.approx(-0.02)
    assert term(comps, 0, 1, -1) == pytest.approx(+0.02)
    assert term(comps, 1, 0, -1) == pytest.approx(-0.02)
    assert term(comps, 2, 0, 1) == 0.0
    assert term(comps, 0, 1, 2) == 0.0


def test_first_order_two_photon_coherence():
    p = _params()
    comps = order1_twophoton(p, 0.0)
    assert term(comps, 2, 1, 0) == pytest.approx(0.04j)
    assert term(comps, 2, 1, +2) == pytest.approx(-0.02j)
    assert term(comps, 1, 2, -2) == pytest.approx(+0.02j)


def test_second_order_dc_populations():
    p = _params()
    comps = order2_components(p, 0.0)
    assert term(comps, 2, 2, 0) == pytest.approx(4.8e-3)
    assert term(comps, 0, 0, 0) == pytest.approx(1.6e-3)
    assert pt.upper_dc_series(p, 0.0, order=2) == pytest.approx(4.8e-3)


def test_third_order_dc_value_and_zeros():
    p = _params(delta=1.0, a=0.0, mu=math.sqrt(2.0))
    assert _order3_dc(p, 0.0) == pytest.approx(1.6e-5)
    # the light shift needs unequal dipole moments and a drive
    assert _order3_dc(_params(delta=1.0, a=0.5, mu=1.0), 0.9) == 0.0
    assert _order3_dc(_params(delta=1.0, a=0.5, mu=1.4, phi=0.0), 0.9) == 0.0


def test_third_order_dc_is_odd_in_detuning():
    p = _params(delta=0.7, a=0.6, mu=1.4)
    p_r = _params(delta=-0.7, a=0.6, mu=1.4)
    assert _order3_dc(p_r, -1.3) == pytest.approx(-_order3_dc(p, 1.3),
                                                  rel=1e-12)


def test_series_shapes_and_order_guard():
    p = _params(delta=0.4, a=0.5)
    val = pt.upper_dc_series(p, 0.3)
    assert isinstance(val, float)
    arr = pt.upper_dc_series(p, np.array([0.0, 0.3, 1.0]))
    assert arr.shape == (3,)
    assert arr[1] == pytest.approx(val)
    for bad in (1, 4):
        with pytest.raises(ParameterError):
            pt.upper_dc_series(p, 0.3, order=bad)


@given(delta=st.floats(-20.0, 20.0), a=st.floats(0.0, 3.0),
       mu=st.floats(0.1, 3.0), phi=st.floats(0.1, 10.0),
       dbig=st.floats(10.0, 1e4) | st.floats(-1e4, -10.0),
       om=st.floats(-1e3, 1e3), order=st.sampled_from([2, 3]))
def test_series_float_is_bit_identical_to_array_entry(delta, a, mu, phi, dbig,
                                                      om, order):
    # a float Omega takes the float path, which rounds as the array does
    p = _params(delta=delta, a=a, mu=mu, phi=phi, dbig=dbig)
    got = pt.upper_dc_series(p, om, order)
    assert type(got) is float
    assert got == pt.upper_dc_series(p, np.array([om, 0.5]), order)[0]


@given(x=st.floats(1e-6, 1e-1) | st.floats(-1e-1, -1e-6),
       a=st.floats(0.0, 3.0), mu=st.floats(0.1, 3.0),
       d=st.floats(-20.0, 20.0))
def test_velocity_class_and_average_are_one_series(x, a, mu, d):
    # on a homogeneous set the average is the velocity class at Omega = 0:
    # the residue moments round as the exact resolvents at u = d, so the
    # two forms of the one series agree bit for bit, term by term
    p = NormalizedParams.build(x=x, a_ratio=a, mu=mu)
    at_d = replace(p, delta_tilde=d)
    assert pt._series(p, d, 2, 2) == pt.upper_dc_series(at_d, 0.0, 2)
    assert pt._series(p, d, 2, 3) == pt.upper_dc_series(at_d, 0.0, 3)
    assert pt._series(p, d, 3, 3) == pt._series(at_d, d, 3, 3, 0.0)


@given(delta=st.floats(-20.0, 20.0), a=st.floats(0.1, 10.0),
       mu=st.floats(0.1, 3.0), phi=st.floats(0.1, 3.0),
       dbig=st.floats(10.0, 1e4) | st.floats(-1e4, -10.0),
       om=st.floats(-1e3, 1e3) | st.floats(-20.0, 20.0))
def test_series_invariant_under_beam_exchange(delta, a, mu, phi, dbig, om):
    # relabelling the beams, (phi, A, Omega) -> (A phi, 1/A, -Omega), swaps
    # the forward and backward resolvents; only roundings of A, x and the
    # resolvents move the result: the order-2 term by at most 7 eps and the
    # sum by at most 13 eps of |order 2| + |order 3| over 300,000 draws,
    # so the bounds are 16 and 32 eps
    eps = math.ulp(1.0)
    p = _params(delta=delta, a=a, mu=mu, phi=phi, dbig=dbig)
    q = _params(delta=delta, a=1.0 / a, mu=mu, phi=a * phi, dbig=dbig)
    order2 = pt.upper_dc_series(p, om, 2)
    assert abs(pt.upper_dc_series(q, -om, 2) - order2) <= 16 * eps * order2
    full = pt.upper_dc_series(p, om, 3)
    scale = abs(order2) + abs(full - order2)
    assert abs(pt.upper_dc_series(q, -om, 3) - full) <= 32 * eps * scale


def test_series_scales_exactly_by_order():
    base = dict(delta_tilde=1.0, a_ratio=0.6, mu=1.4, phi_tilde=1.0)
    near = NormalizedParams.build(delta_big_tilde=200.0, **base)
    far = NormalizedParams.build(delta_big_tilde=400.0, **base)
    om = 0.9
    d2_near = pt.upper_dc_series(near, om, order=2)
    d2_far = pt.upper_dc_series(far, om, order=2)
    assert rel_err(d2_far, d2_near / 4.0) < 1e-13
    t3_near = pt.upper_dc_series(near, om, order=3) - d2_near
    t3_far = pt.upper_dc_series(far, om, order=3) - d2_far
    assert rel_err(t3_far, t3_near / 8.0) < 1e-12


def test_second_order_even_in_inverted_ladder():
    base = dict(delta_tilde=0.8, a_ratio=0.7, mu=1.3, phi_tilde=1.0)
    plus = NormalizedParams.build(delta_big_tilde=150.0, **base)
    minus = NormalizedParams.build(delta_big_tilde=-150.0, **base)
    assert pt.upper_dc_series(plus, 1.1, order=2) == pytest.approx(
        pt.upper_dc_series(minus, 1.1, order=2), rel=1e-14)


def test_second_order_identity_between_coherence_and_dc():
    p = _params(delta=0.8, a=0.7, mu=1.3, phi=1.1, dbig=2e3)
    comps = order2_components(p, 1.7)
    rate = _identity_rate(p, comps)
    dc22 = term(comps, 2, 2, 0).real
    assert rel_err(rate, dc22) < 1e-12


def test_third_order_identity_vanishes_at_unit_mu():
    p = _params(delta=0.8, a=0.7, mu=1.0, phi=1.0, dbig=2e3)
    comps = order3_coherences(p, 1.7)
    assert abs(_identity_rate(p, comps)) < 1e-18


def test_third_order_identity_single_beam_closed_form():
    p = _params(delta=0.9, a=0.0, mu=math.sqrt(2.0), dbig=2e3)
    comps = order3_coherences(p, 1.3)
    assert rel_err(_identity_rate(p, comps), _order3_dc(p, 1.3)) < 1e-12


_SHORT_CROSS_TERM = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 1: the A**2 and A**4 parts of the "
    "order-3 series lack a factor of 4")


@pytest.mark.parametrize("a", [0.0, pytest.param(0.5, marks=_SHORT_CROSS_TERM),
                               pytest.param(1.0, marks=_SHORT_CROSS_TERM)])
def test_third_order_series_matches_identity_with_both_beams(a):
    # the order-3 term of the series against the rho20 identity at mu != 1,
    # where the term does not vanish; with the factor restored every case
    # is within 8e-13
    for omega in (0.0, 1.3, -2.0):
        p = _params(delta=0.8, a=a, mu=1.3, phi=1.0, dbig=2e3)
        want = _identity_rate(p, order3_coherences(p, omega))
        assert rel_err(_order3_dc(p, omega), want) < 1e-11, omega


def test_solver_extraction_matches_low_orders(extraction_pair):
    p, omega, rho_plus, rho_minus = extraction_pair
    c1 = order1_coherences(p, omega)
    t1 = order1_twophoton(p, omega)
    c2 = order2_components(p, omega)
    odd_targets = [(0, 1, +1, c1), (0, 1, -1, c1),
                   (2, 1, +2, t1), (2, 1, 0, t1), (2, 1, -2, t1)]
    for i, j, n, comps in odd_targets:
        got = odd_part(rho_plus, rho_minus, i, j, n)
        assert rel_err(got, term(comps, i, j, n)) < 1e-3, (i, j, n)
    even_targets = [(2, 0, +1), (2, 0, -1), (2, 0, +3), (2, 0, -3),
                    (0, 1, +1), (0, 1, -1), (0, 1, +3), (0, 1, -3),
                    (2, 2, 0), (0, 0, 0), (0, 0, +2), (0, 0, -2), (2, 1, 0)]
    for i, j, n in even_targets:
        got = even_part(rho_plus, rho_minus, i, j, n)
        assert rel_err(got, term(c2, i, j, n)) < 1e-3, (i, j, n)


def test_third_order_identity_matches_solver(extraction_pair):
    p, omega, rho_plus, rho_minus = extraction_pair
    got = odd_part(rho_plus, rho_minus, 2, 2, 0).real
    want = _identity_rate(p, order3_coherences(p, omega))
    assert rel_err(got, want) < 1e-3


def test_third_order_dc_extraction_single_beam():
    pair = build_pair(delta=0.9, a=0.0, mu=math.sqrt(2.0), phi=1.0, dbig=2e3)
    rho_plus, rho_minus = solve_pair(pair, 1.3)
    got = odd_part(rho_plus, rho_minus, 2, 2, 0).real
    assert rel_err(got, _order3_dc(pair[0], 1.3)) < 1e-3


def test_series_error_falls_two_orders_per_decade():
    for a in (0.0, 1.0):
        for delta in (0.0, 1.0):
            for omega in (0.0, 1.0):
                rels = []
                for dbig in (1e2, 1e3, 1e4):
                    p = NormalizedParams.build(
                        delta_tilde=delta, a_ratio=a, mu=1.0, phi_tilde=1.0,
                        delta_big_tilde=dbig)
                    rho = oracle.solve_steady_state(
                        oracle.SteadyStateProblem(p, omega, 9))
                    rels.append(rel_err(rho.dc(2, 2),
                                        pt.upper_dc_series(p, omega)))
                cell = (a, delta, omega)
                assert 20.0 < rels[0] / rels[1] < 500.0, cell
                assert 20.0 < rels[1] / rels[2] < 500.0, cell


def test_series_third_order_improves_single_beam():
    rels2, rels3 = [], []
    for dbig in (1e2, 1e3, 1e4):
        p = NormalizedParams.build(delta_tilde=1.0, a_ratio=0.0,
                                   mu=math.sqrt(2.0), phi_tilde=1.0,
                                   delta_big_tilde=dbig)
        rho = oracle.solve_steady_state(oracle.SteadyStateProblem(p, 0.7, 9))
        want = rho.dc(2, 2)
        rels2.append(rel_err(pt.upper_dc_series(p, 0.7, order=2), want))
        rels3.append(rel_err(pt.upper_dc_series(p, 0.7, order=3), want))
    # once the next order is negligible the light-shift term must dominate
    # the order-2 truncation error; at the tightest rung both are comparable
    assert all(r3 < 0.2 * r2 for r2, r3 in zip(rels2[1:], rels3[1:]))
    assert 20.0 < rels3[0] / rels3[1] < 500.0
    assert 20.0 < rels3[1] / rels3[2] < 500.0
