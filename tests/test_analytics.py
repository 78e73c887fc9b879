import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tpa import analytics as an
from tpa.averaging import averaged_population, oracle_average
from tpa.core import NormalizedParams, ParameterError

from conftest import n2_hom, n2_sw, n2_tw, rel_err


def _profile(x=1e-3, a=0.0, gv=0.0, mu=1.0):
    return NormalizedParams.build(x=x, a_ratio=a, gamma_v_tilde=gv, mu=mu)


# Generated profile inputs: signed drive, beam ratio (> 0 where the beams
# are exchanged), Doppler width from the homogeneous limit up, dipole ratio.
_x = st.floats(1e-6, 1e-1) | st.floats(-1e-1, -1e-6)
_ratio = st.floats(0.1, 10.0)
_width = st.just(0.0) | st.floats(1e-3, 50.0)
_mu = st.floats(0.1, 3.0)
_detuning = st.floats(-20.0, 20.0)


def test_profile_params_validation():
    with pytest.raises(ParameterError):
        NormalizedParams.build(x=0.0)
    for mu in (0.0, -1.2):
        with pytest.raises(ParameterError):
            NormalizedParams.build(x=1e-3, mu=mu)
    with pytest.raises(ParameterError):
        NormalizedParams.build(x=1e-3, a_ratio=-0.5)
    with pytest.raises(ParameterError):
        NormalizedParams.build(x=1e-3, gamma_v_tilde=-1.0)
    for bad in ({"x": math.nan}, {"x": math.inf}, {"a_ratio": math.nan},
                {"gamma_v_tilde": math.inf}, {"mu": math.nan}):
        with pytest.raises(ParameterError):
            NormalizedParams.build(**{"x": 1e-3, **bad})


def test_width_examples():
    assert an.width_fwhm(0.0, 3.0) == pytest.approx(8.0, rel=1e-12)
    assert abs(an.width_fwhm(1.0, 1.0) - 2.2744) < 1e-3
    for a in (0.0, 0.5, 1.0):
        assert an.width_fwhm(a, 0.0) == pytest.approx(2.0, abs=1e-12)


def test_width_rises_then_saturates_toward_two():
    assert an.width_fwhm(1.0, 1.0) > an.width_fwhm(1.0, 0.0)
    assert an.width_fwhm(1.0, 100.0) < an.width_fwhm(1.0, 2.0)
    assert abs(an.width_fwhm(1.0, 100.0) - 2.01) < 1e-3


@given(x=_x, a=st.just(0.0) | _ratio, gv=_width, mu=_mu, d=_detuning)
def test_profile_parities(x, a, gv, mu, d):
    p = _profile(x=x, a=a, gv=gv, mu=mu)
    assert an.n2(p, d) == pytest.approx(an.n2(p, -d), rel=1e-14)
    assert an.n3(p, d) == pytest.approx(-an.n3(p, -d), rel=1e-14)


@given(x=_x, a=_ratio, gv=_width, mu=_mu, d=_detuning)
def test_profiles_invariant_under_beam_exchange(x, a, gv, mu, d):
    # relabelling the beams: phi -> A phi and A -> 1/A, so x -> A^2 x
    p = _profile(x=x, a=a, gv=gv, mu=mu)
    q = _profile(x=x * a ** 2, a=1.0 / a, gv=gv, mu=mu)
    assert rel_err(an.n2(q, d), an.n2(p, d)) < 1e-12
    assert rel_err(an.n3(q, d), an.n3(p, d)) < 1e-12
    assert rel_err(an.n2_max(q), an.n2_max(p)) < 1e-12
    assert rel_err(an.stark_shift(q), an.stark_shift(p)) < 1e-12


def test_profile_limits():
    d = 0.9
    tw = _profile(x=1e-3, a=0.0, gv=2.0, mu=1.2)
    assert an.n2(tw, d) == pytest.approx(n2_tw(tw, d), rel=1e-14)
    sw = _profile(x=1e-3, a=1.0, gv=2.0, mu=1.2)
    assert an.n2(sw, d) == pytest.approx(n2_sw(sw, d), rel=1e-14)
    still = _profile(x=1e-3, a=0.6, gv=0.0, mu=1.2)
    assert an.n2(still, d) == pytest.approx(n2_hom(still, d), rel=1e-14)


def test_peak_value_sits_at_line_center():
    p = _profile(x=1e-3, a=0.8, gv=1.7, mu=1.1)
    assert an.n2_max(p) == pytest.approx(an.n2(p, 0.0), rel=1e-14)
    grid = np.linspace(-10.0, 10.0, 2001)
    assert np.max(an.n2(p, grid)) <= an.n2_max(p) * (1.0 + 1e-12)


def test_third_order_profile_scalings():
    p = _profile(x=1e-3, a=0.7, gv=1.0, mu=1.0)
    assert an.n3(p, 0.8) == 0.0
    q1 = _profile(x=1e-3, a=0.7, gv=1.0, mu=1.4)
    q2 = _profile(x=2e-3, a=0.7, gv=1.0, mu=1.4)
    assert an.n3(q2, 0.8) == pytest.approx(8.0 * an.n3(q1, 0.8), rel=1e-12)


def test_shift_sign_and_linearity():
    base = dict(a=0.6, gv=1.3)
    up = _profile(x=1e-3, mu=1.5, **base)
    assert an.stark_shift(up) > 0.0
    assert an.stark_shift(_profile(x=-1e-3, mu=1.5, **base)) == pytest.approx(
        -an.stark_shift(up), rel=1e-14)
    assert an.stark_shift(_profile(x=1e-3, mu=0.8, **base)) < 0.0
    assert an.stark_shift(_profile(x=2e-3, mu=1.5, **base)) == pytest.approx(
        2.0 * an.stark_shift(up), rel=1e-14)
    assert an.stark_shift(_profile(x=1e-3, mu=1.0, **base)) == 0.0


def test_shift_limits():
    for gv in (0.0, 1.0, 7.0):
        tw = _profile(x=1e-3, a=0.0, gv=gv, mu=1.4)
        assert an.stark_shift(tw) == an.stark_shift_tw(tw)
        assert an.stark_shift_tw(tw) == 2.0 * (1.4 ** 2 - 1.0) * 1e-3
        sw = _profile(x=1e-3, a=1.0, gv=gv, mu=1.4)
        assert an.stark_shift(sw) == pytest.approx(an.stark_shift_sw(sw),
                                                   rel=1e-14)


def test_numeric_width_on_unit_lorentzian():
    got = an.numeric_fwhm(lambda d: 1.0 / (1.0 + d ** 2))
    assert abs(got - 2.0) <= 1e-8


def test_numeric_width_guards():
    with pytest.raises(an.LocatorError):
        an.numeric_fwhm(lambda d: -1.0 / (1.0 + d ** 2))
    with pytest.raises(an.LocatorError):
        an.numeric_fwhm(lambda d: 1.0 / (1.0 + (d - 0.5) ** 2))


def test_numeric_peak_location():
    got = an.numeric_peak(lambda d: -(d - 0.7) ** 2, bracket_halfwidth=4.0)
    assert abs(got - 0.7) <= 1e-8
    with pytest.raises(an.LocatorError):
        an.numeric_peak(lambda d: d, bracket_halfwidth=4.0)
    with pytest.raises(ParameterError):
        an.numeric_peak(lambda d: -(d ** 2), bracket_halfwidth=0.0)


def test_numeric_width_of_gaussian_profile():
    base = NormalizedParams.build(delta_tilde=0.0, a_ratio=1.0, mu=1.0,
                                  phi_tilde=1.0, x=1e-3, gamma_v_tilde=5.0,
                                  kind="gaussian")
    curve = lambda d: averaged_population(base.with_delta(float(d)), order=2)
    got = an.numeric_fwhm(curve)
    # narrower than the heavy-tailed profile of the same width parameter
    assert 2.0 < got < an.width_fwhm(1.0, 5.0) + 0.5


def test_solver_width_converges_to_closed_form():
    # the paper's width from the brute-force route: the FWHM of the averaged
    # steady state approaches width_fwhm as x^2 at mu = 1, so the relative
    # gap falls 100x per decade of delta_big (at least 50x is required)
    want = an.width_fwhm(1.0, 2.0)
    gaps = []
    for dbig in (1e2, 1e3):
        base = NormalizedParams.build(a_ratio=1.0, mu=1.0, phi_tilde=1.0,
                                      delta_big_tilde=dbig, gamma_v_tilde=2.0,
                                      kind="lorentzian")
        got = an.numeric_fwhm(
            lambda d: oracle_average(base.with_delta(float(d))))
        gaps.append(rel_err(got, want))
    assert gaps[0] >= 50.0 * gaps[1], f"relative gaps {gaps}"


def test_numeric_peak_of_solver_profile():
    base = NormalizedParams.build(delta_tilde=0.0, a_ratio=0.0,
                                  mu=math.sqrt(2.0), phi_tilde=1.0,
                                  delta_big_tilde=1e3)
    curve = lambda d: oracle_average(base.with_delta(float(d)))
    got = an.numeric_peak(curve, bracket_halfwidth=4.0, tol=1e-9)
    want = an.stark_shift(base)
    assert got * want > 0.0
    assert rel_err(got, want) <= 0.01
