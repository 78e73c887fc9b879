import math
import sys
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import optimize

from tpa import analytics as an
from tpa import cli
from tpa.averaging import (QuadratureSpec, averaged_population,
                           oracle_average, velocity_average)
from tpa.core import NormalizedParams, ParameterError
from tpa.perturbative import upper_dc_series

from conftest import n2_hom, n2_rational, n2_sw, n2_tw, n3_rational, rel_err


def _profile(x=1e-3, a=0.0, gv=0.0, mu=1.0):
    return NormalizedParams.build(x=x, a_ratio=a, gamma_v_tilde=gv, mu=mu)


# Generated profile inputs: signed drive, beam ratio (> 0 where the beams
# are exchanged), Doppler width from the homogeneous limit up, dipole ratio.
_x = st.floats(1e-6, 1e-1) | st.floats(-1e-1, -1e-6)
_ratio = st.floats(0.1, 10.0)
_width = st.just(0.0) | st.floats(1e-3, 50.0)
_mu = st.floats(0.1, 3.0)
_detuning = st.floats(-20.0, 20.0)
# A velocity profile of every kind, with its HWHM.
_kinds = (st.tuples(st.just("homogeneous"), st.just(0.0))
          | st.tuples(st.sampled_from(["lorentzian", "gaussian"]),
                      st.floats(1e-3, 50.0)))


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
    # both arguments follow the number rule with the bound of
    # NormalizedParams: finite, >= 0 and not a boolean
    for args, name in (((1.0, -5.0), "gamma_v_tilde"),
                       ((1.0, math.nan), "gamma_v_tilde"),
                       ((-1.0, 2.0), "a_ratio"),
                       ((1.0, math.inf), "gamma_v_tilde"),
                       ((True, 2.0), "a_ratio")):
        with pytest.raises(ParameterError, match=f"^{name} must be"):
            an.width_fwhm(*args)


def test_width_rises_then_saturates_toward_two():
    assert an.width_fwhm(1.0, 1.0) > an.width_fwhm(1.0, 0.0)
    assert an.width_fwhm(1.0, 100.0) < an.width_fwhm(1.0, 2.0)
    assert abs(an.width_fwhm(1.0, 100.0) - 2.01) < 1e-3


def _width_reference(a: float, gv: float) -> tuple:
    """width_fwhm's closed form from the same float inputs, to 50 digits
    (sqrt(w + q^2) + q cancels about 2 log10(1 + gv) of the digits
    carried), and its relative condition number in A, |d ln W / d ln A|."""
    with mpmath.workdps(50 + 2 * len(str(int(gv)))):
        g1 = 1 + mpmath.mpf(gv)
        w = g1 ** 2

        def width(a):
            f = (1 + a ** 4 - 4 * g1 * a ** 2) / (2 * (1 + a ** 4
                                                     + 4 * g1 * a ** 2))
            q = (w - 1) * f
            return 2 * mpmath.sqrt(mpmath.sqrt(w + q * q) + q)

        a = mpmath.mpf(a)
        value = width(a)
        return float(value), float(abs(mpmath.diff(width, a) * a / value))


@given(a=st.just(0.0) | st.floats(0.0, 1.5),
       log_gv=st.floats(-3.0, 300.0))
@example(a=0.019904687276956188, log_gv=math.log10(630.0))
def test_width_matches_a_high_precision_reference(a, log_gv):
    # on wide profiles the closed form's sqrt(w + q^2) + q cancels for
    # every A > 0, where q < 0, and w overflows from gv = 1.3e154; the
    # width must neither lose digits nor overflow there. Where
    # 4 (1 + gv) A^2 = 1 + A^4, f's numerator vanishes and the width's
    # condition number in A grows to about (1 + gv) / 2: the rounding of
    # A^2 alone then moves it by that times eps, which the bound admits
    gv = 10.0 ** log_gv
    reference, kappa = _width_reference(a, gv)
    bound = 1e-15 + 2.0 * sys.float_info.epsilon * kappa
    assert abs(an.width_fwhm(a, gv) - reference) <= bound * reference


@pytest.mark.parametrize("gv", [1e-3, 1.0, 1e9, 1e75, 1e150, 1e300])
def test_width_limits_of_the_beam_ratio(gv):
    # a running wave keeps the whole Doppler width; any counter-propagating
    # beam narrows the line to the sub-Doppler width 2 as gamma_v grows
    assert an.width_fwhm(0.0, gv) == pytest.approx(2.0 * (1.0 + gv),
                                                   rel=1e-15, abs=0)
    if gv >= 1e75:
        for a in (0.1, 0.5, 1.0, 1.5):
            assert an.width_fwhm(a, gv) == pytest.approx(2.0, abs=1e-15)


@pytest.mark.parametrize("a, kind", [
    *(pytest.param(a, "lorentzian", id=f"{a}") for a in (0.0, 0.5, 1.0)),
    *(pytest.param(a, "gaussian", id=f"{a}-gaussian") for a in (0.0, 0.5, 1.0)),
])
@pytest.mark.parametrize("d", [0.0, 0.7])
def test_lorentzian_profiles_hold_the_widest_doppler_widths(a, kind, d):
    # no power of 1 + gamma_v (Lorentzian) or of sigma (Gaussian) is formed,
    # so every profile value stays a finite double, monotone in the width,
    # out to 1e300
    widths = [10.0 ** k for k in range(150, 301, 10)]
    profiles = (lambda p: an.n2(p, d), lambda p: an.n3(p, d),
                lambda p: averaged_population(p, 3), an.stark_shift)
    for profile in profiles:
        values = [profile(NormalizedParams.build(
            x=1e-3, a_ratio=a, gamma_v_tilde=gv, mu=1.2, delta_tilde=d,
            kind=kind)) for gv in widths]
        assert all(math.isfinite(v) for v in values)
        assert values in (sorted(values), sorted(values, reverse=True))


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
    assert max(an.n2(p, d) for d in grid) <= an.n2_max(p) * (1.0 + 1e-12)


@pytest.mark.parametrize("kind, gv", [("homogeneous", 0.0),
                                      ("lorentzian", 1.5), ("gaussian", 1.5)])
def test_profiles_take_one_detuning(kind, gv):
    # a real scalar, numpy's included, gives a float of the same bits; a
    # line is one call per detuning, and an array of detunings is refused
    # on every kind. Text, bytes, booleans, nan and +-inf are not a
    # detuning under the number rule, though float() reads them
    p = NormalizedParams.build(x=1e-3, a_ratio=0.7, gamma_v_tilde=gv,
                               mu=1.2, kind=kind)
    for profile in (an.n2, an.n3):
        assert type(profile(p, np.float64(0.5))) is float
        assert profile(p, np.float64(0.5)) == profile(p, 0.5)
        single = np.float32(0.3)
        assert profile(p, single) == profile(p, float(single))
        assert type(profile(p, 1)) is float
        assert profile(p, 1) == profile(p, 1.0)
        with pytest.raises(TypeError):
            profile(p, np.array([0.5, 1.0]))
        for bad in ("1.5", True, b"2", bytearray(b"2"), math.nan, math.inf,
                    -math.inf, np.float64(math.nan)):
            with pytest.raises(ParameterError, match="^delta_tilde must be"):
                profile(p, bad)


@given(x=_x, a=st.just(0.0) | _ratio, gv=_width, mu=_mu, d=_detuning)
def test_profiles_match_rational_forms(x, a, gv, mu, d):
    # the resolvent-moment series against the rational Lorentzian forms;
    # neither sums terms of opposite sign, so a few roundings bound the gap
    p = _profile(x=x, a=a, gv=gv, mu=mu)
    assert rel_err(an.n2(p, d), n2_rational(p, d)) <= 2e-15
    assert rel_err(an.n3(p, d), n3_rational(p, d)) <= 2e-15


@given(profile=_kinds, x=_x, a=st.just(0.0) | _ratio, mu=_mu, d=_detuning)
def test_series_entry_points_agree_bit_for_bit(profile, x, a, mu, d):
    # n2, n3, n2_max and averaged_population read one series on every
    # profile
    kind, gv = profile
    p = NormalizedParams.build(x=x, a_ratio=a, gamma_v_tilde=gv, mu=mu,
                               kind=kind)
    at_d = replace(p, delta_tilde=d)
    assert an.n2(p, d) == averaged_population(at_d, 2)
    assert an.n2(p, d) + an.n3(p, d) == averaged_population(at_d, 3)
    assert an.n2_max(p) == an.n2(p, 0.0)


def test_profiles_follow_a_gaussian_kind():
    # on a gaussian set n2, n3 and n2_max are the gaussian averages of the
    # per-velocity series, not the lorentzian lines of the same width
    p = NormalizedParams.build(x=1e-3, a_ratio=0.7, gamma_v_tilde=2.0,
                               mu=1.3, kind="gaussian")
    lorentz = replace(p, kind="lorentzian")

    def average(d, term):
        q = replace(p, delta_tilde=d)
        return velocity_average(lambda om: term(q, om), "gaussian", 2.0,
                                QuadratureSpec(tol=1e-10))

    order2 = lambda q, om: upper_dc_series(q, om, 2)
    order3 = lambda q, om: (upper_dc_series(q, om, 3)
                            - upper_dc_series(q, om, 2))
    assert rel_err(an.n2_max(p), average(0.0, order2)) <= 1e-8
    for d in (0.0, 0.8):
        assert rel_err(an.n2(p, d), average(d, order2)) <= 1e-8
        assert rel_err(an.n2(lorentz, d), average(d, order2)) > 1e-2
    assert rel_err(an.n3(p, 0.8), average(0.8, order3)) <= 1e-8
    assert rel_err(an.n3(lorentz, 0.8), average(0.8, order3)) > 1e-2


def _richardson(diff, h):
    # a central difference with step h, its O(h^2) error cancelled
    return (4.0 * diff(0.5 * h) - diff(h)) / 3.0


def test_stark_shift_is_the_slope_over_the_curvature_of_the_series():
    # the shift is -n3'(0)/n2''(0) of the profiles on every kind; with
    # h = 0.01 the differences agree with it to 5e-9 over these sets
    h = 0.01
    for kind, gv in (("homogeneous", 0.0), ("lorentzian", 0.3),
                     ("lorentzian", 20.0), ("gaussian", 0.05),
                     ("gaussian", 2.0), ("gaussian", 20.0)):
        for a in (0.0, 0.4, 1.0, 2.5):
            p = NormalizedParams.build(x=1e-3, a_ratio=a, gamma_v_tilde=gv,
                                       mu=1.3, kind=kind)
            slope = _richardson(
                lambda s: (an.n3(p, s) - an.n3(p, -s)) / (2.0 * s), h)
            curvature = _richardson(
                lambda s: (an.n2(p, s) - 2.0 * an.n2(p, 0.0)
                           + an.n2(p, -s)) / (s * s), h)
            assert rel_err(an.stark_shift(p), -slope / curvature) <= 1e-7, (
                kind, gv, a)


@given(x=_x, a=st.just(0.0) | _ratio, mu=_mu, d=_detuning,
       log_gv=st.floats(-300.0, -1.0))
def test_gaussian_shift_tends_to_the_homogeneous_shift(x, a, mu, d, log_gv):
    # quadratically in gamma_v, as the even profile allows, down to widths
    # whose sigma^2 underflows. The measured coefficient of the shift is at
    # most 1.08, at A = 1, so 2 gamma_v^2 bounds its gap. On the line, Im M2
    # moves by 6 sigma^2 = 4.3 gamma_v^2 relatively near line center, where
    # n3 can outweigh n2, so 5 gamma_v^2 of |n2| + |n3| bounds its gap
    gv = 10.0 ** log_gv
    narrow = NormalizedParams.build(x=x, a_ratio=a, gamma_v_tilde=gv, mu=mu,
                                    kind="gaussian")
    still = _profile(x=x, a=a, mu=mu)
    assert rel_err(an.stark_shift(narrow),
                   an.stark_shift(still)) <= 2.0 * gv ** 2 + 1e-12
    n2, n3 = an.n2(still, d), an.n3(still, d)
    gap = an.n2(narrow, d) + an.n3(narrow, d) - (n2 + n3)
    assert abs(gap) <= (5.0 * gv ** 2 + 1e-12) * (abs(n2) + abs(n3))


@pytest.mark.parametrize("gv", [1.5e-308, 6e-309, 1e-310, 5e-324])
def test_subnormal_gaussian_width_gives_homogeneous_line(gv):
    # w underflows to 0 at 1.5e-308 and delta = 3, 1/sigma overflows at
    # 6e-309, and zeta with it at subnormal widths: M1 is then the
    # homogeneous pole, as M2 and M3 already are
    narrow = NormalizedParams.build(x=1e-3, a_ratio=0.7, gamma_v_tilde=gv,
                                    mu=1.2, kind="gaussian")
    still = _profile(x=1e-3, a=0.7, mu=1.2)
    for d in (-3.0, 0.0, 0.3, 3.0):
        assert an.n2(narrow, d) == pytest.approx(an.n2(still, d), rel=1e-15)
        assert an.n3(narrow, d) == pytest.approx(an.n3(still, d), rel=1e-15)
    assert an.n2(narrow, 0.3) == pytest.approx(3.382124036697247e-05,
                                               rel=1e-15)


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
    for kind, gv in (("homogeneous", 0.0), ("lorentzian", 1.0),
                     ("lorentzian", 7.0), ("gaussian", 1.0),
                     ("gaussian", 7.0)):
        tw = NormalizedParams.build(x=1e-3, a_ratio=0.0, gamma_v_tilde=gv,
                                    mu=1.4, kind=kind)
        assert an.stark_shift(tw) == an.stark_shift_tw(tw)
        assert an.stark_shift_tw(tw) == 2.0 * (1.4 ** 2 - 1.0) * 1e-3
        sw = replace(tw, a_ratio=1.0)
        assert an.stark_shift(sw) == pytest.approx(an.stark_shift_sw(sw),
                                                   rel=1e-14)


def test_numeric_width_on_unit_lorentzian():
    got = an.numeric_fwhm(lambda d: 1.0 / (1.0 + d ** 2))
    assert abs(got - 2.0) <= 1e-8


def test_numeric_width_guards():
    with pytest.raises(an.LocatorError, match="center must be > 0, got -1.0"):
        an.numeric_fwhm(lambda d: -1.0 / (1.0 + d ** 2))
    with pytest.raises(an.LocatorError):
        an.numeric_fwhm(lambda d: 1.0 / (1.0 + (d - 0.5) ** 2))
    # a flat profile never falls to half its peak on the doubling ladder
    with pytest.raises(an.LocatorError, match="no half-maximum crossing"):
        an.numeric_fwhm(lambda d: 1.0)


def test_numeric_peak_location():
    got = an.numeric_peak(lambda d: -(d - 0.7) ** 2, bracket_halfwidth=4.0)
    assert abs(got - 0.7) <= 1e-8
    with pytest.raises(an.LocatorError):
        an.numeric_peak(lambda d: d, bracket_halfwidth=4.0)
    for bad in (0.0, -1.0, True, "x", None):
        with pytest.raises(ParameterError, match="^bracket_halfwidth must be"):
            an.numeric_peak(lambda d: -(d ** 2), bracket_halfwidth=bad)
    with pytest.raises(ParameterError, match="^bracket_halfwidth must be > 0"):
        an.numeric_peak(lambda d: -(d ** 2), bracket_halfwidth=-0.0)


def test_locators_refuse_non_finite_values():
    # a nan or inf anywhere the locators look is a LocatorError, never a
    # location read off the finite values or scipy's ValueError
    def peaked(bad_at, bad=math.nan):
        return lambda d: bad if d == bad_at else -(d - 0.7) ** 2
    for curve in (peaked(0.0), peaked(1.0), peaked(0.75, math.inf)):
        with pytest.raises(an.LocatorError, match="not finite"):
            an.numeric_peak(curve, bracket_halfwidth=4.0)
    for bad_at in (0.0, 2.0):
        with pytest.raises(an.LocatorError, match="not finite"):
            an.numeric_fwhm(
                lambda d: math.nan if d == bad_at else 1.0 / (1.0 + d * d))
    # the grid's maximum sits at 0, but a ripple of the grid's period 0.25
    # tilts the slope upward at both neighbours: no root is bracketed
    with pytest.raises(an.LocatorError, match="no root"):
        an.numeric_peak(lambda d: -0.01 * d * d
                        + 1e-3 * math.sin(2.0 * math.pi * d / 0.25), 4.0)


def _logged(f, log):
    def g(d):
        log.append(d)
        return f(d)
    return g


def test_brentq_is_scipys_root_bit_for_bit(monkeypatch):
    # the port makes scipy's evaluations, in order, and returns its root:
    # on figure 4's 24 half-maximum functions (homogeneous at gamma_v = 0,
    # Gaussian beyond) and on numeric_peak's slope functions of Lorentzian
    # and Gaussian n2 + n3 lines
    port = an._brentq
    roots = []

    def both(f, lo, hi, xtol, rtol):
        theirs, ours = [], []
        want = optimize.brentq(_logged(f, theirs), lo, hi, xtol=xtol,
                               rtol=rtol)
        got = port(_logged(f, ours), lo, hi, xtol, rtol)
        assert (got, ours) == (want, theirs)
        roots.append(got)
        return got

    monkeypatch.setattr(an, "_brentq", both)
    cli.run_figure(4)
    assert len(roots) == 24
    for kind in ("lorentzian", "gaussian"):
        for gv in (0.3, 2.0, 20.0):
            for a in (0.0, 0.5, 1.0):
                p = NormalizedParams.build(x=1e-3, a_ratio=a, mu=1.4,
                                           gamma_v_tilde=gv, kind=kind)
                an.numeric_peak(lambda d: an.n2(p, d) + an.n3(p, d), 1.0)
    assert len(roots) == 24 + 18


def test_brentq_failures_are_locator_errors():
    # no sign change and no convergence are LocatorErrors (exit 3), where
    # scipy's brentq raises ValueError and RuntimeError
    with pytest.raises(an.LocatorError, match=r"^no root in \[-1, 2\]"):
        an._brentq(lambda d: d * d + 1.0, -1.0, 2.0, 1e-12, 1e-15)
    # a step at 1/3 in a bracket of width 2e300 needs ~1,000 bisections,
    # where scipy's brentq gives up too
    with pytest.raises(an.LocatorError, match="after 100 steps"):
        an._brentq(lambda d: -1.0 if d < 1.0 / 3.0 else 1.0, -1e300, 1e300,
                   5e-324, 4.0 * sys.float_info.epsilon)
    with pytest.raises(RuntimeError, match="Failed to converge"):
        optimize.brentq(lambda d: -1.0 if d < 1.0 / 3.0 else 1.0, -1e300,
                        1e300, xtol=5e-324)


@given(w=st.floats(1.0, 1e3), c=st.floats(-0.999, 0.999))
def test_numeric_peak_has_no_width_floor(w, c):
    # a minimizer resolves a flat peak only to about sqrt(eps) * width; the
    # slope's root resolves it to rounding
    centre = c * w
    got = an.numeric_peak(lambda d: 1.0 / (1.0 + ((d - centre) / w) ** 2),
                          4.0 * w)
    assert abs(got - centre) <= 1e-10 * w


@pytest.mark.parametrize("a", [0.0, 1.0])
def test_gaussian_peak_gap_does_not_grow_with_doppler_width(a):
    # the located peak of the Gaussian n2 + n3 line against the closed
    # shift: at x = 1e-3 the gap is the x^2 remainder, which a wider
    # Doppler profile does not enlarge
    def gap(gv):
        p = NormalizedParams.build(x=1e-3, a_ratio=a, gamma_v_tilde=gv,
                                   mu=math.sqrt(2.0), kind="gaussian")
        got = an.numeric_peak(lambda d: an.n2(p, d) + an.n3(p, d),
                              bracket_halfwidth=4.0 * (1.0 + gv))
        return rel_err(got, an.stark_shift(p))
    narrow, wide = gap(0.05), gap(100.0)
    assert wide <= narrow, f"gaps {narrow:.3e} at 0.05, {wide:.3e} at 100"


def test_numeric_width_of_gaussian_profile():
    base = NormalizedParams.build(delta_tilde=0.0, a_ratio=1.0, mu=1.0,
                                  phi_tilde=1.0, x=1e-3, gamma_v_tilde=5.0,
                                  kind="gaussian")
    curve = lambda d: averaged_population(replace(base, delta_tilde=float(d)), order=2)
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
            lambda d: oracle_average(replace(base, delta_tilde=float(d))))
        gaps.append(rel_err(got, want))
    assert gaps[0] >= 50.0 * gaps[1], f"relative gaps {gaps}"


def test_numeric_peak_of_solver_profile():
    base = NormalizedParams.build(delta_tilde=0.0, a_ratio=0.0,
                                  mu=math.sqrt(2.0), phi_tilde=1.0,
                                  delta_big_tilde=1e3)
    curve = lambda d: oracle_average(replace(base, delta_tilde=float(d)))
    got = an.numeric_peak(curve, bracket_halfwidth=4.0)
    want = an.stark_shift(base)
    assert got * want > 0.0
    assert rel_err(got, want) <= 0.01
