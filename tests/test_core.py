import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tpa.core import (NormalizedParams, ParameterError, _phi_squared,
                      epsilon_eff)

from conftest import lorentzian_density


def test_distribution_kind_width_invariant():
    NormalizedParams.build(delta_big_tilde=1e3, kind="homogeneous")
    NormalizedParams.build(delta_big_tilde=1e3, gamma_v_tilde=2.0,
                           kind="lorentzian")
    NormalizedParams.build(delta_big_tilde=1e3, gamma_v_tilde=2.0,
                           kind="gaussian")
    for gv, kind in ((0.0, "lorentzian"), (0.0, "gaussian"),
                     (1.0, "homogeneous"), (1.0, "voigt"),
                     (-1.0, "gaussian")):
        with pytest.raises(ParameterError):
            NormalizedParams.build(delta_big_tilde=1e3, gamma_v_tilde=gv,
                                   kind=kind)


def test_parameter_rules():
    base = dict(delta_tilde=0.5, gamma_v_tilde=2.0, a_ratio=1.0, mu=1.2,
                phi_tilde=1.0, delta_big_tilde=1e3, kind="lorentzian")
    NormalizedParams(**base)
    for name in ("delta_tilde", "gamma_v_tilde", "a_ratio", "mu",
                 "phi_tilde", "delta_big_tilde"):
        for bad in (math.nan, math.inf, -math.inf, True, "one", "0.5",
                    b"0.5", None):
            with pytest.raises(ParameterError, match=name):
                NormalizedParams(**{**base, name: bad})
    # float() reads text, but text is not a number
    for change in ({"x": "1e-3"}, {"x": 1e-3, "a_ratio": "0.5"}):
        with pytest.raises(ParameterError, match="must be a number, got '"):
            NormalizedParams.build(**change)
    for change in ({"delta_big_tilde": 0.0}, {"mu": 0.0}, {"mu": -1.0},
                   {"phi_tilde": -1.0}, {"a_ratio": -0.5}):
        with pytest.raises(ParameterError):
            NormalizedParams(**{**base, **change})
    with pytest.raises(ParameterError):
        NormalizedParams.build(delta_big_tilde=0.0)
    # one number rule: an integer beyond double range is named, not printed
    for name, strength in (("delta_tilde", "x"), ("phi_tilde", "x"),
                           ("x", "x"), ("delta_big_tilde", "delta_big_tilde")):
        with pytest.raises(ParameterError,
                           match=f"^{name} is beyond double precision$"):
            NormalizedParams.build(**{strength: 1e-3, name: 10 ** 400})


@given(phi=st.floats(-4.0, 4.0), x=st.floats(-8.0, 2.0),
       dbig=st.floats(-3.0, 8.0), sign=st.sampled_from([-1.0, 1.0]),
       delta=st.floats(-10.0, 10.0))
def test_build_keeps_x_consistent_with_phi_and_delta_big(phi, x, dbig, sign,
                                                         delta):
    # x is derived: phi**2 / delta_big bit for bit, from either input and
    # after a change of delta_tilde; it is no constructor argument
    for p in (NormalizedParams.build(phi_tilde=10.0 ** phi, x=sign * 10.0 ** x),
              NormalizedParams.build(phi_tilde=10.0 ** phi,
                                     delta_big_tilde=sign * 10.0 ** dbig)):
        for q in (p, dataclasses.replace(p, delta_tilde=delta)):
            assert q.x == _phi_squared(q.phi_tilde) / q.delta_big_tilde
        with pytest.raises(ValueError):
            dataclasses.replace(p, x=p.x)


def test_x_must_match_phi_and_delta_big():
    # the closed Lorentzian forms read x, the solver and the Gaussian
    # average phi_tilde and delta_big_tilde: one set, one atom
    base = dict(delta_tilde=0.5, gamma_v_tilde=2.0, a_ratio=1.0, mu=1.2,
                phi_tilde=1.0, delta_big_tilde=1e3, kind="lorentzian")
    assert NormalizedParams(**base).x == 1e-3
    with pytest.raises(TypeError):
        NormalizedParams(**base, x=1e-3)
    # no drive: x = 0 with phi_tilde = 0
    q = NormalizedParams.build(phi_tilde=0.0, delta_big_tilde=1e3)
    assert q.x == 0.0
    assert dataclasses.replace(q, delta_tilde=1.0).x == 0.0
    # phi_tilde**2 and x subnormal
    for phi, dbig in ((8.56e-156, -50.0), (1e-160, 1e10)):
        NormalizedParams.build(phi_tilde=phi, delta_big_tilde=dbig)
    # a subnormal delta_big makes phi**2 / delta_big overflow
    with pytest.raises(ParameterError, match="^x must be finite"):
        NormalizedParams.build(delta_big_tilde=1e-310)


def test_density_normalization_and_center():
    # the Lorentzian weight the moment checks integrate against
    gv = 3.0
    assert lorentzian_density(gv, 0.0) == pytest.approx(1.0 / (math.pi * gv))
    # half the center value at Omega = gamma_v
    assert lorentzian_density(gv, gv) == pytest.approx(
        0.5 * lorentzian_density(gv, 0.0))


def test_build_requires_exactly_one_strength_input():
    with pytest.raises(ParameterError):
        NormalizedParams.build()
    with pytest.raises(ParameterError):
        NormalizedParams.build(delta_big_tilde=1e3, x=1e-3)
    with pytest.raises(ParameterError):
        NormalizedParams.build(x=0.0)
    p = NormalizedParams.build(x=2e-3, phi_tilde=1.0)
    assert p.delta_big_tilde == pytest.approx(500.0)
    q = NormalizedParams.build(delta_big_tilde=-500.0, phi_tilde=1.0)
    assert q.x == pytest.approx(-2e-3)


def test_build_kind_defaults_and_invariant():
    assert NormalizedParams.build(delta_big_tilde=1e3).kind == "homogeneous"
    assert NormalizedParams.build(delta_big_tilde=1e3,
                                  gamma_v_tilde=2.0).kind == "lorentzian"
    p = NormalizedParams.build(delta_big_tilde=1e3, gamma_v_tilde=2.0,
                               kind="gaussian")
    assert (p.kind, p.gamma_v_tilde) == ("gaussian", 2.0)
    with pytest.raises(ParameterError):
        NormalizedParams.build(delta_big_tilde=1e3, kind="gaussian")
    with pytest.raises(ParameterError):
        NormalizedParams.build(delta_big_tilde=1e3, gamma_v_tilde=1.0,
                               kind="homogeneous")


def test_field_amplitudes_and_detuning_replace():
    p = NormalizedParams.build(delta_big_tilde=1e3, phi_tilde=0.8, a_ratio=0.5)
    assert p.phi1 == pytest.approx(0.8)
    assert p.phi2 == pytest.approx(0.4)
    q = dataclasses.replace(p, delta_tilde=2.5)
    assert q.delta_tilde == 2.5
    assert q.phi_tilde == p.phi_tilde and q.x == p.x


def test_epsilon_eff_takes_largest_scale():
    assert epsilon_eff(NormalizedParams.build(
        delta_big_tilde=100.0, delta_tilde=3.0)) == pytest.approx(0.03)
    assert epsilon_eff(NormalizedParams.build(
        delta_big_tilde=100.0, delta_tilde=0.2)) == pytest.approx(0.01)
    assert epsilon_eff(NormalizedParams.build(
        delta_big_tilde=-200.0, gamma_v_tilde=5.0)) == pytest.approx(0.025)
