import math

import pytest

from tpa.core import (AtomSpec, FieldSpec, NormalizedParams, ParameterError,
                      VelocityDistribution, denormalize, dump_parameters,
                      epsilon_eff, load_parameters, normalize)

from conftest import lorentzian_density


def test_atom_spec_validation():
    AtomSpec(gamma=1.0, delta_big=100.0)
    with pytest.raises(ParameterError):
        AtomSpec(gamma=0.0, delta_big=100.0)
    with pytest.raises(ParameterError):
        AtomSpec(gamma=-1.0, delta_big=100.0)
    with pytest.raises(ParameterError):
        AtomSpec(gamma=1.0, delta_big=0.0)
    with pytest.raises(ParameterError):
        AtomSpec(gamma=math.inf, delta_big=100.0)
    for mu in (0.0, -1.0):
        with pytest.raises(ParameterError):
            AtomSpec(gamma=1.0, delta_big=100.0, mu=mu)
    doc = dump_parameters(AtomSpec(gamma=1.0, delta_big=100.0),
                          FieldSpec(phi=1.0, a_ratio=1.0),
                          VelocityDistribution.homogeneous())
    with pytest.raises(ParameterError):
        load_parameters({**doc, "mu": -1})


def test_field_spec_validation():
    FieldSpec(phi=0.0, a_ratio=0.0)
    with pytest.raises(ParameterError):
        FieldSpec(phi=-0.1, a_ratio=0.0)
    with pytest.raises(ParameterError):
        FieldSpec(phi=1.0, a_ratio=-1.0)
    with pytest.raises(ParameterError):
        FieldSpec(phi=math.nan, a_ratio=0.0)


def test_distribution_kind_width_invariant():
    VelocityDistribution.homogeneous()
    VelocityDistribution.lorentzian(2.0)
    VelocityDistribution.gaussian(2.0)
    with pytest.raises(ParameterError):
        VelocityDistribution("lorentzian", 0.0)
    with pytest.raises(ParameterError):
        VelocityDistribution("homogeneous", 1.0)
    with pytest.raises(ParameterError):
        VelocityDistribution("voigt", 1.0)
    with pytest.raises(ParameterError):
        VelocityDistribution("gaussian", -1.0)


def test_density_normalization_and_center():
    # the Lorentzian weight the moment checks integrate against
    gv = 3.0
    assert lorentzian_density(gv, 0.0) == pytest.approx(1.0 / (math.pi * gv))
    # half the center value at Omega = gamma_v
    assert lorentzian_density(gv, gv) == pytest.approx(
        0.5 * lorentzian_density(gv, 0.0))


def test_normalize_denormalize_round_trip():
    atom = AtomSpec(gamma=2.0, delta_big=2000.0, mu=1.5)
    field = FieldSpec(phi=3.0, a_ratio=0.5, delta=1.0)
    dist = VelocityDistribution.lorentzian(4.0)
    p = normalize(atom, field, dist)
    assert p.delta_tilde == pytest.approx(0.5)
    assert p.gamma_v_tilde == pytest.approx(2.0)
    assert p.phi_tilde == pytest.approx(1.5)
    assert p.delta_big_tilde == pytest.approx(1000.0)
    assert p.x == pytest.approx(9.0 / 4000.0)
    assert p.x == pytest.approx(p.phi_tilde ** 2 / p.delta_big_tilde)
    atom2, field2, dist2 = denormalize(p, atom.gamma)
    assert atom2 == atom
    assert field2 == field
    assert dist2 == dist
    with pytest.raises(ParameterError):
        denormalize(p, 0.0)


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
    assert p.distribution() == VelocityDistribution.gaussian(2.0)
    with pytest.raises(ParameterError):
        NormalizedParams.build(delta_big_tilde=1e3, kind="gaussian")
    with pytest.raises(ParameterError):
        NormalizedParams.build(delta_big_tilde=1e3, gamma_v_tilde=1.0,
                               kind="homogeneous")


def test_field_amplitudes_and_with_delta():
    p = NormalizedParams.build(delta_big_tilde=1e3, phi_tilde=0.8, a_ratio=0.5)
    assert p.phi1 == pytest.approx(0.8)
    assert p.phi2 == pytest.approx(0.4)
    q = p.with_delta(2.5)
    assert q.delta_tilde == 2.5
    assert q.phi_tilde == p.phi_tilde and q.x == p.x


def test_epsilon_eff_takes_largest_scale():
    assert epsilon_eff(NormalizedParams.build(
        delta_big_tilde=100.0, delta_tilde=3.0)) == pytest.approx(0.03)
    assert epsilon_eff(NormalizedParams.build(
        delta_big_tilde=100.0, delta_tilde=0.2)) == pytest.approx(0.01)
    assert epsilon_eff(NormalizedParams.build(
        delta_big_tilde=-200.0, gamma_v_tilde=5.0)) == pytest.approx(0.025)


def test_parameter_document_round_trip():
    atom = AtomSpec(gamma=1.5, delta_big=-800.0, mu=1.2)
    field = FieldSpec(phi=2.0, a_ratio=1.0, delta=-0.3)
    dist = VelocityDistribution.gaussian(6.0)
    doc = dump_parameters(atom, field, dist)
    atom2, field2, dist2 = load_parameters(doc)
    assert (atom2, field2, dist2) == (atom, field, dist)


def test_parameter_document_rejects_bad_keys():
    doc = dump_parameters(AtomSpec(1.0, 100.0), FieldSpec(1.0, 0.0),
                          VelocityDistribution.homogeneous())
    with pytest.raises(ParameterError):
        load_parameters({**doc, "gammma": 1.0})
    short = dict(doc)
    del short["mu"]
    with pytest.raises(ParameterError):
        load_parameters(short)
    with pytest.raises(ParameterError):
        load_parameters({**doc, "dist": {"kind": "lorentzian", "gamma_v": 1.0,
                                         "fwhm": 2.0}})
    with pytest.raises(ParameterError):
        load_parameters({**doc, "dist": {"kind": "lorentzian"}})
    with pytest.raises(ParameterError):
        load_parameters([1, 2, 3])


def test_parameter_document_kind_case_insensitive():
    doc = dump_parameters(AtomSpec(1.0, 100.0), FieldSpec(1.0, 0.0),
                          VelocityDistribution.lorentzian(2.0))
    doc["dist"]["kind"] = "Lorentzian"
    _, _, dist = load_parameters(doc)
    assert dist.kind == "lorentzian"
