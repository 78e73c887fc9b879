import math

import numpy as np
import pytest

from tpa import oracle
from tpa.core import NormalizedParams, ParameterError
from tpa.oracle import (ConsistencyError, HarmonicDensityMatrix,
                        SteadyStateProblem, TruncationError)
from tpa.perturbative import upper_dc_series

from conftest import rel_err


def _problem(delta=0.0, a=1.0, mu=1.0, phi=1.0, dbig=1e3, omega=0.0, n_max=9,
             **kw):
    p = NormalizedParams.build(delta_tilde=delta, a_ratio=a, mu=mu,
                               phi_tilde=phi, delta_big_tilde=dbig, **kw)
    return SteadyStateProblem(params=p, omega=omega, n_max=n_max)


def test_problem_rejects_tiny_truncation():
    with pytest.raises(ParameterError):
        _problem(n_max=2)


def test_zero_drive_gives_ground_state():
    rho = oracle.solve_steady_state(_problem(phi=0.0, n_max=5))
    assert rho.dc(1, 1) == pytest.approx(1.0, abs=1e-14)
    coeffs = rho.coeffs.copy()
    coeffs[1, 1, 5] = 0.0
    assert np.max(np.abs(coeffs)) < 1e-14


def test_system_dimension():
    system = oracle.assemble(_problem(n_max=5))
    assert system.dimension == 9 * 11 == 99
    assert system.matrix.shape == (99, 99)


def test_assembled_coupling_rows():
    mu, phi, a, delta, omega = 2.0, 0.7, 0.5, 0.3, 0.9
    dbig = 1e3
    pr = _problem(delta=delta, a=a, mu=mu, phi=phi, dbig=dbig, omega=omega,
                  n_max=3)
    system = oracle.assemble(pr)
    m = system.matrix
    n_max = 3
    idx = lambda i, j, n: (3 * i + j) * (2 * n_max + 1) + (n + n_max)
    phi1, phi2 = phi, a * phi
    row = idx(2, 1, 0)
    assert m[row, idx(0, 1, -1)] == pytest.approx(1j * mu * phi1)
    assert m[row, idx(0, 1, +1)] == pytest.approx(-1j * mu * phi2)
    assert m[row, idx(2, 0, -1)] == pytest.approx(-1j * phi1)
    assert m[row, idx(2, 0, +1)] == pytest.approx(1j * phi2)
    assert m[row, row] == pytest.approx(-1.0 + 1j * delta)
    row = idx(1, 1, 0)
    assert m[row, idx(0, 1, +1)] == pytest.approx(1j * phi1)
    assert m[row, idx(0, 1, -1)] == pytest.approx(-1j * phi2)
    assert m[row, idx(1, 0, -1)] == pytest.approx(-1j * phi1)
    assert m[row, idx(1, 0, +1)] == pytest.approx(1j * phi2)
    assert m[row, row] == pytest.approx(-1.0)
    # the (0,0) dc row picks up the sideband shift on its diagonal
    row = idx(0, 0, 1)
    assert m[row, row] == pytest.approx(-1.0 - 0.5j * omega)
    rhs = np.zeros(system.dimension, dtype=complex)
    rhs[idx(1, 1, 0)] = -1.0
    assert np.array_equal(system.rhs, rhs)


def test_solution_invariants_and_residual():
    pr = _problem(delta=0.6, a=0.8, mu=1.3, phi=1.1, dbig=500.0, omega=1.4)
    rho = oracle.solve_steady_state(pr)
    rho.check_invariants(1e-8)
    report = rho.invariant_report()
    assert set(report) == {"hermiticity", "trace_dc", "trace_ac", "parity",
                           "dc_imag", "dc_range"}
    system = oracle.assemble(pr)
    defect = system.matrix @ rho.coeffs.reshape(-1) - system.rhs
    assert np.max(np.abs(defect)) < 1e-10


def test_upper_population_matches_weak_drive_series():
    pr = _problem(delta=0.0, a=1.0, mu=1.0, phi=1.0, dbig=1e3, omega=0.0)
    rho = oracle.solve_steady_state(pr)
    series = upper_dc_series(pr.params, 0.0, order=3)
    assert rel_err(rho.dc(2, 2), series) < 1e-3


def test_error_falls_off_two_orders_faster_than_drive():
    rels = []
    for dbig in (1e2, 1e3):
        pr = _problem(delta=0.5, a=0.7, mu=1.0, phi=1.0, dbig=dbig, omega=0.9)
        rho = oracle.solve_steady_state(pr)
        series = upper_dc_series(pr.params, 0.9, order=3)
        rels.append(rel_err(rho.dc(2, 2), series))
    ratio = rels[0] / rels[1]
    assert 20.0 < ratio < 500.0


def test_beam_exchange_symmetry(rng):
    for _ in range(5):
        delta = rng.uniform(-2.0, 2.0)
        a = rng.uniform(0.3, 1.4)
        mu = rng.uniform(0.6, 1.8)
        phi = rng.uniform(0.3, 1.2)
        omega = rng.uniform(-4.0, 4.0)
        dbig = rng.uniform(100.0, 2000.0)
        pr = _problem(delta=delta, a=a, mu=mu, phi=phi, dbig=dbig,
                      omega=omega, n_max=7)
        swapped = _problem(delta=delta, a=1.0 / a, mu=mu, phi=a * phi,
                           dbig=dbig, omega=-omega, n_max=7)
        rho = oracle.solve_steady_state(pr)
        rho_sw = oracle.solve_steady_state(swapped)
        for level in (0, 1, 2):
            assert abs(rho.dc(level, level)
                       - rho_sw.dc(level, level)) < 1e-10


def test_refine_stops_quickly_for_weak_drive():
    p = NormalizedParams.build(delta_tilde=0.5, a_ratio=1.0, mu=1.0,
                               phi_tilde=0.01, delta_big_tilde=100.0)
    rho, n_used = oracle.refine(SteadyStateProblem(p, 0.7), 1e-14)
    assert n_used == 5
    assert rho.n_max == 5


def test_refine_argument_and_cap_errors():
    p = NormalizedParams.build(delta_tilde=0.5, a_ratio=1.0,
                               delta_big_tilde=100.0)
    with pytest.raises(ParameterError):
        oracle.refine(SteadyStateProblem(p, 0.0), -1e-3)
    with pytest.raises(TruncationError):
        oracle.refine(SteadyStateProblem(p, 0.0), 1e-14, n_cap=3)
    q = NormalizedParams.build(delta_tilde=0.5, a_ratio=0.5,
                               delta_big_tilde=100.0)
    with pytest.raises(TruncationError):
        # an exact-zero tolerance can never be met by the strict criterion
        oracle.refine(SteadyStateProblem(q, 0.3), 0.0, n_cap=7)


def test_single_beam_needs_no_sidebands():
    vals = []
    for n_max in (3, 5, 9):
        pr = _problem(delta=0.5, a=0.0, mu=1.3, phi=1.0, dbig=200.0,
                      omega=1.1, n_max=n_max)
        vals.append(oracle.solve_steady_state(pr).dc(2, 2))
    assert abs(vals[0] - vals[2]) < 1e-14
    assert abs(vals[1] - vals[2]) < 1e-14


def test_coeff_outside_truncation_is_zero():
    rho = oracle.solve_steady_state(_problem(n_max=3))
    assert rho.coeff(0, 1, 4) == 0
    assert rho.coeff(0, 1, -4) == 0


def test_corrupted_solution_fails_checks():
    rho = oracle.solve_steady_state(_problem(n_max=3))
    bad = HarmonicDensityMatrix(3, rho.coeffs.copy())
    bad.coeffs[0, 1, 3] += 0.1  # breaks hermiticity against (1,0,-0) block
    with pytest.raises(ConsistencyError):
        bad.check_invariants(1e-8)
    bad2 = HarmonicDensityMatrix(3, rho.coeffs.copy())
    bad2.coeffs[2, 2, 3] += 1e-4j
    with pytest.raises(ConsistencyError):
        bad2.check_invariants(1e-8)


def test_dc_population_imag_guard():
    rho = oracle.solve_steady_state(_problem())
    assert oracle.dc_upper_population(rho) == pytest.approx(rho.dc(2, 2).real)
    bad = HarmonicDensityMatrix(rho.n_max, rho.coeffs.copy())
    bad.coeffs[2, 2, rho.n_max] += 1e-6j
    with pytest.raises(ConsistencyError):
        oracle.dc_upper_population(bad)


def test_condition_number_reported():
    system = oracle.assemble(_problem(n_max=3))
    cond = oracle.condition_number(system)
    assert math.isfinite(cond) and cond > 1.0
