import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from tpa import averaging, oracle
from tpa.core import NormalizedParams, ParameterError
from tpa.oracle import (ConsistencyError, HarmonicDensityMatrix, LinearSystem,
                        SolverError, SteadyStateProblem, TruncationError)
from tpa.perturbative import upper_dc_series

from conftest import dense, fresh_python, reference_system, rel_err


def _problem(delta=0.0, a=1.0, mu=1.0, phi=1.0, dbig=1e3, omega=0.0, n_max=9,
             **kw):
    p = NormalizedParams.build(delta_tilde=delta, a_ratio=a, mu=mu,
                               phi_tilde=phi, delta_big_tilde=dbig, **kw)
    return SteadyStateProblem(params=p, omega=omega, n_max=n_max)


def test_problem_rejects_tiny_truncation():
    with pytest.raises(ParameterError):
        _problem(n_max=2)


@pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
def test_problem_rejects_nonfinite_velocity(omega):
    p = NormalizedParams.build(delta_big_tilde=1e3)
    with pytest.raises(ParameterError, match="omega"):
        SteadyStateProblem(p, omega, 9)
    with pytest.raises(ParameterError, match="omega"):
        oracle.refine(p, omega, 1e-14)


@pytest.mark.parametrize("n_max", [5.5, 5.0, True, "5"])
def test_problem_rejects_non_integer_truncation(n_max):
    with pytest.raises(ParameterError, match="n_max must be an integer"):
        _problem(n_max=n_max)


def test_problem_accepts_numpy_scalars():
    pr = _problem(omega=np.float64(0.7), n_max=np.int64(5))
    assert oracle.solve_steady_state(pr).n_max == 5


def test_zero_drive_gives_ground_state():
    rho = oracle.solve_steady_state(_problem(phi=0.0, n_max=5))
    assert rho.dc(1, 1) == pytest.approx(1.0, abs=1e-14)
    coeffs = rho.coeffs.copy()
    coeffs[1, 1, 5] = 0.0
    assert np.max(np.abs(coeffs)) < 1e-14


def test_system_dimension():
    system = oracle.assemble(_problem(n_max=5))
    assert system.dimension == 9 * 11 == 99
    # each row holds its diagonal first and at most 8 couplings
    assert system.starts.shape == (99,)
    assert system.cols.shape == system.vals.shape
    assert 99 < system.cols.size <= 9 * 99
    assert np.array_equal(system.cols[system.starts], np.arange(99))
    assert dense(system).shape == (99, 99)


def test_assembled_coupling_rows():
    mu, phi, a, delta, omega = 2.0, 0.7, 0.5, 0.3, 0.9
    dbig = 1e3
    pr = _problem(delta=delta, a=a, mu=mu, phi=phi, dbig=dbig, omega=omega,
                  n_max=3)
    system = oracle.assemble(pr)
    m = dense(system)
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
    rho.check_invariants()
    report = rho.invariant_report()
    assert set(report) == {"hermiticity", "trace_dc", "trace_ac", "parity",
                           "dc_imag", "dc_range"}
    matrix, rhs = reference_system(pr)
    defect = matrix @ rho.coeffs.reshape(-1) - rhs
    assert np.max(np.abs(defect)) < 1e-10


_finite = dict(allow_nan=False, allow_infinity=False)
_draws = dict(delta=st.floats(-3.0, 3.0, **_finite),
              a=st.floats(0.0, 1.5, **_finite),
              mu=st.floats(0.5, 2.0, **_finite),
              phi=st.floats(0.0, 1.5, **_finite),
              dbig=st.floats(50.0, 5e3, **_finite),
              sign=st.sampled_from([-1.0, 1.0]),
              omega=st.floats(-5.0, 5.0, **_finite))


def _matches_dense_reference(n_max, delta, a, mu, phi, dbig, sign, omega):
    pr = _problem(delta=delta, a=a, mu=mu, phi=phi, dbig=sign * dbig,
                  omega=omega, n_max=n_max)
    matrix, rhs = reference_system(pr)
    system = oracle.assemble(pr)
    assert np.array_equal(dense(system), matrix)
    assert np.array_equal(system.rhs, rhs)
    full = np.linalg.solve(matrix, rhs)
    rho = oracle.solve_steady_state(pr)
    assert np.max(np.abs(rho.coeffs.reshape(-1) - full)) < 1e-12
    # parity on the unreduced system: the dense solve of all 9 components
    # leaves the unpumped sector empty
    unpumped = oracle._banned(n_max).reshape(-1)
    assert np.max(np.abs(full[unpumped])) < 1e-14


@settings(max_examples=40)
@given(n_max=st.sampled_from([3, 5, 7]), **_draws)
def test_operator_and_reduced_solve_match_dense_reference(
        n_max, delta, a, mu, phi, dbig, sign, omega):
    _matches_dense_reference(n_max, delta, a, mu, phi, dbig, sign, omega)


@settings(max_examples=6)
@given(n_max=st.sampled_from([15, 31]), **_draws)
def test_deep_operator_and_reduced_solve_match_dense_reference(
        n_max, delta, a, mu, phi, dbig, sign, omega):
    _matches_dense_reference(n_max, delta, a, mu, phi, dbig, sign, omega)


@settings(max_examples=6)
@given(n_max=st.sampled_from([15, 31]),
       **dict(_draws, phi=st.floats(0.0, 30.0, **_finite),
              omega=st.floats(-60.0, 60.0, **_finite)))
def test_strong_drive_reduced_solve_matches_dense_reference(
        n_max, delta, a, mu, phi, dbig, sign, omega):
    # drives and velocities as deep as the truncation ladder goes: the one
    # refinement step must still land within 1e-12 of the dense solve
    _matches_dense_reference(n_max, delta, a, mu, phi, dbig, sign, omega)


_COHERENCES = [3 * i + j for i, j in oracle._ODD_PARITY]


def _element_and_harmonic(n_max):
    """Element number 3*i + j and harmonic n of every unknown."""
    element, n = np.divmod(np.arange(9 * (2 * n_max + 1)), 2 * n_max + 1)
    return element, n - n_max


def _row_of_slot(system):
    return np.repeat(np.arange(system.dimension),
                     np.diff(np.append(system.starts, system.cols.size)))


def _coupling_slots(system):
    """Mask over the slots: every slot but each row's diagonal."""
    coupling = np.ones(system.cols.size, dtype=bool)
    coupling[system.starts] = False
    return coupling


@pytest.mark.parametrize("n_max", range(3, 42, 2))
def test_couplings_alternate_between_classes(n_max):
    # the elimination needs both diagonal blocks of the pumped sector to be
    # diagonal: no coupling may join two elements of the same class
    system = oracle.assemble(_problem(a=0.7, omega=0.9, n_max=n_max))
    element, n = _element_and_harmonic(n_max)
    coherence = np.isin(element, _COHERENCES)
    pumped = ~oracle._banned(n_max).reshape(-1)
    coupling = _coupling_slots(system)
    row, col = _row_of_slot(system)[coupling], system.cols[coupling]
    assert np.array_equal(pumped[row], pumped[col])
    assert not np.any(coherence[row] == coherence[col])
    kept = np.flatnonzero(pumped & coherence)
    assert kept.size == 4 * (n_max + 1)
    assert np.all(n[kept] % 2 == 1)
    lay = oracle._layout(n_max)
    assert np.array_equal(lay.kept, kept)
    assert np.array_equal(lay.elim, np.flatnonzero(pumped & ~coherence))
    # every row of both classes has couplings, one segment each
    assert lay.kept_starts.size == lay.kept.size
    assert lay.elim_starts.size == lay.elim.size


@pytest.mark.parametrize("n_max", [3, 4, 7, 31])
def test_solve_factorizes_only_the_coherence_block(monkeypatch, n_max):
    shapes = []

    def lu_factor(a, **kw):
        shapes.append(a.shape)
        return scipy.linalg.lu_factor(a, **kw)
    monkeypatch.setattr(oracle, "sla", SimpleNamespace(
        lu_factor=lu_factor, lu_solve=scipy.linalg.lu_solve))
    oracle.solve_steady_state(_problem(delta=0.3, a=0.8, omega=0.9,
                                       dbig=100.0, n_max=n_max))
    # four one-photon coherences on each odd harmonic
    size = 4 * (n_max + n_max % 2)
    assert shapes == [(size, size)]


# A stand-in for oracle.sla as the benchmark's tracer installs one before
# the first solve: it counts and forwards lu_factor and passes every other
# attribute through. Prints the lu_factor calls, n_used and dc(2, 2).
_COUNTED_REFINE = """
import json
from tpa import oracle
from tpa.core import NormalizedParams


class Counting:
    def __init__(self, sla):
        self._sla = sla
        self.calls = 0

    def lu_factor(self, *args, **kwargs):
        self.calls += 1
        return self._sla.lu_factor(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._sla, name)


oracle.sla = Counting(oracle.sla)
p = NormalizedParams.build(delta_tilde=0.3, a_ratio=1.0, mu=1.2,
                           phi_tilde=3.0, delta_big_tilde=100.0)
rho, n_used = oracle.refine(p, 0.7, 1e-14)
dc = rho.dc(2, 2)
print(json.dumps([oracle.sla.calls, n_used, dc.real, dc.imag]))
"""


def test_sla_stand_in_sees_every_factorization():
    done = fresh_python("-c", _COUNTED_REFINE)
    assert done.returncode == 0, done.stderr
    calls, n_used, re_dc, im_dc = json.loads(done.stdout.splitlines()[-1])
    # one factorization per rung of the ladder 3, 5, ..., n_used
    assert n_used > 5
    assert calls == (n_used - 3) // 2 + 1
    p = NormalizedParams.build(delta_tilde=0.3, a_ratio=1.0, mu=1.2,
                               phi_tilde=3.0, delta_big_tilde=100.0)
    rho, plain_n = oracle.refine(p, 0.7, 1e-14)
    assert plain_n == n_used
    assert rho.dc(2, 2) == complex(re_dc, im_dc)


def _miswired(kind):
    """An `assemble` whose operator holds one coupling the solve ignores.

    "unpumped": a coupling of an unpumped row reads the dc ground population
    (1, 1, 0) instead; "pumped": a pumped row's coupling to that population
    reads the unpumped (1, 1, 1) instead; "coherence": a one-photon
    coherence's coupling to that population reads the coherence (0, 2, 1),
    a coupling inside the kept class. The reduced solve is built from the
    cached layout, so only the full residual sees the change. The one
    refinement step cannot remove the first defect and only damps the
    others (its factorization is of the uncorrupted operator), so all stay
    far above the residual bound.
    """
    assemble = oracle.assemble

    def corrupted(problem):
        system = assemble(problem)
        nm = problem.n_max
        ground = oracle._index(1, 1, 0, nm)
        if kind == "unpumped":
            row = int(np.flatnonzero(oracle._banned(nm).reshape(-1))[0])
            slot, col = system.starts[row] + 1, ground
        else:
            to_ground = _coupling_slots(system) & (system.cols == ground)
            if kind == "coherence":
                element, _ = _element_and_harmonic(nm)
                to_ground &= np.isin(element[_row_of_slot(system)],
                                     _COHERENCES)
                col = oracle._index(0, 2, 1, nm)
            else:
                col = oracle._index(1, 1, 1, nm)
            slot = np.flatnonzero(to_ground)[0]
        cols = system.cols.copy()
        cols[slot] = col
        return LinearSystem(cols=cols, vals=system.vals, starts=system.starts,
                            rhs=system.rhs, n_max=system.n_max)
    return corrupted


@pytest.mark.parametrize("kind", ["unpumped", "pumped", "coherence"])
def test_sector_coupling_fails_full_residual(monkeypatch, kind):
    monkeypatch.setattr(oracle, "assemble", _miswired(kind))
    with pytest.raises(SolverError, match="residual"):
        oracle.solve_steady_state(_problem(delta=0.3, a=0.8, omega=0.9,
                                           dbig=100.0, n_max=5))


@pytest.mark.parametrize("element, n", [((2, 2), 1), ((0, 1), 2)])
def test_banned_parity_fails_invariants(element, n):
    rho = oracle.solve_steady_state(_problem(delta=0.3, a=0.8, n_max=5))
    bad = HarmonicDensityMatrix(5, rho.coeffs.copy())
    (i, j), nm = element, 5
    # a hermitian pair at a parity the element may not carry; on the
    # diagonal the ground state takes the opposite amount, so the trace
    # and hermiticity stay exact
    bad.coeffs[i, j, nm + n] += 1e-6
    bad.coeffs[j, i, nm - n] += 1e-6
    if i == j:
        bad.coeffs[1, 1, nm + n] -= 1e-6
        bad.coeffs[1, 1, nm - n] -= 1e-6
    report = bad.invariant_report()
    assert report["parity"] == pytest.approx(1e-6, rel=1e-6)
    assert all(v < 1e-8 for k, v in report.items() if k != "parity")
    with pytest.raises(ConsistencyError, match="parity"):
        bad.check_invariants()


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


@given(delta=st.floats(-2.0, 2.0, **_finite),
       a=st.floats(0.3, 1.4, **_finite),
       mu=st.floats(0.6, 1.8, **_finite),
       phi=st.floats(0.3, 1.2, **_finite),
       omega=st.floats(-4.0, 4.0, **_finite),
       dbig=st.floats(100.0, 2000.0, **_finite))
def test_beam_exchange_symmetry(delta, a, mu, phi, omega, dbig):
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
    rho, n_used = oracle.refine(p, 0.7, 1e-14)
    assert n_used == 5
    assert rho.n_max == 5


def test_refine_argument_and_cap_errors(monkeypatch):
    p = NormalizedParams.build(delta_tilde=0.5, a_ratio=1.0,
                               delta_big_tilde=100.0)
    for bad in (-1e-3, math.nan):
        with pytest.raises(ParameterError):
            oracle.refine(p, 0.0, bad)
    # a NaN tolerance is refused before the first solve, also through
    # the velocity average
    solves = []
    monkeypatch.setattr(oracle, "solve_steady_state",
                        lambda problem: solves.append(problem))
    lorentzian = NormalizedParams.build(delta_tilde=0.5, a_ratio=1.0,
                                        delta_big_tilde=100.0,
                                        gamma_v_tilde=1.0)
    for params in (p, lorentzian):
        with pytest.raises(ParameterError):
            averaging.oracle_average(params, refine_tol=math.nan)
    assert solves == []
    monkeypatch.undo()
    with pytest.raises(TruncationError):
        oracle.refine(p, 0.0, 1e-14, n_cap=3)
    q = NormalizedParams.build(delta_tilde=0.5, a_ratio=0.5,
                               delta_big_tilde=100.0)
    with pytest.raises(TruncationError):
        # an exact-zero tolerance can never be met by the strict criterion
        oracle.refine(q, 0.3, 0.0, n_cap=7)


def test_truncation_failure_names_its_knobs():
    # at strong drive the ladder runs out while the edge harmonics are still
    # live; the message shows that tail and names the settings to change
    p = NormalizedParams.build(delta_tilde=0.0, a_ratio=1.0, phi_tilde=30.0,
                               delta_big_tilde=100.0)
    with pytest.raises(TruncationError) as failure:
        oracle.refine(p, 0.0, 1e-14, n_cap=8)
    message = str(failure.value)
    assert "at n_max = 7;" in message
    assert "oracle.n_cap (now 8)" in message
    assert "oracle.refine_tol" in message
    tail = float(re.search(r"\|c\(i,j,\+-7\)\| (\S+);", message).group(1))
    last = oracle.solve_steady_state(SteadyStateProblem(p, 0.0, 7))
    edge = max(abs(last.coeff(i, j, n)) for i in range(3) for j in range(3)
               for n in (-7, 7))
    assert tail == pytest.approx(edge, rel=1e-3)
    assert tail > 1e-3
    assert "ladder started" not in message
    with pytest.raises(TruncationError, match="raise oracle.n_cap"):
        oracle.refine(p, 0.0, 1e-14, n_cap=4)
    # a ladder that skipped its low rungs says where it started
    with pytest.raises(TruncationError) as failure:
        oracle.refine(p, 0.0, 1e-14, n_cap=15, start=11)
    message = str(failure.value)
    assert "at n_max = 15;" in message
    assert "ladder started at n_max = 11;" in message
    assert "oracle.n_cap (now 15)" in message
    assert "oracle.refine_tol" in message


@settings(max_examples=40)
@given(delta=st.floats(-2.0, 2.0, **_finite), a=st.floats(0.0, 1.5, **_finite),
       mu=st.floats(0.5, 2.0, **_finite), phi=st.floats(0.3, 3.0, **_finite),
       dbig=st.floats(100.0, 1e3, **_finite),
       sign=st.sampled_from([-1.0, 1.0]),
       omega=st.floats(-10.0, 10.0, **_finite),
       start=st.integers(1, 15).map(lambda j: 2 * j + 1))
def test_refine_from_a_later_rung_stops_at_or_past_the_fresh_ladder(
        delta, a, mu, phi, dbig, sign, omega, start):
    # the stop test compares consecutive rungs only: a ladder started at or
    # below two rungs under the fresh n_used walks the fresh ladder's tail
    # and settles on its solution; one started higher settles deeper
    p = NormalizedParams.build(delta_tilde=delta, a_ratio=a, mu=mu,
                               phi_tilde=phi, delta_big_tilde=sign * dbig)
    fresh, k = oracle.refine(p, omega, 1e-14)
    rho, n_used = oracle.refine(p, omega, 1e-14, start=start)
    if start <= k - 2:
        assert n_used == k
        assert rho.dc(2, 2) == fresh.dc(2, 2)
        assert np.array_equal(rho.coeffs, fresh.coeffs)
    else:
        assert n_used >= start + 2 > k


@pytest.mark.parametrize("n_cap", [9, 10])
@pytest.mark.parametrize("start", [7, 9, 11, 99])
def test_refine_start_is_clamped_below_the_cap(monkeypatch, n_cap, start):
    # two rungs always fit: the ladder starts no higher than the deepest odd
    # rung under the cap minus 2, for an odd and an even cap alike
    p = NormalizedParams.build(delta_tilde=0.5, a_ratio=1.0, mu=1.0,
                               phi_tilde=0.01, delta_big_tilde=100.0)
    rungs = []
    solve = oracle.solve_steady_state
    monkeypatch.setattr(oracle, "solve_steady_state",
                        lambda problem: rungs.append(problem.n_max)
                        or solve(problem))
    _, n_used = oracle.refine(p, 0.7, 1e-14, n_cap=n_cap, start=start)
    assert rungs == [7, 9] and n_used == 9


def test_refine_start_leaves_small_caps_and_parity_checked():
    p = NormalizedParams.build(delta_tilde=0.5, a_ratio=1.0,
                               delta_big_tilde=100.0)
    for n_cap in (3, 4):
        with pytest.raises(TruncationError, match="too small to iterate"):
            oracle.refine(p, 0.0, 1e-14, n_cap=n_cap, start=11)
    with pytest.raises(ParameterError, match="odd"):
        oracle.refine(p, 0.0, 1e-14, start=8)


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
        bad.check_invariants()
    bad2 = HarmonicDensityMatrix(3, rho.coeffs.copy())
    bad2.coeffs[2, 2, 3] += 1e-4j
    with pytest.raises(ConsistencyError):
        bad2.check_invariants()


def test_nan_solution_fails_checks():
    nan = HarmonicDensityMatrix(3, np.full((3, 3, 7), np.nan, complex))
    with pytest.raises(ConsistencyError, match="nan"):
        nan.check_invariants()
    # one NaN harmonic in an otherwise valid solution
    rho = oracle.solve_steady_state(_problem(n_max=3))
    bad = HarmonicDensityMatrix(3, rho.coeffs.copy())
    bad.coeffs[0, 1, 4] = complex(np.nan, 0.0)
    with pytest.raises(ConsistencyError, match="hermiticity"):
        bad.check_invariants()


def test_dc_population_imag_guard():
    rho = oracle.solve_steady_state(_problem())
    assert oracle.dc_upper_population(rho) == pytest.approx(rho.dc(2, 2).real)
    bad = HarmonicDensityMatrix(rho.n_max, rho.coeffs.copy())
    bad.coeffs[2, 2, rho.n_max] += 1e-6j
    with pytest.raises(ConsistencyError):
        oracle.dc_upper_population(bad)


def test_condition_number_reported(monkeypatch):
    # a failed solve reports the condition estimate of its Schur complement
    monkeypatch.setattr(oracle, "assemble", _miswired("unpumped"))
    with pytest.raises(SolverError) as failure:
        oracle.solve_steady_state(_problem(n_max=3))
    found = re.search(r"condition estimate (\S+)\)", str(failure.value))
    cond = float(found.group(1))
    assert math.isfinite(cond) and cond > 1.0
