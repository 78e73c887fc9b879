import json
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import event, given, settings, strategies as st

from tpa import averaging, cli, oracle
from tpa.core import NormalizedParams, ParameterError
from tpa.oracle import (ConsistencyError, HarmonicDensityMatrix, LadderSpec,
                        LinearSystem, SolverError, SteadyStateProblem,
                        TruncationError)
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
        oracle.refine(p, omega)


# Integers of 19 digits or more are refused unprinted, so a message stays
# short even for one beyond the 4,300 digits that str() of an int allows.
_NOT_SMALL_INTEGERS = (True, 5.0, "5", None, 10 ** 400, -10 ** 5000)


def _value_id(value):
    # pytest names a parameter by str(), which refuses 4,300 digits or more
    if isinstance(value, int) and abs(value) > 10 ** 18:
        return f"{'-' if value < 0 else ''}int_{value.bit_length()}_bits"
    return None


@pytest.mark.parametrize("n_max", [5.5, *_NOT_SMALL_INTEGERS], ids=_value_id)
def test_problem_rejects_non_integer_truncation(n_max):
    with pytest.raises(ParameterError,
                       match="n_max must be an integer") as error:
        _problem(n_max=n_max)
    assert len(str(error.value)) <= 100


def test_problem_accepts_numpy_scalars():
    pr = _problem(omega=np.float64(0.7), n_max=np.int64(5))
    assert oracle.solve_steady_state(pr).n_max == 5
    # every integer setting takes numpy integers, with the same results
    p = pr.params
    want = oracle.refine(p, 0.7, LadderSpec(9), start=5)
    ladder = LadderSpec(np.int64(9))
    assert type(ladder.n_cap) is int and ladder == LadderSpec(9)
    got = oracle.refine(p, 0.7, ladder, start=np.int64(5))
    assert got[1] == want[1] and np.array_equal(got[0].coeffs, want[0].coeffs)
    assert type(averaging.QuadratureSpec(nodes=np.int64(16)).nodes) is int
    f = lambda om: 1.0 / (1.0 + (0.3 - om) ** 2)
    assert averaging.velocity_average(
        f, "gaussian", 2.0, averaging.QuadratureSpec(nodes=np.int64(16))) == \
        averaging.velocity_average(f, "gaussian", 2.0,
                                   averaging.QuadratureSpec(nodes=16))


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


# One change to each input that assemble reads: the two-photon detuning,
# the intermediate detuning and its sign alone, the drive, the beam ratio
# (zero against minus zero too) and the dipole ratio.
_ASSEMBLY_INPUTS = {"delta": 0.4, "dbig": 500.0, "dbig_sign": -200.0,
                    "phi": 1.3, "a": 0.4, "a_sign": -0.0, "mu": 1.7}


@pytest.mark.parametrize("name", _ASSEMBLY_INPUTS)
def test_assembly_cache_keys_every_input(name):
    # assemble takes the Omega-independent values from a cache keyed by the
    # parameter set; two problems back to back at the same n_max and Omega
    # that differ in one input must each get their own operator
    base = dict(delta=0.3, a=0.0 if name == "a_sign" else 0.8, mu=1.2,
                phi=0.9, dbig=200.0, omega=0.7, n_max=5)
    key = name.removesuffix("_sign")
    problems = (_problem(**base),
                _problem(**dict(base, **{key: _ASSEMBLY_INPUTS[name]})))
    systems = [oracle.assemble(pr) for pr in problems]
    for pr, system in zip(problems, systems):
        matrix, rhs = reference_system(pr)
        assert np.array_equal(dense(system), matrix)
        assert np.array_equal(system.rhs, rhs)
    # bit for bit as from an empty cache, so that a zero's sign counts too
    oracle._fixed_values.cache_clear()
    assert (oracle.assemble(problems[1]).vals.tobytes()
            == systems[1].vals.tobytes())
    assert (oracle.assemble(problems[0]).vals.tobytes()
            == systems[0].vals.tobytes())


def test_assembly_cache_stays_bounded():
    # the per-class ladders of a Lorentzian average assemble every rung from
    # the cached couplings of its parameter set
    oracle._fixed_values.cache_clear()
    doc = {"observable": "oracle_avg",
           "sweep": {"axis": "delta_tilde", "start": 0.0, "stop": 0.5,
                     "count": 2},
           "fixed": {"delta_big_tilde": 1e3, "gamma_v_tilde": 2.0,
                     "a_ratio": 1.0, "mu": 1.2},
           "dist": {"kind": "lorentzian"}}
    cli.run_scan(cli.parse_scan_config(doc))
    info = oracle._fixed_values.cache_info()
    # one entry per (parameter set, n_max); the rungs of one ladder fit
    assert info.maxsize == (LadderSpec.n_cap - 1) // 2
    assert 0 < info.currsize <= info.maxsize
    assert info.hits > 10 * info.misses


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
    unpumped = oracle._layout(n_max).banned.reshape(-1)
    assert np.max(np.abs(full[unpumped])) < 1e-14


@settings(max_examples=40)
@given(n_max=st.sampled_from([3, 5, 7]), **_draws)
def test_operator_and_reduced_solve_match_dense_reference(
        n_max, delta, a, mu, phi, dbig, sign, omega):
    _matches_dense_reference(n_max, delta, a, mu, phi, dbig, sign, omega)


# both sides of the gate on the factorized size: 96 unknowns at n_max = 23,
# halved to 52, 64 and 84 above it
_DEEP = [23, 25, 31, 41]


@settings(max_examples=6)
@given(n_max=st.sampled_from(_DEEP), **_draws)
def test_deep_operator_and_reduced_solve_match_dense_reference(
        n_max, delta, a, mu, phi, dbig, sign, omega):
    _matches_dense_reference(n_max, delta, a, mu, phi, dbig, sign, omega)


@settings(max_examples=6)
@given(n_max=st.sampled_from(_DEEP),
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
    pumped = ~oracle._layout(n_max).banned.reshape(-1)
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


def test_schur_paths_match_the_quadratic_construction():
    # the reference pairs every kept coupling with every eliminated coupling
    # whose row is its column, by one comparison of all pairs, and orders
    # the paths by target entry, stably
    for n_max in range(3, 50):
        lay = oracle._layout(n_max)
        m = lay.kept.size
        kept_rows = np.repeat(np.arange(m), np.diff(
            lay.kept_starts, append=lay.kept_cols.size))
        path_kept, path_elim = np.nonzero(
            lay.kept_cols[:, None] == lay.elim_rows)
        target = kept_rows[path_kept] * m + lay.elim_cols[path_elim]
        order = np.argsort(target, kind="stable")
        assert np.array_equal(lay.path_kept, path_kept[order])
        assert np.array_equal(lay.path_elim, path_elim[order])


def test_layout_memory_grows_with_the_paths_not_their_square():
    # the paths take memory in proportion to their number; a comparison of
    # all pairs of couplings takes 55 MB at n_max = 301
    oracle._layout.__wrapped__(5)  # numpy's first-use allocations
    tracemalloc.start()
    try:
        oracle._layout.__wrapped__(301)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6


def _record_factorizations(monkeypatch):
    """Replace oracle.sla by a stand-in that records the shape of each
    matrix lu_factor is given."""
    shapes = []

    def lu_factor(a, **kw):
        shapes.append(a.shape)
        return scipy.linalg.lu_factor(a, **kw)
    monkeypatch.setattr(oracle, "sla", SimpleNamespace(
        lu_factor=lu_factor, lu_solve=scipy.linalg.lu_solve))
    return shapes


# Rows of the one factorized matrix: the four one-photon coherences on each
# odd harmonic, 4(n_max + n_max % 2), and half that above 96, where every
# other harmonic's block is eliminated first.
_FACTORIZED = {3: 16, 4: 16, 7: 32, 23: 96, 25: 52, 31: 64, 41: 84}


@pytest.mark.parametrize("n_max", _FACTORIZED)
def test_solve_factorizes_only_the_coherence_block(monkeypatch, n_max):
    shapes = _record_factorizations(monkeypatch)
    oracle.solve_steady_state(_problem(delta=0.3, a=0.8, omega=0.9,
                                       dbig=100.0, n_max=n_max))
    size = _FACTORIZED[n_max]
    assert shapes == [(size, size)]


def test_strong_drive_ladder_factorizes_at_most_96_unknowns(monkeypatch):
    # OpenBLAS threads zgetrf and zgetrs once m^2 >= 1e4; a ladder to the
    # default cap (tol 0 never settles) keeps every factorization below it
    shapes = _record_factorizations(monkeypatch)
    with pytest.raises(TruncationError):
        oracle.refine(_problem(delta=0.5, a=1.0, mu=1.2, phi=3.0,
                               dbig=100.0).params, 0.3,
                      LadderSpec(refine_tol=0.0))
    assert len(shapes) == (LadderSpec.n_cap - 1) // 2
    assert max(rows for rows, _ in shapes) <= 96
    assert shapes[-1] == (84, 84)


# A stand-in for oracle.sla as the benchmark's tracer installs one before
# the first solve: it counts and forwards lu_factor and passes every other
# attribute through; oracle.assemble is wrapped the same way. Prints the
# lu_factor calls, the n_max of each assembly, n_used and dc(2, 2).
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
assembled = []
assemble = oracle.assemble


def counted_assemble(problem):
    assembled.append(problem.n_max)
    return assemble(problem)


oracle.assemble = counted_assemble
p = NormalizedParams.build(delta_tilde=0.3, a_ratio=1.0, mu=1.2,
                           phi_tilde=3.0, delta_big_tilde=100.0)
rho, n_used = oracle.refine(p, 0.7)
dc = rho.dc(2, 2)
print(json.dumps([oracle.sla.calls, assembled, n_used, dc.real, dc.imag]))
"""


def test_sla_stand_in_sees_every_factorization():
    done = fresh_python("-c", _COUNTED_REFINE)
    assert done.returncode == 0, done.stderr
    calls, assembled, n_used, re_dc, im_dc = json.loads(
        done.stdout.splitlines()[-1])
    # one assembly and one factorization per rung of the ladder 3, 5, ...,
    # n_used: the assembly cache must not skip a call
    assert n_used > 5
    assert assembled == list(range(3, n_used + 1, 2))
    assert calls == len(assembled)
    p = NormalizedParams.build(delta_tilde=0.3, a_ratio=1.0, mu=1.2,
                               phi_tilde=3.0, delta_big_tilde=100.0)
    rho, plain_n = oracle.refine(p, 0.7)
    assert plain_n == n_used
    assert rho.dc(2, 2) == complex(re_dc, im_dc)


# Importing the oracle finds scipy.linalg without importing scipy; the first
# attribute read loads it, and `import scipy.linalg` then returns that very
# module. Prints which of scipy and numpy's core were imported before the
# first read, the factors of a 2x2 matrix, and whether the two modules are
# one.
_LAZY_LINALG = """
import json, sys
from tpa import oracle
before = [m for m in ("scipy", "numpy._core") if m in sys.modules]
lu, piv = oracle.sla.lu_factor([[2.0, 1.0], [1.0, 3.0]])
import scipy.linalg
print(json.dumps([before, lu.tolist(), piv.tolist(),
                  scipy.linalg is oracle.sla,
                  sys.modules["scipy.linalg"] is oracle.sla]))
"""


def test_lazy_linalg_loads_scipy_at_first_use():
    done = fresh_python("-c", _LAZY_LINALG)
    assert done.returncode == 0, done.stderr
    before, lu, piv, same, registered = json.loads(
        done.stdout.splitlines()[-1])
    assert before == []
    assert lu == [[2.0, 1.0], [0.5, 2.5]] and piv == [0, 1]
    assert same and registered


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
            banned = oracle._layout(nm).banned.reshape(-1)
            row = int(np.flatnonzero(banned)[0])
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
    for n_max in (5, 25):  # S factorized whole, and halved
        with pytest.raises(SolverError, match="residual"):
            oracle.solve_steady_state(_problem(delta=0.3, a=0.8, omega=0.9,
                                               dbig=100.0, n_max=n_max))


def _failing(routine, fail):
    # oracle._lapack with `routine` returning info 1 after `fail`'s outputs
    lapack = oracle._lapack
    return lambda name, dtype: ((lambda *args, **kwargs: fail(*args) + (1,))
                                if name == routine else lapack(name, dtype))


def test_getrs_failure_is_a_solver_error(monkeypatch):
    # a nonzero info from LAPACK means no solution, whole S or halved
    monkeypatch.setattr(oracle, "_lapack",
                        _failing("getrs", lambda lu, piv, b: (b,)))
    for n_max in (5, 25):
        with pytest.raises(SolverError,
                           match="LAPACK getrs failed with info 1"):
            oracle.solve_steady_state(_problem(delta=0.3, a=0.8, omega=0.9,
                                               dbig=100.0, n_max=n_max))


def test_geev_failure_is_a_solver_error(monkeypatch):
    # no eigendecomposition, no pole expansion, and no Gaussian average
    monkeypatch.setattr(oracle, "_lapack", _failing(
        "geev", lambda a: (a.diagonal(), np.ones(len(a)), None,
                           np.eye(len(a)))))
    p = NormalizedParams.build(delta_tilde=0.5, a_ratio=1.0, mu=1.2,
                               phi_tilde=1.0, delta_big_tilde=1e3,
                               gamma_v_tilde=2.0, kind="gaussian")
    with pytest.raises(SolverError, match="^LAPACK geev failed with info 1$"):
        oracle.pole_expansion(p, 5)
    with pytest.raises(SolverError, match="^LAPACK geev failed with info 1$"):
        averaging.oracle_average(p)
    # a real eigenvalue is a pole on the real axis, which the damping rules
    # out: geev's first pair a +- ib returned as the real a, twice
    monkeypatch.undo()
    lapack, real = oracle._lapack, []

    def one_real(name, dtype):
        def geev(*args, **kwargs):
            wr, wi, vl, vr, info = lapack(name, dtype)(*args, **kwargs)
            wi[:2] = 0.0
            real.append(float(wr[0]))
            return wr, wi, vl, vr, info
        return geev if name == "geev" else lapack(name, dtype)
    monkeypatch.setattr(oracle, "_lapack", one_real)
    message = ("real eigenvalue {!r} of the pole operator at n_max = {}, "
               "which the damping rules out")
    with pytest.raises(SolverError) as error:
        oracle.pole_expansion(p, 5)
    assert str(error.value) == message.format(real[-1], 5)
    with pytest.raises(SolverError) as error:
        averaging.oracle_average(p)  # at its first rung
    assert str(error.value) == message.format(real[-1], 3)


@settings(max_examples=50)
@given(n_max=st.sampled_from([3, 7, 13]),
       delta=st.floats(-3.0, 3.0, **_finite),
       a=st.floats(0.3, 1.2, **_finite).filter(lambda a: a != 1.0),
       mu=st.floats(0.6, 1.6, **_finite).filter(lambda mu: mu != 1.0),
       log_x=st.floats(-3.0, -0.6, **_finite),
       dbig=st.floats(100.0, 1e3, **_finite),
       sign=st.sampled_from([-1.0, 1.0]),
       omegas=st.lists(st.floats(-30.0, 30.0, **_finite), min_size=1,
                       max_size=3))
def test_pole_expansion_is_real_in_conjugate_pairs(
        n_max, delta, a, mu, log_x, dbig, sign, omegas):
    # rho is Hermitian, so the pole operator is unitarily real: its poles
    # come in exact conjugate pairs with conjugate residues, and the pole
    # form returns the half above the axis. The Hermitian part of
    # A(a + ib), -gamma + b diag(n/2), keeps every pole 2 gamma / n_max off
    # the real axis. Twice the real part of the sum holds a direct solve to
    # 1e-12 of the size of the terms of both halves: at weak drive they
    # cancel to the population, which then carries about eps / x relative
    p = NormalizedParams.build(
        delta_tilde=delta, a_ratio=a, mu=mu, delta_big_tilde=sign * dbig,
        phi_tilde=math.sqrt(10.0 ** log_x * dbig))
    residues, poles = oracle.pole_expansion(p, n_max)
    assert poles.size == residues.size == (9 * n_max - 1) // 2
    assert poles.imag.min() >= 2.0 / n_max * (1.0 - 1e-8)
    for omega in omegas:
        terms = residues / (omega - poles)
        direct = oracle.solve_steady_state(
            SteadyStateProblem(p, omega, n_max)).dc(2, 2)
        assert (abs(2.0 * terms.sum().real - direct)
                <= 1e-12 * 2.0 * np.abs(terms).sum())


@pytest.mark.parametrize("n_max, poles", [(4, 18), (5, 22), (6, 27)])
def test_pole_count_follows_the_parity_of_the_truncation(n_max, poles):
    # the pumped sector holds 9 n_max + 4 rows at odd n_max and 9 n_max + 5
    # at even n_max; its 5 rows at n = 0 eliminate, and half the poles of
    # the rest lie above the axis
    p = NormalizedParams.build(delta_tilde=0.5, a_ratio=0.7, mu=1.2,
                               phi_tilde=1.0, delta_big_tilde=1e3)
    residues, above = oracle.pole_expansion(p, n_max)
    assert above.size == residues.size == poles
    assert above.imag.min() >= 2.0 / n_max * (1.0 - 1e-8)


@pytest.mark.parametrize("dbig", [1e2, -1e2, 1e4, -1e4])
@pytest.mark.parametrize("phi", [0.5, 10.0])
@pytest.mark.parametrize("omega", [0.0, 60.0])
@pytest.mark.parametrize("n_max", [5, 41])
def test_double_precision_residual_tracks_extended(dbig, phi, omega, n_max):
    # the check after the refinement step reads the full residual in
    # complex128: it must sit within rounding of the extended-precision
    # residual, far below the 1e-10 bound it is held to
    pr = _problem(delta=0.3, a=0.8, mu=1.2, phi=phi, dbig=dbig, omega=omega,
                  n_max=n_max)
    x = oracle.solve_steady_state(pr).coeffs.reshape(-1)
    system = oracle.assemble(pr)
    extended = LinearSystem(cols=system.cols, starts=system.starts,
                            vals=system.vals.astype(np.clongdouble),
                            rhs=system.rhs, n_max=n_max)
    r = system.rhs - system.apply(x)
    exact = system.rhs - extended.apply(x.astype(np.clongdouble))
    assert np.abs(r - exact).max() <= 1e-13
    assert np.abs(r).max() <= 1e-13


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
    rho, n_used = oracle.refine(p, 0.7)
    assert n_used == 5
    assert rho.n_max == 5


def test_refine_argument_and_cap_errors(monkeypatch):
    p = NormalizedParams.build(delta_tilde=0.5, a_ratio=1.0,
                               delta_big_tilde=100.0)
    for bad in (-1e-3, math.nan):
        with pytest.raises(ParameterError, match="^refine_tol must be"):
            LadderSpec(refine_tol=bad)
    # the settings are a LadderSpec: the keywords that carried them before
    # raise before the first solve, in refine and in the velocity average
    solves = []
    monkeypatch.setattr(oracle, "solve_steady_state",
                        lambda problem: solves.append(problem))
    lorentzian = NormalizedParams.build(delta_tilde=0.5, a_ratio=1.0,
                                        delta_big_tilde=100.0,
                                        gamma_v_tilde=1.0)
    for removed in ({"n_cap": 41}, {"refine_tol": 1e-14}):
        for params in (p, lorentzian):
            with pytest.raises(TypeError, match="unexpected keyword"):
                averaging.oracle_average(params, **removed)
        with pytest.raises(TypeError, match="unexpected keyword"):
            oracle.refine(p, 0.0, **removed)
    with pytest.raises(TypeError, match="unexpected keyword"):
        oracle.refine(p, 0.0, tol=1e-14)
    # a cap below 5 leaves the stop test one rung, and is refused too
    with pytest.raises(ParameterError, match="n_cap must be an integer >= 5"):
        LadderSpec(n_cap=3)
    assert solves == []
    monkeypatch.undo()
    q = NormalizedParams.build(delta_tilde=0.5, a_ratio=0.5,
                               delta_big_tilde=100.0)
    with pytest.raises(TruncationError):
        # an exact-zero tolerance can never be met by the strict criterion
        oracle.refine(q, 0.3, LadderSpec(7, 0.0))


def test_truncation_failure_names_its_knobs():
    # at strong drive the ladder runs out while the edge harmonics are still
    # live; the message shows that tail and names the settings to change
    p = NormalizedParams.build(delta_tilde=0.0, a_ratio=1.0, phi_tilde=30.0,
                               delta_big_tilde=100.0)
    with pytest.raises(TruncationError) as failure:
        oracle.refine(p, 0.0, LadderSpec(8))
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
    with pytest.raises(ParameterError, match="n_cap must be an integer >= 5"):
        LadderSpec(4)
    # a ladder that skipped its low rungs says where it started
    with pytest.raises(TruncationError) as failure:
        oracle.refine(p, 0.0, LadderSpec(15), start=11)
    message = str(failure.value)
    assert "at n_max = 15;" in message
    assert "ladder started at n_max = 11;" in message
    assert "oracle.n_cap (now 15)" in message
    assert "oracle.refine_tol" in message


@settings(max_examples=200)
@given(values=st.lists(st.floats(-1.0, 1.0, **_finite), min_size=20,
                       max_size=20),
       tol=st.sampled_from([0.0, 1e-3, 0.1, 0.5]), n_cap=st.integers(5, 41),
       start=st.integers(-3, 21).map(lambda j: 2 * j + 1))
def test_ladder_stops_at_the_first_settled_rung(values, tol, n_cap, start):
    # the one truncation ladder of refine and the Gaussian average, on a
    # synthetic rung sequence: from any start that refine's clamp leaves, it
    # climbs the odd rungs and stops at the first whose value moved by less
    # than refine_tol; an exhausted ladder names what it climbed and both
    # knobs, with its caller's detail on the last rung
    ladder = LadderSpec(n_cap, tol)
    top = n_cap if n_cap % 2 else n_cap - 1
    first = max(3, min(start, top - 2))
    climbed = []

    def rung(n_max):
        climbed.append(n_max)
        return values[(n_max - 3) // 2], f"rung {n_max}"
    rungs = list(range(first, n_cap + 1, 2))
    settled = [n for before, n in zip(rungs, rungs[1:]) if abs(
        values[(n - 3) // 2] - values[(before - 3) // 2]) < tol]
    if settled:
        event("settled")
        n = settled[0]
        assert oracle._climb(rung, first, ladder, "synthetic value") == (
            values[(n - 3) // 2], f"rung {n}", n)
        assert climbed == rungs[:rungs.index(n) + 1]
        return
    event("exhausted")
    with pytest.raises(TruncationError) as failure:
        oracle._climb(rung, first, ladder, "synthetic value",
                      lambda result: f", detail of {result}")
    last = rungs[-1]
    change = abs(values[(last - 3) // 2] - values[(last - 5) // 2])
    assert str(failure.value) == (
        f"synthetic value not settled to {tol:g} at n_max = {last}; last "
        f"change {change:.3e}, detail of rung {last}; raise oracle.n_cap "
        f"(now {n_cap}) or loosen oracle.refine_tol")
    assert climbed == rungs


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
    fresh, k = oracle.refine(p, omega)
    rho, n_used = oracle.refine(p, omega, start=start)
    if start <= k - 2:
        assert n_used == k
        assert rho.dc(2, 2) == fresh.dc(2, 2)
        assert np.array_equal(rho.coeffs, fresh.coeffs)
    else:
        assert n_used >= start + 2 > k


def _no_solve(problem):
    raise AssertionError("solved a ladder the mirror memo answers")


@settings(max_examples=100)
@given(delta=st.floats(-2.0, 2.0, **_finite),
       mu=st.floats(0.5, 2.0, **_finite), phi=st.floats(0.3, 3.0, **_finite),
       dbig=st.floats(100.0, 1e3, **_finite),
       sign=st.sampled_from([-1.0, 1.0]),
       omega=st.floats(-10.0, 10.0, **_finite).filter(bool))
def test_equal_beams_fold_the_mirror_class_onto_the_settled_ladder(
        delta, mu, phi, dbig, sign, omega):
    # at A = 1, E(-z) = -E(z): the class -Omega is the class Omega mirrored
    # by c(i,j,n) -> U_ii U_jj c(i,j,-n), U = diag(1, -1, -1), so refine
    # answers it from the ladder it settled last, without a solve, and as
    # the ladder of its own would
    p = NormalizedParams.build(delta_tilde=delta, a_ratio=1.0, mu=mu,
                               phi_tilde=phi, delta_big_tilde=sign * dbig)
    oracle._mirror_memo = None
    _, k = oracle.refine(p, omega)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "solve_steady_state", _no_solve)
        folded, n_folded = oracle.refine(p, -omega, start=k - 2)
    oracle._mirror_memo = None
    fresh, n_fresh = oracle.refine(p, -omega, start=k - 2)
    assert n_folded == n_fresh == k
    # the dc population as the averages read it: the mirror and the fresh
    # solve round apart by at most 1 ulp (bit for bit on most draws; at
    # delta = 0, mu = 0.5, phi = 0.3, delta_big = -100, Omega = 8.35 by 1)
    dc = oracle.dc_upper_population(fresh)
    assert abs(oracle.dc_upper_population(folded) - dc) <= math.ulp(dc)
    assert np.max(np.abs(folded.coeffs - fresh.coeffs)) <= 1e-15


def _mirror_solves(monkeypatch, settled, asked, omega=1.5):
    """Solves of the ladder at -omega asked after the one settled at omega;
    each a dict of refine's arguments besides omega."""
    oracle._mirror_memo = None
    solves = []
    solve = oracle.solve_steady_state
    monkeypatch.setattr(oracle, "solve_steady_state",
                        lambda problem: solves.append(problem)
                        or solve(problem))
    _, n_used = oracle.refine(omega=omega, **settled)
    del solves[:]
    oracle.refine(omega=-omega, **asked)
    monkeypatch.undo()
    return len(solves), n_used


def test_mirror_fold_needs_equal_beams_and_the_same_ladder(monkeypatch):
    # only the exact mirror of the last settled ladder folds; a call that
    # differs in the beams, the parameters, the ladder's tol or cap, or
    # starts below the settled ladder's first rung or above its n_used - 2,
    # solves; an equal LadderSpec is the same ladder
    kw = dict(delta_tilde=0.5, mu=1.2, phi_tilde=2.0, delta_big_tilde=100.0)
    p = NormalizedParams.build(a_ratio=1.0, **kw)
    same = dict(params=p, ladder=LadderSpec(), start=7)
    solves, k = _mirror_solves(monkeypatch, same, same)
    assert solves == 0 and k >= 11
    equal = dict(same, ladder=LadderSpec(41, 1e-14))
    assert _mirror_solves(monkeypatch, same, equal)[0] == 0
    shifted = NormalizedParams.build(a_ratio=1.0, **dict(kw, delta_tilde=0.6))
    for asked in (dict(same, params=shifted),
                  dict(same, ladder=LadderSpec(refine_tol=1e-13)),
                  dict(same, ladder=LadderSpec(39)), dict(same, start=5),
                  dict(same, start=k)):
        assert _mirror_solves(monkeypatch, same, asked)[0] > 0
    unequal = dict(same, params=NormalizedParams.build(a_ratio=0.999, **kw))
    assert _mirror_solves(monkeypatch, unequal, unequal)[0] > 0


def test_a_ladder_that_raises_keeps_no_mirror(monkeypatch):
    p = NormalizedParams.build(delta_tilde=0.5, a_ratio=1.0, mu=1.0,
                               phi_tilde=0.01, delta_big_tilde=100.0)
    oracle.refine(p, 0.7)
    assert oracle._mirror_memo is not None
    # an exact-zero tolerance is never met: the ladder raises and drops the
    # mirror the settled ladder kept, so its own mirror raises too
    with pytest.raises(TruncationError):
        oracle.refine(p, 0.7, LadderSpec(7, 0.0))
    assert oracle._mirror_memo is None
    rungs = []
    solve = oracle.solve_steady_state
    monkeypatch.setattr(oracle, "solve_steady_state",
                        lambda problem: rungs.append(problem.n_max)
                        or solve(problem))
    with pytest.raises(TruncationError):
        oracle.refine(p, -0.7, LadderSpec(7, 0.0))
    assert rungs == [3, 5, 7]
    oracle.refine(p, -0.7)
    assert rungs[3:] == [3, 5]


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
    _, n_used = oracle.refine(p, 0.7, LadderSpec(n_cap), start=start)
    assert rungs == [7, 9] and n_used == 9


def test_refine_start_leaves_small_caps_and_parity_checked(monkeypatch):
    def no_solve(problem):
        raise AssertionError("solved before the settings were checked")
    monkeypatch.setattr(oracle, "solve_steady_state", no_solve)
    p = NormalizedParams.build(delta_tilde=0.5, a_ratio=1.0,
                               delta_big_tilde=100.0)
    for n_cap in (3, 4):
        with pytest.raises(ParameterError,
                           match=f"n_cap must be an integer >= 5, got {n_cap}"):
            oracle.refine(p, 0.0, LadderSpec(n_cap), start=11)
    with pytest.raises(ParameterError, match="odd"):
        oracle.refine(p, 0.0, start=8)


@pytest.mark.parametrize("setting, match", [
    ({"n_cap": 5.5}, "n_cap must be an integer"),
    ({"n_cap": 41.0}, "n_cap must be an integer"),
    ({"n_cap": True}, "n_cap must be an integer"),
    ({"start": 3.0}, "start must be an integer"),
    ({"start": True}, "start must be an integer"),
    ({"refine_tol": math.inf}, "tol must be finite"),
    # the stop test needs two rungs, n_max = 3 and 5
    ({"n_cap": 3}, "n_cap must be an integer >= 5"),
    ({"n_cap": 4}, "n_cap must be an integer >= 5"),
    # no other number, no integer of 19 digits or more, and no even start
    *(({key: bad}, f"{key} must be an") for key in ("n_cap", "start")
      for bad in _NOT_SMALL_INTEGERS[1:]),
    ({"start": 10 ** 5000}, "start must be an"),
    *(({"refine_tol": bad}, "refine_tol must be a number")
      for bad in (True, "x", "1e-14", None)),
])
def test_refine_rejects_bad_settings_before_any_solve(monkeypatch, setting,
                                                       match):
    def no_solve(problem):
        raise AssertionError("solved before the settings were checked")
    monkeypatch.setattr(oracle, "solve_steady_state", no_solve)
    # the cap and the tolerance are refused by LadderSpec, start by refine
    p = NormalizedParams.build(delta_tilde=0.5, a_ratio=1.0,
                               delta_big_tilde=100.0)
    with pytest.raises(ParameterError, match=match) as error:
        if "start" in setting:
            oracle.refine(p, 0.0, **setting)
        else:
            oracle.refine(p, 0.0, LadderSpec(**setting))
    assert len(str(error.value)) <= 100


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
    # a failed solve names the Schur complement's size and the size of the
    # block it factorized, and reports the condition number of that block
    monkeypatch.setattr(oracle, "assemble", _miswired("unpumped"))
    for n_max, schur, factorized in ((3, 16, 16), (25, 104, 52)):
        with pytest.raises(SolverError) as failure:
            oracle.solve_steady_state(_problem(n_max=n_max))
        message = str(failure.value)
        assert (f"Schur complement {schur}, factorized block {factorized};"
                in message)
        found = re.search(
            r"of the factorized block, rows equilibrated, (\S+)\)", message)
        cond = float(found.group(1))
        assert math.isfinite(cond) and cond > 1.0
