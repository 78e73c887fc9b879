"""Brute-force steady state of the driven three-level ladder at fixed velocity.

The transport equations for the population matrix,

    (d/dt + v d/dz) rho = -i [M, rho] - gamma*rho + gamma * |1><1| ,

with the drive E(z) = phi1*exp(ikz) - phi2*exp(-ikz) entering M through the
two optical couplings (M01 = -E, M20 = -mu*E), admit a z-periodic steady
state. Expanding every matrix element in spatial harmonics,
rho_ij(z) = sum_n c(i,j,n) exp(i n k z), turns the steady-state condition
into one finite complex linear system over all c(i,j,n), |n| <= n_max:

  * d/dt -> 0, and v d/dz acts diagonally as i*n*(Omega/2) with Omega = 2kv;
  * multiplication by E (or E*) shifts n by -+1 and couples neighbors;
  * relaxation adds -gamma on the diagonal, and the pump gamma*|1><1| is the
    single inhomogeneous entry, at (1,1,n=0).

Every row holds its diagonal and at most 8 couplings, so the operator is
kept in row-slot form (a column and a value per live slot), filled from a
layout cached per truncation order. Each coupling flips an element between
the even-n class (populations, rho12, rho21) and the odd-n class (the
one-photon coherences) while shifting n by one, so the unknowns split into
two sectors that never couple: the pumped sector (even-n class on even n,
odd-n class on odd n), which holds the pump, and its complement, whose
homogeneous equations leave it zero (Stenholm & Lamb, Phys. Rev. 181, 618
(1969)). Inside the pumped sector no coupling joins two elements of the same
class, so both diagonal blocks are diagonal: the even class is eliminated
exactly, through pivots -1 - i(n*Omega/2 + M_ii - M_jj) of modulus at least
gamma, and the one LU factorization of a solve is of the Schur complement on
the 4 one-photon coherences of each odd harmonic (the large-detuning
elimination of the weak-drive theory, made exact; H. Risken, The
Fokker-Planck Equation, ch. 9). The triangular solves with its factors call
LAPACK getrs directly. One step of iterative refinement follows, from the
residual of the full 9-component system accumulated in extended precision;
that residual is also the check, so a coupling the reduced solve assumes
absent, between the sectors or inside a class, shows up as a defect.
Hermiticity, trace, parity and population range are checked on the solution
rather than imposed.

scipy.linalg is the module attribute `sla`, loaded lazily at the first
solve, so that importing tpa for a closed-form scan loads no scipy.linalg.
Every factorization reads sla.lu_factor through that attribute, so a
stand-in assigned to it (bench/tracer.py's LAPACK proxy, which counts and
times the factorizations) sees each one.

All quantities are in normalized (gamma = 1) units.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import (NormalizedParams, ParameterError, _lazy_module,
                   _require_finite)

__all__ = ["OracleError"]

DEFAULT_N_CAP = 41

# Largest defect |b - A c| a solve may leave, largest imaginary part the dc
# upper population may carry, and largest entry of
# HarmonicDensityMatrix.invariant_report that check_invariants accepts.
_RESIDUAL_TOL = 1e-10
_IMAG_TOL = 1e-10
_INVARIANT_TOL = 1e-8

# Spatial-harmonic parity of each matrix element: populations and the
# two-photon coherence rho21 live on even n, one-photon coherences on odd n.
_ODD_PARITY = {(0, 1), (1, 0), (2, 0), (0, 2)}

# Couplings of element (i, j): (i', j', coefficient, rule), one entry per
# factor of -i[M, rho], with the coefficients i, i*mu, -i, -i*mu numbered
# 0..3. Rule "e" is coef * (E rho)_n, rule "ec" is coef * (E* rho)_n.
_COUPLINGS = {
    (i, j): ([(1, j, 0, "e"), (2, j, 1, "ec")] if i == 0 else
             [(0, j, 0, "ec")] if i == 1 else [(0, j, 1, "e")])
    + ([(i, 1, 2, "ec"), (i, 2, 3, "e")] if j == 0 else
       [(i, 0, 2, "e")] if j == 1 else [(i, 0, 3, "ec")])
    for i in range(3) for j in range(3)
}
# E = phi1 e^{ikz} - phi2 e^{-ikz}: each rule reads harmonic n + dn with the
# field factor phi1 (f = 0) or -phi2 (f = 1).
_RULES = {"e": ((-1, 0), (+1, 1)), "ec": ((+1, 0), (-1, 1))}
_SLOTS = 9  # the diagonal and up to 8 couplings per row

sla = _lazy_module("scipy.linalg")


@functools.cache
def _getrs():
    """The LAPACK routine behind scipy.linalg.lu_solve, called on the factors
    of sla.lu_factor without the wrapper's per-call checks.

    Built at the first solve from scipy.linalg itself, not through `sla`,
    so that a stand-in for `sla` need carry only lu_factor.
    """
    return _lazy_module("scipy.linalg").get_lapack_funcs("getrs",
                                                         dtype=complex)


class OracleError(RuntimeError):
    """Base class for steady-state solver failures."""


class SolverError(OracleError):
    """Linear solve failed or left a residual above tolerance."""


class TruncationError(OracleError):
    """Harmonic truncation ladder exhausted without convergence."""


class ConsistencyError(OracleError):
    """A structural invariant of the solution is violated."""


@dataclass(frozen=True)
class SteadyStateProblem:
    """One steady-state solve: parameters, velocity class, truncation order."""

    params: NormalizedParams
    omega: float
    n_max: int

    def __post_init__(self):
        _require_finite("omega", self.omega)
        if (isinstance(self.n_max, bool)
                or not isinstance(self.n_max, (int, np.integer))):
            raise ParameterError(
                f"n_max must be an integer, got {self.n_max!r}")
        if self.n_max < 3:
            raise ParameterError(
                f"n_max must be >= 3 to hold the third harmonics, got {self.n_max}")


@dataclass(frozen=True)
class LinearSystem:
    """Assembled system A c = b in row-slot form.

    Row r of A holds vals[k] at column cols[k] for the slots k from
    starts[r] up to the next row's start: its diagonal first, then its
    couplings. Only live slots are stored, so a row at the edge of the
    truncation holds fewer than 9.
    """

    cols: np.ndarray  # int, shape (slots,)
    vals: np.ndarray  # complex, or clongdouble for the residual; (slots,)
    starts: np.ndarray  # int, shape (dimension,)
    rhs: np.ndarray
    n_max: int

    @property
    def dimension(self) -> int:
        return self.rhs.size

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x, in the wider precision of vals and x."""
        return np.add.reduceat(self.vals * x[self.cols], self.starts)


@dataclass(frozen=True)
class HarmonicDensityMatrix:
    """Solution coefficients c(i,j,n) with rho_ij(z) = sum_n c(i,j,n) e^{inkz}."""

    n_max: int
    coeffs: np.ndarray  # complex, shape (3, 3, 2*n_max + 1)

    def coeff(self, i: int, j: int, n: int) -> complex:
        if abs(n) > self.n_max:
            return 0.0 + 0.0j
        return complex(self.coeffs[i, j, n + self.n_max])

    def dc(self, i: int, j: int) -> complex:
        return self.coeff(i, j, 0)

    def invariant_report(self) -> dict:
        """Worst-case violations of hermiticity, trace, parity, dc range."""
        c = self.coeffs
        nm = self.n_max
        # hermiticity: c(i,j,n) == conj(c(j,i,-n))
        herm = np.abs(c - c.transpose(1, 0, 2)[:, :, ::-1].conj()).max()
        populations = c.reshape(9, -1)[::4]  # c(i,i,n), a view
        trace = populations.sum(axis=0)
        trace_dc = abs(trace[nm] - 1.0)
        trace[nm] = 0.0
        trace_ac = np.abs(trace).max()
        parity = np.abs(c[_banned(nm)]).max()
        dc = populations[:, nm]
        dc_imag = np.abs(dc.imag).max()
        # np.maximum keeps a NaN, where a clip at 0 by max() might not
        dc_range = np.maximum(-dc.real, dc.real - 1.0).max(initial=0.0)
        return {
            "hermiticity": float(herm),
            "trace_dc": float(trace_dc),
            "trace_ac": float(trace_ac),
            "parity": float(parity),
            "dc_imag": float(dc_imag),
            "dc_range": float(dc_range),
        }

    def check_invariants(self) -> dict:
        report = self.invariant_report()
        # "not <=" so that a NaN violation is flagged too
        bad = {k: v for k, v in report.items() if not v <= _INVARIANT_TOL}
        if bad:
            raise ConsistencyError(
                f"invariant violations above {_INVARIANT_TOL:g}: {bad}")
        return report


def _index(i: int, j: int, n: int, n_max: int) -> int:
    return (3 * i + j) * (2 * n_max + 1) + (n + n_max)


@functools.lru_cache(maxsize=None)
def _banned(n_max: int) -> np.ndarray:
    """Mask over c(i,j,n) of the coefficients parity forces to zero."""
    odd_n = np.arange(-n_max, n_max + 1) % 2 == 1
    odd_element = np.array([[(i, j) in _ODD_PARITY for j in range(3)]
                            for i in range(3)])
    mask = odd_n != odd_element[:, :, None]
    mask.flags.writeable = False
    return mask


@dataclass(frozen=True)
class _Layout:
    """Where the values of one truncation order go; see `_layout`."""

    cols: np.ndarray  # (slots,) column of each live slot, rows in order
    starts: np.ndarray  # (dimension,) slot of each row's diagonal
    couplings: np.ndarray  # slot of each coupling
    kinds: np.ndarray  # value index of each coupling
    half_n: np.ndarray  # (dimension,) n/2 of each row, for the advection
    # The pumped sector split into its two classes: eliminated (populations,
    # rho12, rho21 on even n) and kept (one-photon coherences on odd n).
    elim: np.ndarray  # rows of the eliminated class, ascending
    kept: np.ndarray  # rows of the kept class, ascending
    elim_diag: np.ndarray  # slot of the diagonal of each eliminated row
    kept_diag: np.ndarray  # slot of the diagonal of each kept row
    # Couplings of the kept rows, row by row: slot, eliminated-class index of
    # the column, first coupling of each row; the same for eliminated rows,
    # plus the eliminated-class index of the row of each coupling.
    kept_slots: np.ndarray
    kept_cols: np.ndarray
    kept_starts: np.ndarray
    elim_slots: np.ndarray
    elim_cols: np.ndarray
    elim_starts: np.ndarray
    elim_rows: np.ndarray
    # Schur complement paths kept row -> eliminated element -> kept column:
    # the kept and the eliminated coupling of each path, grouped by target
    # entry; each group starts at path_starts and sums into path_targets,
    # the flat position of its entry in the kept-class block.
    path_kept: np.ndarray
    path_elim: np.ndarray
    path_starts: np.ndarray
    path_targets: np.ndarray


def _segments(rows: np.ndarray) -> np.ndarray:
    """First position of each run of equal values in sorted `rows`."""
    return np.flatnonzero(np.diff(rows, prepend=-1))


@functools.lru_cache(maxsize=None)
def _layout(n_max: int) -> _Layout:
    """Slot columns, value indices and elimination paths at one truncation.

    Coupling value index 2*c + f is coefficient c (i, i*mu, -i, -i*mu) times
    field factor f (phi1, -phi2).
    """
    nh = 2 * n_max + 1
    dim = 9 * nh
    n = np.arange(-n_max, n_max + 1)
    slot_cols = np.repeat(np.arange(dim)[:, None], _SLOTS, axis=1)
    slot_kinds = np.full((dim, _SLOTS), -1)  # -1: diagonal or empty
    for (i, j), couplings in _COUPLINGS.items():
        rows = _index(i, j, -n_max, n_max) + np.arange(nh)
        slot = 1
        for ci, cj, coef, rule in couplings:
            for dn, f in _RULES[rule]:
                ok = np.abs(n + dn) <= n_max
                slot_cols[rows[ok], slot] = _index(ci, cj, 0, n_max) + n[ok] + dn
                slot_kinds[rows[ok], slot] = 2 * coef + f
                slot += 1
    live = slot_kinds >= 0
    live[:, 0] = True
    cols = slot_cols[live]
    kinds = slot_kinds[live]
    row_of = np.repeat(np.arange(dim), live.sum(axis=1))
    starts = _segments(row_of)
    couplings = np.flatnonzero(kinds >= 0)

    pumped = ~_banned(n_max).reshape(-1)
    odd_element = np.repeat([(i, j) in _ODD_PARITY for i in range(3)
                             for j in range(3)], nh)
    elim = np.flatnonzero(pumped & ~odd_element)
    kept = np.flatnonzero(pumped & odd_element)
    position = np.full(dim, -1)
    position[elim] = np.arange(elim.size)
    position[kept] = np.arange(kept.size)

    def class_couplings(rows):
        slots = couplings[np.isin(row_of[couplings], rows)]
        row = position[row_of[slots]]
        return slots, position[cols[slots]], _segments(row), row

    kept_slots, kept_cols, kept_starts, kept_rows = class_couplings(kept)
    elim_slots, elim_cols, elim_starts, elim_rows = class_couplings(elim)
    # every path kept coupling k -> eliminated element -> its couplings
    fan = np.diff(np.append(elim_starts, elim_slots.size))[kept_cols]
    path_kept = np.repeat(np.arange(kept_slots.size), fan)
    first = np.cumsum(fan) - fan
    path_elim = (elim_starts[kept_cols][path_kept]
                 + np.arange(path_kept.size) - first[path_kept])
    target = kept_rows[path_kept] * kept.size + elim_cols[path_elim]
    order = np.argsort(target, kind="stable")
    target = target[order]
    path_starts = _segments(target)
    for a in (cols, starts):
        a.flags.writeable = False  # shared by every system of this order
    return _Layout(
        cols=cols, starts=starts, couplings=couplings, kinds=kinds[couplings],
        half_n=np.tile(0.5 * n, 9), elim=elim, kept=kept,
        elim_diag=starts[elim], kept_diag=starts[kept],
        kept_slots=kept_slots, kept_cols=kept_cols, kept_starts=kept_starts,
        elim_slots=elim_slots, elim_cols=elim_cols, elim_starts=elim_starts,
        elim_rows=elim_rows, path_kept=path_kept[order],
        path_elim=path_elim[order], path_starts=path_starts,
        path_targets=target[path_starts])


def assemble(problem: SteadyStateProblem) -> LinearSystem:
    """Build the row-slot steady-state system for one velocity class.

    Sign conventions follow directly from -i[M, rho] with the level basis
    (0, 1, 2) and M00 = 0, M11 = (delta + delta_big)/2,
    M22 = -(delta - delta_big)/2, M01 = -E, M20 = -mu*E.
    """
    p = problem.params
    nmax = problem.n_max
    lay = _layout(nmax)
    phi1, phi2, mu = p.phi1, p.phi2, p.mu
    d1 = 0.5 * (p.delta_tilde + p.delta_big_tilde)
    d2 = 0.5 * (p.delta_tilde - p.delta_big_tilde)
    mdiag = np.array([0.0, d1, -d2])
    # M_ii - M_jj of each element (i, j), for its free evolution
    free = (mdiag[:, None] - mdiag[None, :]).ravel()
    values = (np.array([1j, 1j * mu, -1j, -1j * mu])[:, None]
              * np.array([phi1, -phi2])).ravel()
    vals = np.empty(lay.cols.size, dtype=complex)
    vals[lay.couplings] = values[lay.kinds]
    # relaxation, advection, and free evolution of the element
    vals[lay.starts] = -1.0 - 1j * (lay.half_n * problem.omega
                                    + np.repeat(free, 2 * nmax + 1))
    b = np.zeros(lay.starts.size, dtype=complex)
    b[_index(1, 1, 0, nmax)] = -1.0  # pump: gamma fills the ground state
    return LinearSystem(cols=lay.cols, vals=vals, starts=lay.starts, rhs=b,
                        n_max=nmax)


def solve_steady_state(problem: SteadyStateProblem) -> HarmonicDensityMatrix:
    """Direct solve on the one-photon coherences, with refinement and checks.

    In the pumped sector every coupling joins the eliminated class
    (populations, rho12, rho21 on even n) to the kept class (one-photon
    coherences on odd n), so both diagonal blocks are diagonal. The
    eliminated class is solved for exactly through its diagonal, whose
    pivots -1 - i(n*Omega/2 + M_ii - M_jj) never fall below gamma = 1 in
    modulus, which leaves the Schur complement
    S = D_kept - C_kept,elim D_elim^-1 C_elim,kept on the 4 coherences of each
    odd harmonic. S is row-equilibrated (its diagonal grows like n*Omega/2
    and delta_big, so raw rows span many decades) and LU-factorized; each
    solve with it back-substitutes the eliminated class through its
    diagonal, and the unpumped sector stays zero.

    The solution is polished by one refinement step: the residual of the
    full 9-component system is accumulated in extended precision and the
    correction solved with the same factors (LAPACK getrs). With the
    residual in a wider precision than the solve, one step already brings
    the solution to working precision whenever cond(S) * eps << 1 (N. J.
    Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    ch. 12); a second step left the worst residual of a strong-drive stress
    set unchanged. The residual after the step, over every row, must stay
    below 1e-10: it sees any coupling the reduced solve assumes absent,
    between the sectors or inside a class. Hermiticity, trace, parity, and
    population range are then verified on the solution to 1e-8.
    """
    system = assemble(problem)
    lay = _layout(problem.n_max)
    vals = system.vals
    pivots = vals[lay.elim_diag]
    # entries of C_kept,elim and of D_elim^-1 C_elim,kept
    coupled = vals[lay.kept_slots]
    damped = vals[lay.elim_slots] / pivots[lay.elim_rows]
    m = lay.kept.size
    schur = np.zeros(m * m, dtype=complex)
    schur[::m + 1] = vals[lay.kept_diag]
    schur[lay.path_targets] -= np.add.reduceat(
        coupled[lay.path_kept] * damped[lay.path_elim], lay.path_starts)
    schur = schur.reshape(m, m)
    scale = np.abs(schur).max(axis=1)
    lu, piv = sla.lu_factor(schur / scale[:, None], check_finite=False)
    extended = LinearSystem(cols=system.cols, starts=system.starts,
                            vals=vals.astype(np.clongdouble),
                            rhs=system.rhs, n_max=system.n_max)
    xq = np.zeros(system.dimension, dtype=np.clongdouble)
    # one solve of A x = b, then one refinement step solving for the
    # correction from the residual r of the full system
    r = system.rhs
    for _ in range(2):
        z = r[lay.elim] / pivots
        x_kept, info = _getrs()(
            lu, piv, (r[lay.kept] - np.add.reduceat(
                coupled * z[lay.kept_cols], lay.kept_starts)) / scale,
            overwrite_b=True)
        if info != 0:
            raise SolverError(f"LAPACK getrs failed with info {info}")
        xq[lay.kept] += x_kept
        xq[lay.elim] += z - np.add.reduceat(damped * x_kept[lay.elim_cols],
                                            lay.elim_starts)
        r = (system.rhs - extended.apply(xq)).astype(complex)
    residual = float(np.abs(r).max())
    if not np.isfinite(residual) or residual > _RESIDUAL_TOL:
        # cond keeps the complex dtype even though the norms are real
        cond = float(abs(np.linalg.cond(schur, 1)))
        raise SolverError(
            f"steady-state residual {residual:.3e} exceeds {_RESIDUAL_TOL:g} "
            f"(dimension {system.dimension}, Schur complement {m}, "
            f"condition estimate {cond:.3e})")
    nh = 2 * problem.n_max + 1
    rho = HarmonicDensityMatrix(
        n_max=problem.n_max,
        coeffs=np.asarray(xq, dtype=complex).reshape(3, 3, nh))
    rho.check_invariants()
    return rho


def refine(params: NormalizedParams, omega: float, tol: float,
           n_cap: int = DEFAULT_N_CAP, start: int = 3):
    """Raise the truncation order until the dc upper population settles.

    Solves the velocity class Omega = omega on the ladder n_max = start,
    start + 2, ..., n_cap and stops when the dc (2,2) coefficient changes by
    less than tol (absolute) between consecutive truncations. Returns
    (solution, n_used).

    start (odd) lets a caller skip the rungs a neighbouring velocity class
    showed to be unsettled; it is clamped to [3, top - 2], where top is the
    deepest odd rung <= n_cap, so two rungs always fit. The stop test is the
    same from any start: if k is the n_used of the ladder from 3, a start
    <= k - 2 stops at k with the identical solution, and a larger start
    stops deeper.
    """
    if not tol >= 0.0:
        raise ParameterError(f"tol must be >= 0, got {tol}")
    if start % 2 == 0:
        raise ParameterError(f"start must be an odd truncation, got {start}")
    top = n_cap if n_cap % 2 else n_cap - 1
    first = max(3, min(start, top - 2))
    previous = None
    last_change = None
    for n in range(first, n_cap + 1, 2):
        rho = solve_steady_state(SteadyStateProblem(params, omega, n))
        value = rho.dc(2, 2)
        if previous is not None:
            last_change = abs(value - previous)
            if last_change < tol:
                return rho, n
        previous = value
    if last_change is None:
        raise TruncationError(
            f"truncation cap {n_cap} too small to iterate; "
            f"raise oracle.n_cap to at least 5")
    # a live tail at the edge harmonics says the truncation is too short,
    # not the tolerance too tight
    tail = float(np.abs(rho.coeffs[:, :, [0, -1]]).max())
    started = f"; ladder started at n_max = {first}" if first > 3 else ""
    raise TruncationError(
        f"dc population not settled to {tol:g} at n_max = {rho.n_max}; "
        f"last change {last_change:.3e}, largest edge harmonic "
        f"|c(i,j,+-{rho.n_max})| {tail:.3e}{started}; raise oracle.n_cap "
        f"(now {n_cap}) or loosen oracle.refine_tol")


def dc_upper_population(rho: HarmonicDensityMatrix) -> float:
    """Spatial dc component of the upper-level population, as a real number."""
    value = rho.dc(2, 2)
    if abs(value.imag) > _IMAG_TOL:
        raise ConsistencyError(
            f"dc upper population has imaginary part {value.imag:.3e}")
    return float(value.real)
