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
Fokker-Planck Equation, ch. 9). In harmonic order that complement is
tridiagonal in 4x4 blocks. OpenBLAS runs zgetrf and zgetrs on several
threads once m^2 >= 1e4, and its idle helper threads then spin through
every later solve; so above 96 unknowns (n_max >= 25) one more level
eliminates the blocks of every other odd harmonic exactly (`_Halving`), and
the factorized block has half the unknowns, 2(n_max + 1) at odd n_max: at
most 96 up to n_max = 47, 84 at the default cap, while a larger n_cap
factorizes threaded. The triangular solves with the factors call LAPACK
getrs directly. One step of iterative refinement follows, from the
residual of the pumped rows accumulated in extended precision; the check
after it takes the residual of every row in double precision, so a coupling
the reduced solve assumes absent, between the sectors or inside a class,
shows up as a defect. Hermiticity, trace, parity and population range are
checked on the solution rather than imposed. Only the diagonal depends on
Omega; the rest comes from a small cache keyed by the parameter set.

Because it does so linearly, A(Omega) = A(0) - i Omega diag(n/2), one
eigendecomposition per truncation gives the dc upper population of every
velocity class at once (`pole_expansion`): the n = 0 rows of the pumped
sector hold no Omega and, in the diagonal eliminated class, eliminate
exactly, and the pump they hold leaves no constant in (2,2,0); the others,
scaled by 1/(-i n/2), leave (K + Omega I) x = g, read as dc = -h x, and
K = V diag(lambda) V^-1 turns the dc population into
sum_k alpha_k / (Omega - p_k) with poles p_k = -lambda_k. K is real up to
a unitary change of basis. rho is Hermitian, c(i,j,n) =
conj c(j,i,-n), so with P the mirror (i,j,n) -> (j,i,-n) of the rows,
P K P = conj K, P g = conj g and h P = conj h. P is a symmetric involution
with no fixed row at n != 0, so U = exp(-i pi/4) (I + i P) / sqrt 2 is
unitary with conj U = P U, and U^H K U = Re K - (Im K) P, U^H g =
Re g - Im g and h U = Re h + Im h are real: the construction that makes a
centrohermitian matrix, with the exchange matrix for P, unitarily similar
to a real one (A. Lee, Linear Algebra Appl. 29, 205 (1980)). So one real
eigendecomposition gives the poles, in exact conjugate pairs with
conjugate residues, and at real Omega the dc population is
2 Re sum_k alpha_k / (Omega - p_k) over the poles above the axis. Each
pole lies at least 2 gamma / n_max off the real axis, as the Hermitian part
of A(a + ib), -gamma + b diag(n/2), is negative definite for
|b| < 2 gamma / n_max. At weak drive the pole
terms are O(x) and cancel to the O(x^2) population, so the sum misses a
direct solve by about 0.4 eps / |x| relative at A = 1, and by more as
A -> 0, where a solve holds ~eps.

numpy and scipy.linalg are the module attributes `np` and `sla`, loaded
lazily at the first solve, so that importing tpa for a closed-form scan
loads neither. Every factorization reads sla.lu_factor through that attribute, so a
stand-in assigned to it (bench/tracer.py's LAPACK proxy, which counts and
times the factorizations) sees each one.

All quantities are in normalized (gamma = 1) units.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

from .core import (NormalizedParams, ParameterError, _lazy_module,
                   _require_finite, _require_int)

np = _lazy_module("numpy")  # at the first solve

__all__ = ["OracleError"]

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
_SERIAL_LU = 96  # largest S factorized whole; the module docstring says why
_PARAMS = struct.Struct("5d")  # delta, delta_big, phi1, phi2, mu as bits

sla = _lazy_module("scipy.linalg")


@functools.cache
def _lapack(name: str, dtype):
    """The LAPACK routine `name` for `dtype`, called without scipy.linalg's
    wrapper checks: getrs, behind lu_solve, on the factors of
    sla.lu_factor, complex in a solve and real in `pole_expansion`, and the
    real geev, behind eig, with its minimal workspace. eig queries the
    blocked one, whose matrix products OpenBLAS runs on several threads,
    where the idle helper threads then spin (module docstring). Unblocked,
    geev stays on one core up to m = 80 (n_max = 9), at no cost in wall
    time; from m = 98 (n_max = 11) its QR sweeps run threaded, and on 2
    cores it takes about twice its wall time in CPU time.

    Built at first use from scipy.linalg itself, not through `sla`, so that
    a stand-in for `sla` need carry only lu_factor.
    """
    return _lazy_module("scipy.linalg").get_lapack_funcs(name, dtype=dtype)


class OracleError(RuntimeError):
    """Base class for steady-state solver failures."""


class SolverError(OracleError):
    """Linear solve failed or left a residual above tolerance."""


class TruncationError(OracleError):
    """Harmonic truncation ladder exhausted without convergence."""


class ConsistencyError(OracleError):
    """A structural invariant of the solution is violated."""


@dataclass(frozen=True)
class LadderSpec:
    """Truncation ladder policy of `refine`, stored converted: the deepest
    rung n_cap, an integer >= 5 so that the stop test has its two rungs
    n_max = 3 and 5, and the stop tolerance refine_tol, a number >= 0."""

    n_cap: int = 41
    refine_tol: float = 1e-14

    def __post_init__(self):
        object.__setattr__(self, "n_cap", _require_int("n_cap", self.n_cap, 5))
        object.__setattr__(self, "refine_tol", _require_finite(
            "refine_tol", self.refine_tol, 0.0))


@dataclass(frozen=True)
class SteadyStateProblem:
    """One steady-state solve: parameters, velocity class, truncation order."""

    params: NormalizedParams
    omega: float
    n_max: int

    def __post_init__(self):
        _require_finite("omega", self.omega)
        _require_int("n_max", self.n_max, 3)  # to hold the third harmonics


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
        lay = _layout(nm)
        # hermiticity: c(i,j,n) == conj(c(j,i,-n))
        herm = np.abs(c - c.take(lay.mirror).conj()).max()
        populations = c.reshape(9, -1)[::4]  # c(i,i,n), a view
        trace = populations.sum(axis=0)
        trace_dc = abs(trace[nm] - 1.0)
        trace[nm] = 0.0
        trace_ac = np.abs(trace).max()
        parity = np.abs(c[lay.banned]).max()
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
    # the flat position of its entry in the stored S. S is stored dense
    # (m x m) or, above _SERIAL_LU unknowns, as its 4x4 blocks in harmonic
    # order, shape (m/4, 3, 4, 4): the blocks left of, on and right of the
    # diagonal of each block row (see _Halving).
    path_kept: np.ndarray
    path_elim: np.ndarray
    path_starts: np.ndarray
    path_targets: np.ndarray
    target_rows: np.ndarray  # row of each path target, a nonzero of S
    target_starts: np.ndarray  # first target of each row
    schur_diag: np.ndarray  # position of each diagonal entry of S
    halved: bool  # S stored as blocks and factorized through _Halving
    pumped: np.ndarray  # rows of the pumped sector, ascending
    pumped_slots: np.ndarray  # their slots, and the first slot of each row
    pumped_starts: np.ndarray
    banned: np.ndarray  # (3, 3, 2n_max+1) mask of the c(i,j,n) parity zeroes
    mirror: np.ndarray  # (3, 3, 2n_max+1) flat index of c(j,i,-n)
    # The pumped sector as one dense q x q matrix, for pole_expansion: its
    # rows at n != 0 first, then the 5 at n = 0, of which (2,2,0) is the
    # last; the flat position of each slot of pumped_slots in it; and the
    # position among the rows at n != 0 of the mirror of each of them.
    pole_rows: np.ndarray
    pole_flat: np.ndarray
    pole_mirror: np.ndarray


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

    odd_element = np.repeat([(i, j) in _ODD_PARITY for i in range(3)
                             for j in range(3)], nh)
    banned = np.tile(n % 2 == 1, 9) != odd_element
    pumped = ~banned
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
    # every path kept coupling -> eliminated element -> its couplings, the
    # run of elim_rows at its column (every eliminated row has one run)
    runs = np.diff(elim_starts, append=elim_rows.size)[kept_cols]
    path_kept = np.repeat(np.arange(kept_cols.size), runs)
    path_elim = np.arange(runs.sum()) + np.repeat(
        elim_starts[kept_cols] - np.cumsum(runs) + runs, runs)
    target = kept_rows[path_kept] * kept.size + elim_cols[path_elim]
    order = np.argsort(target, kind="stable")
    target = target[order]
    path_starts = _segments(target)
    targets = target[path_starts]
    m = kept.size
    rows, columns = np.divmod(targets, m)
    diagonal = np.arange(m)
    halved = m > _SERIAL_LU
    if halved:
        # kept position p is coherence p // blocks on odd harmonic p % blocks
        blocks = m // 4

        def band(r, c):
            (er, kr), (ec, kc) = np.divmod(r, blocks), np.divmod(c, blocks)
            return ((3 * kr + kc - kr + 1) * 4 + er) * 4 + ec

        stored, stored_diag = band(rows, columns), band(diagonal, diagonal)
    else:
        stored, stored_diag = targets, diagonal * (m + 1)
    for a in (cols, starts):
        a.flags.writeable = False  # shared by every system of this order
    mirror = np.arange(dim).reshape(3, 3, nh).transpose(1, 0, 2)[:, :, ::-1]
    at_zero = np.tile(n == 0, 9)
    pole_rows = np.concatenate((np.flatnonzero(pumped & ~at_zero),
                                np.flatnonzero(pumped & at_zero)))
    place = np.full(dim, -1)
    place[pole_rows] = np.arange(pole_rows.size)
    pumped_slots = np.flatnonzero(pumped[row_of])
    return _Layout(
        cols=cols, starts=starts, couplings=couplings, kinds=kinds[couplings],
        half_n=np.tile(0.5 * n, 9), elim=elim, kept=kept,
        elim_diag=starts[elim], kept_diag=starts[kept],
        kept_slots=kept_slots, kept_cols=kept_cols, kept_starts=kept_starts,
        elim_slots=elim_slots, elim_cols=elim_cols, elim_starts=elim_starts,
        elim_rows=elim_rows, path_kept=path_kept[order],
        path_elim=path_elim[order], path_starts=path_starts,
        path_targets=stored, target_rows=rows, target_starts=_segments(rows),
        schur_diag=stored_diag, halved=halved,
        pumped=np.flatnonzero(pumped), pumped_slots=pumped_slots,
        pumped_starts=_segments(row_of[pumped_slots]),
        banned=banned.reshape(3, 3, nh), mirror=mirror, pole_rows=pole_rows,
        pole_flat=(place[row_of[pumped_slots]] * pole_rows.size
                   + place[cols[pumped_slots]]),
        pole_mirror=place[mirror.ravel()[pole_rows[:-5]]])


def _solver_inputs(p: NormalizedParams) -> bytes:
    """The bits of every parameter a solve reads."""
    return _PARAMS.pack(p.delta_tilde, p.delta_big_tilde, p.phi1, p.phi2,
                        p.mu)


@functools.lru_cache(maxsize=(LadderSpec.n_cap - 1) // 2)  # a ladder's rungs
def _fixed_values(n_max: int, params: bytes) -> tuple:
    """The slot values with their couplings filled in, and M_ii - M_jj of
    each row's element for its free evolution; keyed by bits, so that -0.0
    is not 0.0."""
    delta, delta_big, phi1, phi2, mu = _PARAMS.unpack(params)
    lay = _layout(n_max)
    d1 = 0.5 * (delta + delta_big)
    d2 = 0.5 * (delta - delta_big)
    mdiag = np.array([0.0, d1, -d2])
    free = np.repeat((mdiag[:, None] - mdiag[None, :]).ravel(), 2 * n_max + 1)
    values = (np.array([1j, 1j * mu, -1j, -1j * mu])[:, None]
              * np.array([phi1, -phi2])).ravel()
    vals = np.empty(lay.cols.size, dtype=complex)
    vals[lay.couplings] = values[lay.kinds]
    vals.flags.writeable = free.flags.writeable = False
    return vals, free


def assemble(problem: SteadyStateProblem) -> LinearSystem:
    """Build the row-slot steady-state system for one velocity class.

    Sign conventions follow directly from -i[M, rho] with the level basis
    (0, 1, 2) and M00 = 0, M11 = (delta + delta_big)/2,
    M22 = -(delta - delta_big)/2, M01 = -E, M20 = -mu*E.
    """
    nmax = problem.n_max
    lay = _layout(nmax)
    couplings, free = _fixed_values(nmax, _solver_inputs(problem.params))
    vals = couplings.copy()
    # relaxation, advection, and free evolution of the element
    vals[lay.starts] = -1.0 - 1j * (lay.half_n * problem.omega + free)
    b = np.zeros(lay.starts.size, dtype=complex)
    b[_index(1, 1, 0, nmax)] = -1.0  # pump: gamma fills the ground state
    return LinearSystem(cols=lay.cols, vals=vals, starts=lay.starts, rhs=b,
                        n_max=nmax)


def pole_expansion(params: NormalizedParams, n_max: int) -> tuple:
    """The dc upper population at truncation n_max as a function of real
    Omega, 2 Re sum_k residues[k] / (Omega - poles[k]); returns (residues,
    poles) for the poles above the real axis, half of the module
    docstring's m = 9 n_max - 1 at odd n_max (9 n_max at even n_max), whose
    conjugates below the axis carry the conjugate residues.

    The pumped-sector operator at Omega = 0 is the row-slot system of
    `assemble`, placed as a dense matrix by `_layout`. Its 5 rows at n = 0
    (populations, rho12, rho21) carry the pump and no Omega, and their block
    is diagonal, so they are eliminated exactly; the pump fills the ground
    state and leaves no constant in (2,2,0). The remaining rows, scaled by
    1/(-i n/2), give (K + Omega I) x = g, read as dc = -h x. Rotated as the
    module docstring says, K is B = Re K - (Im K) P, g is Re g - Im g and h
    is Re h + Im h, all real, and one real eigendecomposition
    B = W diag(lambda) W^-1 (LAPACK geev, `_lapack`) gives the poles
    p = -lambda and, with W^-1 (Re g - Im g) from one real LU solve, the
    residues. geev stores a pair lambda = a +- ib, b > 0, as the columns
    w_j +- i w_j+1 of its real W; a real lambda, which the bound of the
    module docstring rules out, raises SolverError.
    """
    system = assemble(SteadyStateProblem(params, 0.0, n_max))
    lay = _layout(n_max)
    q = lay.pole_rows.size
    m = q - 5
    a = np.zeros(q * q, dtype=complex)
    a[lay.pole_flat] = system.vals[lay.pumped_slots]
    a = a.reshape(q, q)
    pivots = a.diagonal()[m:]
    damped = a[m:, :m] / pivots[:, None]  # D_0^-1 C_0R
    scale = -1j * lay.half_n[lay.pole_rows[:m]]
    operator = (a[:m, :m] - a[:m, m:] @ damped) / scale[:, None]
    g = -(a[:m, m:] @ (system.rhs[lay.pole_rows[m:]] / pivots)) / scale
    wr, wi, _, vecs, info = _lapack("geev", float)(
        operator.real - operator.imag[:, lay.pole_mirror], compute_vl=False,
        overwrite_a=True)
    if info != 0:
        raise SolverError(f"LAPACK geev failed with info {info}")
    if not wi.all():
        raise SolverError(
            f"real eigenvalue {float(wr[wi == 0][0])!r} of the pole operator at "
            f"n_max = {n_max}, which the damping rules out")
    lu, piv = sla.lu_factor(vecs, check_finite=False)
    z = _lu_solve(lu, piv, g.real - g.imag)
    h = (damped[-1].real + damped[-1].imag) @ vecs  # row (2,2,0)
    # the pole -a + ib above the axis, of the vector w_j - i w_j+1
    return (-0.5 * (h[::2] - 1j * h[1::2]) * (z[::2] + 1j * z[1::2]),
            wi[::2] * 1j - wr[::2])


def _lu_solve(lu, piv, b):
    """x with A x = b, from sla.lu_factor's factors of A, through getrs."""
    x, info = _lapack("getrs", lu.dtype)(lu, piv, b, overwrite_b=True)
    if info != 0:
        raise SolverError(f"LAPACK getrs failed with info {info}")
    return x


class _Halving:
    """S with the 4x4 blocks of every other odd harmonic eliminated.

    In harmonic order S is tridiagonal in 4x4 blocks: a coherence on
    harmonic n reaches those on n and n +- 2 through the eliminated class
    on n +- 1. So the blocks on odd k (k = 0, 1, ... up from -n_max) couple
    only to the even blocks beside them, and one batched inverse eliminates
    them all; `matrix`, the block-tridiagonal Schur complement left on the
    even blocks, has half the unknowns. The field of values of the unscaled
    S lies in Re z <= -gamma, as that of the whole operator does, so every
    inverted block is regular.
    """

    def __init__(self, band: np.ndarray):
        lower, diag, upper = band[:, 0], band[:, 1], band[:, 2]
        self.inv = np.linalg.inv(diag[1::2])
        # odd block j onto even blocks j and j + 1 (zero past the top one);
        # even block j onto odd blocks j - 1 (j >= 1) and j
        self.left, self.right = self.inv @ lower[1::2], self.inv @ upper[1::2]
        self.lower, self.upper = lower[2::2], upper[::2]
        even = diag[::2] - self.upper @ self.left
        even[1:] -= self.lower @ self.right[:-1]
        # block row, its coherence, block column, its coherence
        q = len(even)
        k = np.arange(q)
        matrix = np.zeros((q, 4, q, 4), dtype=complex)
        matrix[k, :, k] = even
        matrix[k[1:], :, k[:-1]] = -self.lower @ self.left[:-1]
        matrix[k[:-1], :, k[1:]] = -self.upper[:-1] @ self.right[:-1]
        self.matrix = matrix.reshape(4 * q, 4 * q)

    def solve(self, lu, piv, b: np.ndarray) -> np.ndarray:
        """S x = b, from the factors of `matrix`; b and x in kept order."""
        blocks = b.reshape(4, -1).T[:, :, None]
        y = self.inv @ blocks[1::2]
        even = blocks[::2] - self.upper @ y
        even[1:] -= self.lower @ y[:-1]
        x = _lu_solve(lu, piv, even.ravel()).reshape(-1, 4, 1)
        odd = y - self.left @ x
        odd[:-1] -= self.right[:-1] @ x[1:]
        return np.stack((x, odd), axis=1).reshape(-1, 4).T.ravel()


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
    and delta_big, so raw rows span many decades) and LU-factorized, whole
    or, when its layout is halved (module docstring), through `_Halving`,
    which carries both right-hand sides through its level and back; each
    solve with it back-substitutes the eliminated class through its
    diagonal, and the unpumped sector stays zero.

    The solution is polished by one refinement step: the residual of the
    pumped rows, all the correction reads, is accumulated in extended
    precision and the correction solved with the same factors (LAPACK
    getrs). With the residual in a wider precision than the solve, one step
    already brings the solution to working precision whenever cond(S) * eps
    << 1 (N. J. Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., ch. 12); a second step left the worst residual of a strong-drive
    stress set unchanged. The residual after the step, over every row, must
    stay below 1e-10: it sees any coupling the reduced solve assumes absent,
    between the sectors or inside a class. In double precision it rounds by
    about 10 eps (|b_i| + sum_j |A_ij x_j|) in row i at most (ch. 3), near
    1e-14 at phi = 10. Hermiticity, trace, parity, and population range are
    then verified on the solution to 1e-8.
    """
    system = assemble(problem)
    lay = _layout(problem.n_max)
    vals = system.vals
    pivots = vals[lay.elim_diag]
    # entries of C_kept,elim and of D_elim^-1 C_elim,kept
    coupled = vals[lay.kept_slots]
    damped = vals[lay.elim_slots] / pivots[lay.elim_rows]
    m = lay.kept.size
    schur = np.zeros(12 * m if lay.halved else m * m, dtype=complex)
    schur[lay.schur_diag] = vals[lay.kept_diag]
    schur[lay.path_targets] -= np.add.reduceat(
        coupled[lay.path_kept] * damped[lay.path_elim], lay.path_starts)
    # row maxima and quotients over the structural nonzeros alone
    entries = schur[lay.path_targets]
    scale = np.maximum.reduceat(np.abs(entries), lay.target_starts)
    schur[lay.path_targets] = entries / scale[lay.target_rows]
    level = _Halving(schur.reshape(-1, 3, 4, 4)) if lay.halved else None
    matrix = schur.reshape(m, m) if level is None else level.matrix
    lu, piv = sla.lu_factor(matrix, check_finite=False)
    extended = vals[lay.pumped_slots].astype(np.clongdouble)
    xq = np.zeros(system.dimension, dtype=np.clongdouble)
    # one solve of A x = b, then one refinement step solving for the
    # correction from the residual r of the pumped rows
    r = system.rhs
    for step in range(2):
        z = r[lay.elim] / pivots
        b = (r[lay.kept] - np.add.reduceat(coupled * z[lay.kept_cols],
                                           lay.kept_starts)) / scale
        x_kept = (_lu_solve(lu, piv, b) if level is None
                  else level.solve(lu, piv, b))
        xq[lay.kept] += x_kept
        xq[lay.elim] += z - np.add.reduceat(damped * x_kept[lay.elim_cols],
                                            lay.elim_starts)
        if step == 0:
            r = system.rhs.copy()
            r[lay.pumped] -= np.add.reduceat(
                extended * xq[system.cols[lay.pumped_slots]],
                lay.pumped_starts)
    x = xq.astype(complex)
    residual = float(np.abs(system.rhs - system.apply(x)).max())
    if not np.isfinite(residual) or residual > _RESIDUAL_TOL:
        # cond keeps the complex dtype even though the norms are real
        cond = float(abs(np.linalg.cond(matrix, 1)))
        raise SolverError(
            f"steady-state residual {residual:.3e} exceeds {_RESIDUAL_TOL:g} "
            f"(dimension {system.dimension}, Schur complement {m}, "
            f"factorized block {matrix.shape[0]}; 1-norm condition number "
            f"of the factorized block, rows equilibrated, {cond:.3e})")
    rho = HarmonicDensityMatrix(n_max=problem.n_max,
                                coeffs=x.reshape(3, 3, 2 * problem.n_max + 1))
    rho.check_invariants()
    return rho


# The one-photon coherences, the elements whose sign U = diag(1, -1, -1)
# flips, as an index into the coefficient array.
_FLIPPED = tuple(zip(*sorted(_ODD_PARITY)))
# The mirror image of the last ladder refine settled at phi1 == phi2:
# ((solver inputs, LadderSpec), the velocity class -Omega it answers, the
# ladder's first rung, the mirrored solution, n_used); see refine.
_mirror_memo = None


def _mirror(rho: HarmonicDensityMatrix) -> HarmonicDensityMatrix:
    """The solution at -Omega from the one at Omega, given phi1 == phi2:
    c(i,j,n) -> U_ii U_jj c(i,j,-n) with U = diag(1, -1, -1)."""
    coeffs = rho.coeffs[:, :, ::-1].copy()
    coeffs[_FLIPPED] = -coeffs[_FLIPPED]
    return HarmonicDensityMatrix(n_max=rho.n_max, coeffs=coeffs)


def _climb(rung, first: int, ladder: LadderSpec, what: str,
           detail=lambda result: ""):
    """The truncation ladder, written once for `refine` and the Gaussian
    average: rung(n_max) -> (value, result) on n_max = first, first + 2,
    ..., ladder.n_cap; returns (value, result, n_max) of the first rung whose
    value moved by less than ladder.refine_tol (absolute) from the rung
    before. first <= ladder.n_cap - 2, so that two rungs fit. An exhausted
    ladder raises TruncationError naming `what`, with detail(result) of its
    last rung after the last change.
    """
    previous = None
    for n_max in range(first, ladder.n_cap + 1, 2):
        value, result = rung(n_max)
        if previous is not None:
            change = abs(value - previous)
            if change < ladder.refine_tol:
                return value, result, n_max
        previous = value
    raise TruncationError(
        f"{what} not settled to {ladder.refine_tol:g} at n_max = {n_max}; "
        f"last change {change:.3e}{detail(result)}; raise oracle.n_cap "
        f"(now {ladder.n_cap}) or loosen oracle.refine_tol")


def refine(params: NormalizedParams, omega: float,
           ladder: LadderSpec = LadderSpec(), start: int = 3):
    """Raise the truncation order until the dc upper population settles.

    Solves the velocity class Omega = omega on the ladder n_max = start,
    start + 2, ..., ladder.n_cap and stops when the dc (2,2) coefficient
    changes by less than ladder.refine_tol (absolute) between consecutive
    truncations (`_climb`). Returns (solution, n_used).

    start (odd) lets a caller skip the rungs a neighbouring velocity class
    showed to be unsettled; it is clamped to [3, top - 2], where top is the
    deepest odd rung <= n_cap, so two rungs always fit. The stop test is the
    same from any start: if k is the n_used of the ladder from 3, a start
    <= k - 2 stops at k with the identical solution, and a larger start
    stops deeper. LadderSpec checks the ladder when it is built; start must
    be an odd integer, or refine raises ParameterError before any solve.

    Equal beams (phi1 == phi2 exactly, A = 1) fold mirror pairs of velocity
    classes. There E(-z) = -E(z), so U = diag(1, -1, -1) maps the steady
    state at Omega onto the one at -Omega: c(i,j,n) -> U_ii U_jj c(i,j,-n).
    A ladder that settles at phi1 == phi2 keeps the mirror image of its
    solution, and the next call returns it with the same n_used, solving
    nothing, if it asks for -Omega != 0 with the same solver inputs and
    ladder, and its first rung lies between the kept ladder's first rung
    and its n_used - 2: that ladder's stop test then stops at the same rung.
    Any other call, every call at A != 1 among them, solves its ladder, and
    a ladder that raises keeps nothing.
    """
    global _mirror_memo
    if _require_int("start", start, -math.inf) % 2 == 0:
        raise ParameterError(f"start must be an odd truncation, got {start}")
    top = ladder.n_cap if ladder.n_cap % 2 else ladder.n_cap - 1
    first = max(3, min(start, top - 2))
    key = (_solver_inputs(params), ladder)
    memo, _mirror_memo = _mirror_memo, None
    if memo is not None and omega != 0.0:
        memo_key, memo_omega, memo_first, mirrored, memo_n = memo
        if (memo_key == key and omega == memo_omega
                and memo_first <= first <= memo_n - 2):
            return mirrored, memo_n

    def rung(n_max):
        rho = solve_steady_state(SteadyStateProblem(params, omega, n_max))
        return rho.dc(2, 2), rho

    def edge(rho):
        # a live tail at the edge harmonics says the truncation is too
        # short, not the tolerance too tight
        tail = float(np.abs(rho.coeffs[:, :, [0, -1]]).max())
        started = f"; ladder started at n_max = {first}" if first > 3 else ""
        return (f", largest edge harmonic |c(i,j,+-{rho.n_max})| "
                f"{tail:.3e}{started}")
    _, rho, n_used = _climb(rung, first, ladder, "dc population", edge)
    if params.phi1 == params.phi2:
        _mirror_memo = (key, -omega, first, _mirror(rho), n_used)
    return rho, n_used


def dc_upper_population(rho: HarmonicDensityMatrix) -> float:
    """Spatial dc component of the upper-level population, as a real number."""
    value = rho.dc(2, 2)
    if abs(value.imag) > _IMAG_TOL:
        raise ConsistencyError(
            f"dc upper population has imaginary part {value.imag:.3e}")
    return float(value.real)
