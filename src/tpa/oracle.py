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

The full 9-component matrix is solved without imposing hermiticity; together
with the trace and harmonic-parity structure it is checked afterwards, which
validates the assembled operator rather than assuming it.

All quantities are in normalized (gamma = 1) units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .core import NormalizedParams, ParameterError

__all__ = ["OracleError"]

DEFAULT_N_CAP = 41

# Largest defect |b - A c| a solve may leave, and largest imaginary part
# the dc upper population may carry; the invariant threshold is the default
# of HarmonicDensityMatrix.check_invariants.
_RESIDUAL_TOL = 1e-10
_IMAG_TOL = 1e-10

# Spatial-harmonic parity of each matrix element: populations and the
# two-photon coherence rho21 live on even n, one-photon coherences on odd n.
_ODD_PARITY = {(0, 1), (1, 0), (2, 0), (0, 2)}


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
    n_max: int = 9

    def __post_init__(self):
        if self.n_max < 3:
            raise ParameterError(
                f"n_max must be >= 3 to hold the third harmonics, got {self.n_max}")


@dataclass(frozen=True)
class LinearSystem:
    """Dense assembled system A c = b over the stacked harmonic coefficients."""

    matrix: np.ndarray
    rhs: np.ndarray
    n_max: int

    @property
    def dimension(self) -> int:
        return self.rhs.size


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
        herm = np.max(np.abs(c - np.conj(np.transpose(c, (1, 0, 2))[:, :, ::-1])))
        trace = c[0, 0] + c[1, 1] + c[2, 2]
        trace_dc = abs(trace[nm] - 1.0)
        trace_ac = np.max(np.abs(np.delete(trace, nm))) if nm > 0 else 0.0
        parity = 0.0
        ns = np.arange(-nm, nm + 1)
        for i in range(3):
            for j in range(3):
                odd = (i, j) in _ODD_PARITY
                banned = (ns % 2 == 0) if odd else (ns % 2 != 0)
                parity = max(parity, np.max(np.abs(c[i, j][banned])))
        dc_imag = max(abs(c[i, i, nm].imag) for i in range(3))
        dc_range = max(max(-c[i, i, nm].real, c[i, i, nm].real - 1.0, 0.0)
                       for i in range(3))
        return {
            "hermiticity": float(herm),
            "trace_dc": float(trace_dc),
            "trace_ac": float(trace_ac),
            "parity": float(parity),
            "dc_imag": float(dc_imag),
            "dc_range": float(dc_range),
        }

    def check_invariants(self, tol: float = 1e-8) -> dict:
        report = self.invariant_report()
        bad = {k: v for k, v in report.items() if v > tol}
        if bad:
            raise ConsistencyError(f"invariant violations above {tol:g}: {bad}")
        return report


def _index(i: int, j: int, n: int, n_max: int) -> int:
    return (3 * i + j) * (2 * n_max + 1) + (n + n_max)


def assemble(problem: SteadyStateProblem) -> LinearSystem:
    """Build the dense steady-state system for one velocity class.

    Sign conventions follow directly from -i[M, rho] with the level basis
    (0, 1, 2) and M00 = 0, M11 = (delta + delta_big)/2,
    M22 = -(delta - delta_big)/2, M01 = -E, M20 = -mu*E.
    """
    p = problem.params
    nmax = problem.n_max
    nh = 2 * nmax + 1
    dim = 9 * nh
    A = np.zeros((dim, dim), dtype=complex)
    b = np.zeros(dim, dtype=complex)
    phi1, phi2, mu = p.phi1, p.phi2, p.mu
    d1 = 0.5 * (p.delta_tilde + p.delta_big_tilde)
    d2 = 0.5 * (p.delta_tilde - p.delta_big_tilde)
    mdiag = (0.0, d1, -d2)
    omega = problem.omega

    def idx(i, j, n):
        return _index(i, j, n, nmax)

    for i in range(3):
        for j in range(3):
            for n in range(-nmax, nmax + 1):
                r = idx(i, j, n)
                # relaxation, advection, and free evolution of the element
                A[r, r] += -(1.0 + 0.5j * n * omega) - 1j * (mdiag[i] - mdiag[j])

                def couple_e(ci, cj, coef):
                    # coef * (E rho)_n: E = phi1 e^{ikz} - phi2 e^{-ikz}
                    if n - 1 >= -nmax:
                        A[r, idx(ci, cj, n - 1)] += coef * phi1
                    if n + 1 <= nmax:
                        A[r, idx(ci, cj, n + 1)] += -coef * phi2

                def couple_ec(ci, cj, coef):
                    # coef * (E* rho)_n
                    if n + 1 <= nmax:
                        A[r, idx(ci, cj, n + 1)] += coef * phi1
                    if n - 1 >= -nmax:
                        A[r, idx(ci, cj, n - 1)] += -coef * phi2

                if i == 0:
                    couple_e(1, j, 1j)
                    couple_ec(2, j, 1j * mu)
                elif i == 1:
                    couple_ec(0, j, 1j)
                else:
                    couple_e(0, j, 1j * mu)
                if j == 0:
                    couple_ec(i, 1, -1j)
                    couple_e(i, 2, -1j * mu)
                elif j == 1:
                    couple_e(i, 0, -1j)
                else:
                    couple_ec(i, 0, -1j * mu)

    b[idx(1, 1, 0)] = -1.0  # pump: gamma fills the ground state
    return LinearSystem(matrix=A, rhs=b, n_max=nmax)


def condition_number(system: LinearSystem) -> float:
    """1-norm condition estimate of the assembled operator."""
    # cond keeps the complex dtype even though the norms are real
    return float(abs(np.linalg.cond(system.matrix, 1)))


def solve_steady_state(problem: SteadyStateProblem) -> HarmonicDensityMatrix:
    """Direct dense solve with iterative refinement and structural checks.

    The system is row-equilibrated before LU factorization (the diagonal
    grows like n*Omega/2 and delta_big, so raw rows span many decades), and
    the solution is polished by two refinement steps with the residual
    accumulated in extended precision. The final residual must stay below
    1e-10; hermiticity, trace, parity, and population range are then
    verified on the solution to 1e-8.
    """
    system = assemble(problem)
    A, b = system.matrix, system.rhs
    scale = np.max(np.abs(A), axis=1)
    lu, piv = sla.lu_factor(A / scale[:, None])
    x = sla.lu_solve((lu, piv), b / scale)
    aq = A.astype(np.clongdouble)
    bq = b.astype(np.clongdouble)
    xq = x.astype(np.clongdouble)
    for _ in range(2):
        r = bq - aq @ xq
        xq = xq + sla.lu_solve((lu, piv), (r / scale).astype(complex))
    residual = float(np.max(np.abs(bq - aq @ xq)))
    if not np.isfinite(residual) or residual > _RESIDUAL_TOL:
        cond = condition_number(system)
        raise SolverError(
            f"steady-state residual {residual:.3e} exceeds {_RESIDUAL_TOL:g} "
            f"(dimension {system.dimension}, condition estimate {cond:.3e})")
    nh = 2 * problem.n_max + 1
    rho = HarmonicDensityMatrix(
        n_max=problem.n_max,
        coeffs=np.asarray(xq, dtype=complex).reshape(3, 3, nh))
    rho.check_invariants()
    return rho


def refine(problem: SteadyStateProblem, tol: float,
           n_cap: int = DEFAULT_N_CAP):
    """Raise the truncation order until the dc upper population settles.

    Solves on the ladder n_max = 3, 5, 7, ... and stops when the dc (2,2)
    coefficient changes by less than tol (absolute) between consecutive
    truncations. Returns (solution, n_used).
    """
    if not tol >= 0.0:
        raise ParameterError(f"tol must be >= 0, got {tol}")
    previous = None
    last_change = None
    for n in range(3, n_cap + 1, 2):
        rho = solve_steady_state(SteadyStateProblem(problem.params,
                                                    problem.omega, n))
        value = rho.dc(2, 2)
        if previous is not None:
            last_change = abs(value - previous)
            if last_change < tol:
                return rho, n
        previous = value
    if last_change is None:
        raise TruncationError(f"truncation cap {n_cap} too small to iterate")
    raise TruncationError(
        f"dc population not settled to {tol:g} at n_max = {n_cap}; "
        f"last change {last_change:.3e}")


def dc_upper_population(rho: HarmonicDensityMatrix) -> float:
    """Spatial dc component of the upper-level population, as a real number."""
    value = rho.dc(2, 2)
    if abs(value.imag) > _IMAG_TOL:
        raise ConsistencyError(
            f"dc upper population has imaginary part {value.imag:.3e}")
    return float(value.real)
