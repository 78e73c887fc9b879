"""Shared helpers.

Order separation of oracle solutions by detuning parity: every perturbative
order k scales as 1/delta_big**k with coefficients that do not otherwise
depend on delta_big, so solving at +-delta_big and splitting the harmonic
coefficients into even and odd parts isolates the even-order and odd-order
content up to two-order-higher contamination.

Expected values of the order-2 profile in its three limits, written out
separately from the general analytics.n2 so the tests compare two forms.

Reference harmonic coefficients of the weak-drive expansion, orders 1-3,
as {(i, j, n): c(i,j,n)} dicts in the one-photon denominators
D+- = 1 - 1j*(delta -+ Omega) and D0 = 1 - 1j*delta; `term` fills in the
hermitian partner. The library keeps only their dc upper-population sum,
`perturbative.upper_dc_series`; these formulas check it and the solver.

The Lorentzian velocity weight, the density that the closed Lorentzian
moments average over, for checks against adaptive quadrature.

A dense reference assembler of the steady-state operator, the entry-by-entry
triple loop the solver once used, so the row-slot operator and the
parity-reduced solve are checked against an independent construction.

`fresh_python` runs the interpreter in a new process that imports tpa from
this checkout, for checks that need a clean sys.modules or the exit code a
shell sees.

Property tests run under one Hypothesis profile: derandomized, so every run
draws the same examples, with no example database on disk and no per-example
deadline. Hypothesis still caches the constants it reads from the sources,
already while collecting; that cache goes to a temporary directory removed
at exit, not to .hypothesis/.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import configuration, settings

from tpa import oracle
from tpa.core import NormalizedParams

settings.register_profile("tpa", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("tpa")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="tpa-hypothesis-")
configuration.set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def fresh_python(*args):
    """`python *args` in a new interpreter with this checkout's src first
    on its path; returns the CompletedProcess, output as text."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [_SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=300)


def build_pair(delta, a, mu, phi, dbig):
    plus = NormalizedParams.build(delta_tilde=delta, a_ratio=a, mu=mu,
                                  phi_tilde=phi, delta_big_tilde=dbig)
    minus = NormalizedParams.build(delta_tilde=delta, a_ratio=a, mu=mu,
                                   phi_tilde=phi, delta_big_tilde=-dbig)
    return plus, minus


def solve_pair(params_pair, omega, n_max=9):
    return tuple(
        oracle.solve_steady_state(oracle.SteadyStateProblem(p, omega, n_max))
        for p in params_pair)


def odd_part(rho_plus, rho_minus, i, j, n):
    return 0.5 * (rho_plus.coeff(i, j, n) - rho_minus.coeff(i, j, n))


def even_part(rho_plus, rho_minus, i, j, n):
    return 0.5 * (rho_plus.coeff(i, j, n) + rho_minus.coeff(i, j, n))


def rel_err(got, want):
    got, want = complex(got), complex(want)
    return abs(got - want) / max(abs(want), 1e-300)


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


def n2_hom(p, d):
    """Homogeneous-medium limit of n2 (no Doppler width)."""
    a2 = p.a_ratio ** 2
    return 8 * p.mu ** 2 * p.x ** 2 * (a2 ** 2 + 4.0 * a2 + 1.0) / (1.0 + d ** 2)


def n2_tw(p, d):
    """Single running wave limit (A = 0) of n2."""
    g1 = 1.0 + p.gamma_v_tilde
    return 8 * p.mu ** 2 * p.x ** 2 * g1 / (g1 ** 2 + d ** 2)


def n2_sw(p, d):
    """Equal standing wave limit (A = 1) of n2."""
    g1 = 1.0 + p.gamma_v_tilde
    return 8 * p.mu ** 2 * p.x ** 2 * (4.0 / (1.0 + d ** 2)
                                       + 2.0 * g1 / (g1 ** 2 + d ** 2))


def lorentzian_density(gamma_v, omega):
    """Unit-mass Lorentzian of HWHM gamma_v in Omega."""
    return (gamma_v / np.pi) / (gamma_v ** 2 + omega ** 2)


def _denominators(p, omega):
    d = p.delta_tilde
    return 1.0 - 1j * (d - omega), 1.0 - 1j * (d + omega), 1.0 - 1j * d


def term(comps, i, j, n):
    """Coefficient c(i,j,n) of a component dict; the hermitian partner
    c(j,i,-n)* is filled in, any other missing entry is 0."""
    if (i, j, n) in comps:
        return complex(comps[(i, j, n)])
    if (j, i, -n) in comps:
        return complex(np.conj(comps[(j, i, -n)]))
    return 0.0 + 0.0j


def order1_coherences(p, omega):
    """One-photon coherence rho01 at first order: one harmonic per beam."""
    dbig = p.delta_big_tilde
    return {(0, 1, +1): -2.0 * p.phi1 / dbig, (0, 1, -1): +2.0 * p.phi2 / dbig}


def order1_twophoton(p, omega):
    """Two-photon coherence rho21 at first order in x = phi^2/delta_big."""
    dp, dm, d0 = _denominators(p, omega)
    p1, p2 = p.phi1, p.phi2
    f = -2j * p.mu / p.delta_big_tilde
    return {(2, 1, +2): f * p1 ** 2 / dp,
            (2, 1, 0): -2.0 * f * p1 * p2 / d0,
            (2, 1, -2): f * p2 ** 2 / dm}


def order2_components(p, omega):
    """Second-order populations and coherences.

    Covers rho20 and rho01 (harmonics +-1, +-3), the populations rho22 and
    rho00 (dc and +-2), and the two-photon coherence rho21 (dc and +-2).
    The +-4 population harmonics are of the same order but do not feed the
    averaged dc signal and are not written out.
    """
    p1, p2, mu = p.phi1, p.phi2, p.mu
    dbig = p.delta_big_tilde
    dp, dm, d0 = _denominators(p, omega)
    kv = 0.5 * omega
    m2 = mu ** 2 - 1.0
    terms = {}

    f = 4j * mu / dbig ** 2
    terms[(2, 0, +3)] = f * (-p1 ** 2 * p2 / dp)
    terms[(2, 0, +1)] = f * (p1 ** 3 / dp + 2 * p1 * p2 ** 2 / d0)
    terms[(2, 0, -1)] = -f * (p2 ** 3 / dm + 2 * p1 ** 2 * p2 / d0)
    terms[(2, 0, -3)] = f * (p1 * p2 ** 2 / dm)

    g = 4j * mu ** 2 / dbig ** 2
    terms[(0, 1, +3)] = g * (-p1 ** 2 * p2 / dp)
    terms[(0, 1, +1)] = g * ((1.0 + dp) * p1 / (2 * mu ** 2)
                             + p1 ** 3 / dp + 2 * p1 * p2 ** 2 / d0)
    terms[(0, 1, -1)] = -g * ((1.0 + dm) * p2 / (2 * mu ** 2)
                              + p2 ** 3 / dm + 2 * p1 ** 2 * p2 / d0)
    terms[(0, 1, -3)] = g * (p1 * p2 ** 2 / dm)

    dc22 = 2.0 * ((4 * mu ** 2 / dbig ** 2)
                  * (p1 ** 4 / dp + p2 ** 4 / dm
                     + 4 * p1 ** 2 * p2 ** 2 / d0)).real
    g22 = (-(16 * mu ** 2 * p1 * p2 / dbig ** 2)
           * ((1.0 + 1j * kv) / (1.0 - 2j * kv))
           * (p1 ** 2 / (np.conj(d0) * dp) + p2 ** 2 / (d0 * np.conj(dm))))
    terms[(2, 2, 0)] = dc22
    terms[(2, 2, +2)] = g22
    terms[(2, 2, -2)] = np.conj(g22)

    h = 8.0 / dbig ** 2
    g00 = -h * ((1.0 + 1j * kv) / (1.0 + 2j * kv)) * p1 * p2
    terms[(0, 0, 0)] = h * (p1 ** 2 + p2 ** 2)
    terms[(0, 0, +2)] = g00
    terms[(0, 0, -2)] = np.conj(g00)

    terms[(2, 1, 0)] = (4 * mu * p1 * p2 / (dbig ** 2 * d0)) * (
        1.0 + d0 + m2 * (2 * (p1 ** 2 + p2 ** 2) / d0
                         + p1 ** 2 / dp + p2 ** 2 / dm))
    terms[(2, 1, +2)] = -(2 * mu * p1 ** 2 / (dbig ** 2 * d0)) * (
        1.0 + dp + 2 * m2 * (2 * p2 ** 2 / d0 + (p1 ** 2 + p2 ** 2) / dm))
    terms[(2, 1, -2)] = -(2 * mu * p2 ** 2 / (dbig ** 2 * d0)) * (
        1.0 + dm + 2 * m2 * (2 * p1 ** 2 / d0 + (p1 ** 2 + p2 ** 2) / dp))
    return terms


def order3_coherences(p, omega):
    """Third-order one-photon coherence rho20, harmonics +-1."""
    p1, p2, mu = p.phi1, p.phi2, p.mu
    dbig = p.delta_big_tilde
    dp, dm, d0 = _denominators(p, omega)
    cdp, cdm, cd0 = np.conj(dp), np.conj(dm), np.conj(d0)
    kv = 0.5 * omega
    m2 = mu ** 2 - 1.0
    plus = (8 * mu * p1 / dbig ** 3) * (
        (m2 / dp ** 2 - 4 * mu ** 2 / (dp * cdp)) * p1 ** 4
        + 2 * p1 ** 2
        + (m2 / d0 * (2 / d0 + 3 / dp + d0 / dp ** 2)
           - (4 * mu ** 2 / cd0) * (4 / d0
                                    - (1.0 + 1j * kv) / (dp * (1.0 - 2j * kv))))
        * p1 ** 2 * p2 ** 2
        + (4 - dp / d0 + 1.0 / (1.0 + 2j * kv)) * p2 ** 2
        + (m2 / d0 * (1 / dm + 2 / d0)
           - (4 * mu ** 2 / cdm) * (1 / dm
                                    + (1.0 + 1j * kv) / (d0 * (1.0 - 2j * kv))))
        * p2 ** 4)
    minus = -(8 * mu * p2 / dbig ** 3) * (
        (m2 / dm ** 2 - 4 * mu ** 2 / (dm * cdm)) * p2 ** 4
        + 2 * p2 ** 2
        + (m2 / d0 * (2 / d0 + 3 / dm + d0 / dm ** 2)
           - (4 * mu ** 2 / cd0) * (4 / d0
                                    + (1.0 - 1j * kv) / (dm * (1.0 + 2j * kv))))
        * p2 ** 2 * p1 ** 2
        + (4 - dm / d0 + 1.0 / (1.0 - 2j * kv)) * p1 ** 2
        + (m2 / d0 * (1 / dp + 2 / d0)
           - (4 * mu ** 2 / cdp) * (1 / dp
                                    - (1.0 - 1j * kv) / (d0 * (1.0 + 2j * kv))))
        * p1 ** 4)
    return {(2, 0, +1): plus, (2, 0, -1): minus}


def reference_system(problem):
    """Dense (A, b) of the steady-state system, built entry by entry.

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
        return (3 * i + j) * nh + (n + nmax)

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
    return A, b


def dense(system):
    """The row-slot operator as a dense matrix, one column per unit vector."""
    return np.column_stack([system.apply(e) for e in
                            np.eye(system.dimension, dtype=complex)])
