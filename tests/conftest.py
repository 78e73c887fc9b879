"""Shared helpers.

Order separation of oracle solutions by detuning parity: every perturbative
order k scales as 1/delta_big**k with coefficients that do not otherwise
depend on delta_big, so solving at +-delta_big and splitting the harmonic
coefficients into even and odd parts isolates the even-order and odd-order
content up to two-order-higher contamination.

Expected values of the order-2 profile in its three limits, written out
separately from the general analytics.n2 so the tests compare two forms.
"""

import numpy as np
import pytest

from tpa import oracle
from tpa.core import NormalizedParams


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
