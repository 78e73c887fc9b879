"""Self-check suites tying the solver, the series, and the closed forms together.

Four independent cross-checks, each pitting two implementations against one
another rather than against stored numbers:

  * structural: randomized steady-state solves must satisfy the residual,
    hermiticity/trace/parity invariants, and beam-exchange symmetry
    (phi, A, Omega) -> (A*phi, 1/A, -Omega), which relabels the two beams
    and must leave the dc populations unchanged;
  * scaling: the solver must approach the perturbative series at the
    expansion rate as the intermediate-state detuning grows, for one
    velocity class and averaged over a Lorentzian and a Gaussian profile;
  * moments: the closed Lorentzian moments must match direct quadrature of
    their defining kernels;
  * locators: the closed-form width and peak displacement must agree with
    bracketing on the assembled profiles.

`fast` keeps a few draws per suite for wiring checks; `full` runs the sizes
used by the acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import analytics, averaging, oracle
from .core import NormalizedParams, ParameterError
from .perturbative import upper_dc_series


@dataclass(frozen=True)
class ValidationRow:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    level: str
    rows: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def format_table(self) -> str:
        width = max((len(row.name) for row in self.rows), default=4)
        lines = []
        for row in self.rows:
            status = "pass" if row.passed else "FAIL"
            lines.append(f"{row.name:<{width}}  {status}  {row.detail}")
        summary = "all checks passed" if self.passed else "CHECKS FAILED"
        lines.append(summary)
        return "\n".join(lines)


def _structural_rows(level: str, rng: np.random.Generator) -> list:
    draws = 50 if level == "full" else 10
    worst_exchange = 0.0
    worst_residual = 0.0
    failures = []
    for k in range(draws):
        delta = float(rng.uniform(-3.0, 3.0))
        dbig = float(rng.uniform(50.0, 5e3)) * (1.0 if rng.random() < 0.5 else -1.0)
        phi = float(rng.uniform(0.1, 1.5))
        a = float(rng.uniform(0.2, 1.5))
        mu = float(rng.uniform(0.5, 2.0))
        om = float(rng.uniform(-5.0, 5.0))
        n_max = int(rng.choice([5, 7]))
        params = NormalizedParams.build(delta_tilde=delta, a_ratio=a, mu=mu,
                                        phi_tilde=phi, delta_big_tilde=dbig)
        swapped = NormalizedParams.build(delta_tilde=delta, a_ratio=1.0 / a,
                                         mu=mu, phi_tilde=a * phi,
                                         delta_big_tilde=dbig)
        try:
            rho = oracle.solve_steady_state(
                oracle.SteadyStateProblem(params, om, n_max))
            mirror = oracle.solve_steady_state(
                oracle.SteadyStateProblem(swapped, -om, n_max))
        except oracle.OracleError as exc:
            failures.append(f"draw {k}: {exc}")
            continue
        # recompute the defect from the returned coefficients rather than
        # trusting the solver's own bookkeeping
        system = oracle.assemble(oracle.SteadyStateProblem(params, om, n_max))
        defect = system.apply(rho.coeffs.reshape(-1)) - system.rhs
        residual = float(np.max(np.abs(defect)))
        worst_residual = max(worst_residual, residual)
        if residual > 1e-10:
            failures.append(f"draw {k}: residual {residual:.3e}")
        gap = max(abs(rho.dc(i, i) - mirror.dc(i, i)) for i in range(3))
        worst_exchange = max(worst_exchange, gap)
        if gap > 1e-10:
            failures.append(f"draw {k}: beam exchange dc gap {gap:.3e}")
    detail = (f"{draws} draws, worst residual {worst_residual:.2e}, "
              f"worst beam-exchange gap {worst_exchange:.2e}"
              if not failures else "; ".join(failures[:3]))
    return [ValidationRow("oracle structural + beam exchange",
                          not failures, detail)]


def _scaling_rows(level: str) -> list:
    rows = []
    params = NormalizedParams.build(delta_tilde=1.0, a_ratio=1.0, mu=1.0,
                                    phi_tilde=1.0, delta_big_tilde=1e3)
    rho, _ = oracle.refine(params, 0.0, 1e-14)
    got = oracle.dc_upper_population(rho)
    want = float(upper_dc_series(params, 0.0))
    rel = abs(got - want) / abs(want)
    rows.append(ValidationRow("series vs solver, single velocity",
                              rel < 1e-3, f"rel err {rel:.2e} at 1/1000"))
    if level == "full":
        rows.append(_averaged_scaling_row("lorentzian"))
        rows.append(_averaged_scaling_row("gaussian"))
    return rows


def _averaged_scaling_row(kind: str) -> ValidationRow:
    """Velocity-averaged solver against the closed series average.

    The gap must fall like 1/delta_big^2; the Lorentzian series closes
    through n2 + n3, the Gaussian one through the Faddeeva function.
    """
    dbigs = [1e2, 1e3, 1e4]
    rels = []
    for dbig in dbigs:
        p = NormalizedParams.build(delta_tilde=1.0, gamma_v_tilde=2.0,
                                   a_ratio=1.0, mu=1.0, phi_tilde=1.0,
                                   delta_big_tilde=dbig, kind=kind)
        got = averaging.oracle_average(p)
        want = averaging.averaged_population(p, order=3)
        rels.append(abs(got - want) / abs(want))
    slope = -np.polyfit(np.log(dbigs), np.log(rels), 1)[0]
    name = "averaged" if kind == "lorentzian" else kind  # the original row
    return ValidationRow(
        f"series vs solver, {name} scaling", 1.7 <= slope <= 2.3,
        f"rel errs {rels[0]:.2e}/{rels[1]:.2e}/{rels[2]:.2e}, "
        f"exponent {slope:.3f}")


def _moment_rows(level: str) -> list:
    if level == "full":
        gvs, deltas = [0.1, 1.0, 10.0], [0.0, 1.0, 5.0]
    else:
        gvs, deltas = [0.5, 2.0], [0.7, 3.0]
    worst = 0.0
    ok = True
    for gv in gvs:
        for d in deltas:
            cases = [
                (averaging.lorentz_int1(gv, d),
                 lambda om, d=d: 1.0 / (1.0 + (d - om) ** 2)),
                (averaging.lorentz_int2(1, gv, d),
                 lambda om, d=d: om / (1.0 + (d - om) ** 2)),
                (averaging.lorentz_int2(2, gv, d),
                 lambda om, d=d: om / (1.0 + (d - om) ** 2) ** 2),
            ]
            for want, kernel in cases:
                got = averaging.velocity_average(kernel, "lorentzian", gv)
                err = abs(got - want) / max(1.0, abs(want))
                worst = max(worst, err)
                ok = ok and err <= 1e-8
    return [ValidationRow("lorentzian moments vs quadrature", ok,
                          f"worst err {worst:.2e} over "
                          f"{len(gvs) * len(deltas) * 3} kernels")]


def _locator_rows(level: str) -> list:
    rows = []
    if level == "full":
        lattice = [(a, gv) for a in (0.0, 0.5, 1.0) for gv in (0.0, 1.0, 5.0)]
    else:
        lattice = [(0.0, 0.0), (1.0, 2.0)]
    worst = 0.0
    ok = True
    for a, gv in lattice:
        p = NormalizedParams.build(x=1e-3, a_ratio=a, gamma_v_tilde=gv)
        got = analytics.numeric_fwhm(lambda d, p=p: analytics.n2(p, d))
        want = analytics.width_fwhm(a, gv)
        err = abs(got - want)
        worst = max(worst, err)
        ok = ok and err <= 1e-6
    rows.append(ValidationRow("closed width vs bracketing", ok,
                              f"worst abs err {worst:.2e} over "
                              f"{len(lattice)} profiles"))
    cells = ([(a, gv) for a in (0.0, 1.0) for gv in (0.0, 2.0)]
             if level == "full" else [(1.0, 2.0)])
    worst = 0.0
    ok = True
    for a, gv in cells:
        p = NormalizedParams.build(x=1e-3, a_ratio=a, gamma_v_tilde=gv,
                                   mu=math.sqrt(2.0))
        got = analytics.numeric_peak(
            lambda d, p=p: analytics.n2(p, d) + analytics.n3(p, d),
            bracket_halfwidth=4.0 * (1.0 + gv))
        want = analytics.stark_shift(p)
        err = abs(got - want) / abs(want)
        worst = max(worst, err)
        ok = ok and err <= 0.05
    rows.append(ValidationRow("closed shift vs peak location", ok,
                              f"worst rel err {worst:.2e} over "
                              f"{len(cells)} profiles"))
    return rows


def run_validation(level: str = "fast") -> ValidationReport:
    """Run the cross-check suites at the given depth ('fast' or 'full')."""
    if level not in ("fast", "full"):
        raise ParameterError(f"level must be 'fast' or 'full', got {level!r}")
    rng = np.random.default_rng(1894)
    rows = []
    rows.extend(_structural_rows(level, rng))
    rows.extend(_scaling_rows(level))
    rows.extend(_moment_rows(level))
    rows.extend(_locator_rows(level))
    return ValidationReport(level=level, rows=rows)
