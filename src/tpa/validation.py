"""Self-check suites tying the solver, the series, and the closed forms together.

Five independent cross-checks, each pitting two implementations against one
another rather than against stored numbers:

  * structural: randomized steady-state solves must satisfy the residual,
    hermiticity/trace/parity invariants, and beam-exchange symmetry
    (phi, A, Omega) -> (A*phi, 1/A, -Omega), which relabels the two beams
    and must leave the dc populations unchanged;
  * scaling: the solver must approach the perturbative series at the
    expansion rate as the intermediate-state detuning grows, for one
    velocity class and averaged over a Lorentzian and a Gaussian profile;
  * poles: the Gaussian average of the solver's pole expansion must match
    quadrature over velocity classes solved one by one;
  * moments: the closed order-2 and order-3 averages of the series must
    match quadrature of the per-velocity series, on Lorentzian and Gaussian
    profiles;
  * locators: the closed-form width and peak displacement must agree with
    bracketed roots on the assembled profiles (the half-maximum crossing,
    and the zero of the line's slope), the displacement on Gaussian
    profiles too.

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
    rho, _ = oracle.refine(params, 0.0)
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

    The gap must fall like 1/delta_big^2; the series average closes
    through residues on the Lorentzian profile and through the Faddeeva
    function on the Gaussian one.
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


def _pole_rows(level: str) -> list:
    """The Gaussian `oracle_average`, a closed average of the steady state's
    poles, against the trapezoid rule (`velocity_average`, tol 1e-10) over
    velocity classes that each climb their own `oracle.refine` ladder, at
    weak and strong drive and beam ratios 0.5 and 1; full level only."""
    if level != "full":
        return []
    quad = averaging.QuadratureSpec(tol=1e-10)
    gaps = []
    for phi, dbig in ((1.0, 1e3), (3.0, 100.0)):
        for a in (0.5, 1.0):
            p = NormalizedParams.build(delta_tilde=0.5, gamma_v_tilde=2.0,
                                       a_ratio=a, mu=1.2, phi_tilde=phi,
                                       delta_big_tilde=dbig, kind="gaussian")
            want = averaging.velocity_average(
                averaging._class_values(p, oracle.LadderSpec()), p.kind,
                p.gamma_v_tilde, quad)
            gaps.append(abs(averaging.oracle_average(p) - want) / abs(want))
    return [ValidationRow("gaussian pole average vs per-class quadrature",
                          max(gaps) <= 1e-9,
                          f"worst rel gap {max(gaps):.2e} over "
                          f"{len(gaps)} points")]


def _moment_rows(level: str) -> list:
    """The closed series averages against quadrature of the per-velocity
    series: the order-2 term and the order-3 term, each scaled by
    max(1, |closed|), at x = 1 so that both are of order one."""
    if level == "full":
        gvs, deltas = [0.1, 1.0, 10.0], [0.0, 1.0, 5.0]
    else:
        gvs, deltas = [0.5, 2.0], [0.7, 3.0]
    errs = []
    for kind in ("lorentzian", "gaussian"):
        for gv in gvs:
            for d in deltas:
                p = NormalizedParams.build(delta_tilde=d, gamma_v_tilde=gv,
                                           a_ratio=0.7, mu=math.sqrt(2.0),
                                           x=1.0, kind=kind)
                order2 = averaging.averaged_population(p, 2)
                cases = [
                    (order2, lambda om, p=p: upper_dc_series(p, om, 2)),
                    (averaging.averaged_population(p, 3) - order2,
                     lambda om, p=p: (upper_dc_series(p, om, 3)
                                      - upper_dc_series(p, om, 2))),
                ]
                for want, term in cases:
                    got = averaging.velocity_average(term, kind, gv)
                    errs.append(abs(got - want) / max(1.0, abs(want)))
    return [ValidationRow("series moments vs quadrature",
                          all(err <= 1e-8 for err in errs),
                          f"worst err {max(errs):.2e} over {len(errs)} terms")]


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
    cells = ([(None, a, gv) for a in (0.0, 1.0) for gv in (0.0, 2.0)]
             if level == "full" else [(None, 1.0, 2.0)])
    cells += [("gaussian", a, 2.0) for a in (0.0, 1.0)]
    worst = 0.0
    ok = True
    for kind, a, gv in cells:
        p = NormalizedParams.build(x=1e-3, a_ratio=a, gamma_v_tilde=gv,
                                   mu=math.sqrt(2.0), kind=kind)
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
    rows.extend(_pole_rows(level))
    rows.extend(_moment_rows(level))
    rows.extend(_locator_rows(level))
    return ValidationReport(level=level, rows=rows)
