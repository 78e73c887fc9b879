"""End-to-end checks of the advertised numbers, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line; each
test asserts its own pass so the suite stays red if any number drifts.
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from tpa import analytics as an
from tpa import oracle
from tpa.averaging import (averaged_population, lorentz_int1, lorentz_int2,
                           oracle_average)
from tpa.core import NormalizedParams, VelocityDistribution

from conftest import n2_hom, n2_sw, n2_tw


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def test_criterion_01_homogeneous_width_is_two():
    worst = max(abs(an.width_fwhm(a, 0.0) - 2.0) for a in (0.0, 0.5, 1.0))
    _report(1, worst <= 1e-12, f"worst abs dev {worst:.2e}")


def test_criterion_02_single_beam_width_tracks_doppler():
    worst = max(abs(an.width_fwhm(0.0, gv) - 2.0 * (1.0 + gv))
                for gv in (0.5, 1.0, 3.0, 10.0))
    _report(2, worst <= 1e-10, f"worst abs dev {worst:.2e}")


def test_criterion_03_wide_standing_wave_width_narrows():
    got = an.width_fwhm(1.0, 100.0)
    _report(3, 2.009 <= got <= 2.011, f"width {got:.7f}")


def test_criterion_04_equal_wave_peak_enhancement():
    still = dict(x=1e-3, gamma_v_tilde=0.0)
    ratio = (an.n2(an.LineshapeParams(a_ratio=1.0, **still), 0.0)
             / an.n2(an.LineshapeParams(a_ratio=0.0, **still), 0.0))
    _report(4, abs(ratio - 6.0) <= 1e-12 * 6.0, f"ratio {ratio:.14f}")


def test_criterion_05_wide_limit_peaks():
    mu, x = 1.3, 2e-3
    want = 8.0 * mu ** 2 * x ** 2
    worst = 0.0
    for gv in (1.0, 10.0, 100.0, 1e4):
        p = an.LineshapeParams(x=x, a_ratio=0.0, gamma_v_tilde=gv, mu=mu)
        worst = max(worst, _rel(n2_tw(p, 0.0) * (1.0 + gv), want))
    sw = an.LineshapeParams(x=x, a_ratio=1.0, gamma_v_tilde=1e4, mu=mu)
    hom = an.LineshapeParams(x=x, a_ratio=1.0, gamma_v_tilde=0.0, mu=mu)
    ratio = n2_sw(sw, 0.0) / n2_hom(hom, 0.0)
    ok = worst <= 1e-12 and abs(ratio - 2.0 / 3.0) <= 1e-3
    _report(5, ok, f"1/(1+gv) law dev {worst:.2e}, wide sw/hom {ratio:.6f}")


def test_criterion_06_shift_special_cases():
    zero = max(abs(an.stark_shift(an.LineshapeParams(
        x=1e-3, a_ratio=a, gamma_v_tilde=gv, mu=1.0)))
        for a in (0.0, 0.5, 1.0) for gv in (0.0, 1.0, 10.0))
    tw_dev = max(abs(an.stark_shift(an.LineshapeParams(
        x=1e-3, a_ratio=0.0, gamma_v_tilde=gv, mu=1.4))
        - 2.0 * (1.4 ** 2 - 1.0) * 1e-3) for gv in (0.0, 1.0, 7.0, 100.0))
    wide = an.LineshapeParams(x=1e-3, a_ratio=1.0, gamma_v_tilde=1e4,
                              mu=math.sqrt(2.0))
    wide_tw = an.LineshapeParams(x=1e-3, a_ratio=0.0, gamma_v_tilde=1e4,
                                 mu=math.sqrt(2.0))
    ratio = an.stark_shift_sw(wide) / an.stark_shift_tw(wide_tw)
    ok = zero == 0.0 and tw_dev == 0.0 and abs(ratio - 0.5) <= 1e-3
    _report(6, ok, f"mu=1 max {zero:.1e}, single-beam dev {tw_dev:.1e}, "
                   f"wide sw/tw {ratio:.6f}")


def test_criterion_07_closed_forms_match_bracketing():
    avals = (0.0, 0.25, 0.5, 1.0)
    gvals = (0.0, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0)
    worst_w = 0.0
    for a in avals:
        for gv in gvals:
            prof = an.LineshapeParams(x=1e-3, a_ratio=a, gamma_v_tilde=gv)
            got = an.numeric_fwhm(lambda d: an.n2(prof, d))
            worst_w = max(worst_w, abs(got - an.width_fwhm(a, gv)))
    ok = worst_w <= 1e-6
    shift_summary = []
    for x in (1e-2, 1e-3, 1e-4):
        tol = 0.05 * x / 1e-3
        worst = 0.0
        for a in avals:
            for gv in gvals:
                prof = an.LineshapeParams(x=x, a_ratio=a, gamma_v_tilde=gv,
                                          mu=math.sqrt(2.0))
                got = an.numeric_peak(
                    lambda d: an.n2(prof, d) + an.n3(prof, d),
                    bracket_halfwidth=4.0 * (1.0 + gv), tol=1e-9)
                worst = max(worst, _rel(got, an.stark_shift(prof)))
        shift_summary.append(f"x={x:g}: {worst:.2e} vs {tol:g}")
        ok = ok and worst <= tol
    _report(7, ok, f"width abs {worst_w:.2e}; shift rel " +
            "; ".join(shift_summary))


def test_criterion_08_moments_against_adaptive_quadrature():
    worst = 0.0
    for gv in (0.1, 1.0, 10.0):
        dist = VelocityDistribution.lorentzian(gv)
        for d in (0.0, 1.0, 5.0):
            cases = (
                (lambda om: 1.0 / (1.0 + (d - om) ** 2),
                 lorentz_int1(1.0, gv, d)),
                (lambda om: om / (1.0 + (d - om) ** 2),
                 lorentz_int2(1, 1.0, gv, d)),
                (lambda om: om / (1.0 + (d - om) ** 2) ** 2,
                 lorentz_int2(2, 1.0, gv, d)),
            )
            for kernel, want in cases:
                got, _ = quad(lambda om: kernel(om) * dist.density(om),
                              -np.inf, np.inf, epsabs=1e-12, epsrel=1e-12,
                              limit=500)
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    _report(8, worst <= 1e-8, f"worst scaled dev {worst:.2e}")


def test_criterion_09_solver_confirms_series_order():
    dbigs = np.array([1e2, 1e3, 1e4])
    slopes = []
    start = time.perf_counter()
    for a in (0.0, 1.0):
        for d in (0.0, 1.0):
            for gv in (0.0, 2.0):
                rels = []
                for dbig in dbigs:
                    p = NormalizedParams.build(
                        delta_tilde=d, a_ratio=a, mu=1.0, phi_tilde=1.0,
                        delta_big_tilde=float(dbig), gamma_v_tilde=gv)
                    rels.append(_rel(oracle_average(p),
                                     averaged_population(p, order=3)))
                slope = -float(np.polyfit(np.log10(dbigs),
                                          np.log10(rels), 1)[0])
                slopes.append(slope)
    elapsed = time.perf_counter() - start
    ok = all(1.7 <= s <= 2.3 for s in slopes) and elapsed < 60.0
    _report(9, ok, f"slopes {min(slopes):.3f}..{max(slopes):.3f}, "
                   f"{elapsed:.1f}s")


def test_criterion_10_solver_structure_randomized():
    rng = np.random.default_rng(71)
    worst_res = worst_gap = 0.0
    for _ in range(50):
        delta = float(rng.uniform(-3.0, 3.0))
        dbig = float(rng.uniform(50.0, 5e3) * rng.choice([-1.0, 1.0]))
        phi = float(rng.uniform(0.1, 1.5))
        a = float(rng.uniform(0.2, 1.5))
        mu = float(rng.uniform(0.5, 2.0))
        om = float(rng.uniform(-5.0, 5.0))
        n_max = int(rng.choice([5, 7]))
        p = NormalizedParams.build(delta_tilde=delta, a_ratio=a, mu=mu,
                                   phi_tilde=phi, delta_big_tilde=dbig)
        problem = oracle.SteadyStateProblem(p, om, n_max)
        rho = oracle.solve_steady_state(problem)
        rho.check_invariants(1e-8)
        system = oracle.assemble(problem)
        defect = system.matrix @ rho.coeffs.reshape(-1) - system.rhs
        worst_res = max(worst_res, float(np.max(np.abs(defect))))
        swapped = NormalizedParams.build(
            delta_tilde=delta, a_ratio=1.0 / a, mu=mu, phi_tilde=a * phi,
            delta_big_tilde=dbig)
        rho_sw = oracle.solve_steady_state(
            oracle.SteadyStateProblem(swapped, -om, n_max))
        gap = max(abs(rho.dc(i, i) - rho_sw.dc(i, i)) for i in range(3))
        worst_gap = max(worst_gap, float(gap))
    ok = worst_res < 1e-10 and worst_gap < 1e-10
    _report(10, ok, f"50 draws, worst residual {worst_res:.2e}, "
                    f"worst exchange gap {worst_gap:.2e}")


def test_criterion_11_figure_datasets_behave():
    from tpa.cli import run_figure
    start = time.perf_counter()
    f4 = run_figure(4)
    f5 = run_figure(5)
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    for name in ("lorentzian", "gaussian"):
        col = f4.columns[name]
        peak = float(np.max(col))
        ok = ok and peak > col[0] and peak > col[-1]
        ok = ok and abs(col[-1] - 1.0) < 0.05
    gap = float(np.max(np.abs(f4.columns["gaussian"] - f4.columns["lorentzian"])
                       / f4.columns["lorentzian"]))
    ok = ok and gap < 0.15
    l5 = f5.columns["lorentzian"]
    g5 = f5.columns["gaussian"]
    third = 4.0 / 3.0
    ok = ok and abs(l5[0] - third) < 0.02 and abs(g5[0] - third) < 0.02
    ok = ok and abs(l5[-1] - 0.5) < 0.02 and abs(g5[-1] - 0.5) < 0.02
    ok = ok and bool(np.all(np.diff(l5) <= 1e-9))
    ok = ok and bool(np.all(np.diff(g5)[2:] <= 1e-9))
    _report(11, ok, f"f4 profile gap {gap:.3f}, f5 ends "
                    f"{l5[-1]:.3f}/{g5[-1]:.3f}, {elapsed:.1f}s")
