"""tpa benchmark: one workload in one process, one JSON result line.

    python3 bench/run.py --workload weak_gauss --seed 1 --seconds 30 --trace 0

Run from anywhere; the program under test is `src/tpa` beside this
directory, imported from source. The run makes the calls `tpa scan` and
`tpa figure` make (`cli.parse_scan_config`, `cli.run_scan` or
`cli.run_figure`, then `cli.write_csv` to a file) with one worker and the
default BLAS threads, and checks every row it writes against
`reference.json`.

--trace 0 times the workload for --seconds and reports the end-to-end
metrics. --trace 1 runs a self-check of the tracer, then a fixed number of
units twice, plain and traced, and reports the per-layer metrics; the two
passes must write identical bytes. See README.md for the metrics.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it records the environment, and .bench_out/ keeps the CSVs and
a full record of the run. Exit code 2 means the sources are missing.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 11
# Units run plain and traced by --trace 1: one two-point oracle scan, or
# five closed-form passes, which fit the run time of an untraced run.
TRACED_UNITS = {"weak_gauss": 1, "strong_lorentz": 1, "closed_form": 5}


def probe_setup(doc: dict) -> float:
    """Seconds from starting a fresh process to tpa imported, config parsed."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"),
                           str(SRC), json.dumps(doc)],
                          stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


class Bench:
    """The imported program, the references, and the row checks."""

    def __init__(self, workload: str):
        from tpa import averaging, cli
        from tpa.analytics import LocatorError
        from tpa.averaging import QuadratureError
        from tpa.core import NormalizedParams
        from tpa.oracle import OracleError

        self.workload = workload
        self.cli = cli
        self.errors = (OracleError, QuadratureError, LocatorError)
        self.reference = wl.load_reference()
        self._expected = {}
        self.faddeeva = None
        if workload == "weak_gauss":
            fixed = wl.ORACLE_FIXED[workload]
            self.faddeeva = lambda d: averaging.averaged_population(
                NormalizedParams.build(delta_tilde=d, kind="gaussian",
                                       **fixed), order=3)

    def run_unit(self, unit, tag: str) -> list:
        """Run each job as the CLI does; a numerical failure leaves no CSV."""
        cli = self.cli
        done = []
        for job in unit:
            path = OUT / f"{tag}-{job.name}.csv"
            try:
                if job.doc is not None:
                    scan = cli.run_scan(cli.parse_scan_config(job.doc),
                                        workers=1)
                else:
                    scan = cli.run_figure(job.fig)
                cli.write_csv(scan, str(path))
            except self.errors as exc:
                print(f"{job.name}: numerical failure: {exc}", file=sys.stderr)
                path = None
            done.append((job, path))
        return done

    def check(self, done) -> tuple[int, int]:
        """(attempted, failed) rows of a finished unit."""
        attempted = failed = 0
        for job, path in done:
            want, rtol = self.expected(job)
            attempted += len(want)
            try:
                got = None if path is None else wl.read_csv(path)
            except ValueError as exc:
                print(f"{job.name}: unreadable CSV: {exc}", file=sys.stderr)
                got = None
            failed += (len(want) if got is None else
                       wl.count_bad_rows(got, want, rtol, self.faddeeva))
        return attempted, failed

    def expected(self, job):
        """Reference rows of a job as an array, and their tolerances.

        Cached for the fixed jobs of closed_form.
        """
        import numpy as np

        if job.name in self._expected:
            return self._expected[job.name]
        want = np.array(wl.expected_rows(self.workload, job, self.reference))
        entry = want, wl.value_rtol(self.workload, job, want)
        if self.workload == "closed_form":
            self._expected[job.name] = entry
        return entry

    def warm_up(self) -> None:
        """Load the workload's own code paths before timing.

        An oracle workload solves one homogeneous point at its own drive,
        and closed_form runs a small scan, so the warm-up adds nothing to
        peak memory that the workload would not reach itself.
        """
        doc = (_homogeneous_doc(self.workload)
               if self.workload in wl.ORACLE_POOL else _small_closed_doc())
        self.cli.run_scan(self.cli.parse_scan_config(doc), workers=1)


def _homogeneous_doc(workload: str) -> dict:
    doc = wl.oracle_doc(workload, 0.5, 1.0)
    doc["fixed"]["gamma_v_tilde"] = 0.0
    doc["dist"]["kind"] = "homogeneous"
    return doc


def _small_closed_doc() -> dict:
    doc = wl.closed_doc(0)
    doc["sweep"]["count"] = 3
    return doc


def timed_run(bench: Bench, units, seconds: float) -> dict:
    """Run units while one more ends nearer to `seconds` of timed work.

    The timed work then lands within half a unit of `seconds`, and at
    least one unit runs. The rates come from the fastest unit: the machine
    this was tuned on switches between a fast and a slow speed every few
    seconds, and a run's median unit follows the share of time it spent in
    each, while its fastest unit does not (see README.md, Steadiness).
    """
    walls, cpus, rows = [], [], []
    attempted = failed = 0
    for unit in units:
        w0, c0 = perf_counter(), process_time()
        done = bench.run_unit(unit, "run")
        walls.append(perf_counter() - w0)
        cpus.append(process_time() - c0)
        a, f = bench.check(done)
        attempted += a
        failed += f
        rows.append(a)
        if seconds - sum(walls) < statistics.median(walls) / 2:
            break
    return {
        "attempted": attempted, "failed": failed,
        "unit_walls_s": walls, "unit_cpu_s": cpus,
        "metrics": {
            "points_per_s": max(r / w for r, w in zip(rows, walls)),
            "cpu_s_per_point": min(c / r for c, r in zip(cpus, rows)),
            "ok_frac": 1.0 - failed / attempted,
        },
    }


def self_check(bench: Bench, tracer) -> list:
    """Problems found when the tracer counts a known call pattern.

    One homogeneous oracle point is one refine call whose rungs
    n_max = 3, 5, ..., n_used are one solve each, and no quadrature level.
    One Lorentzian oracle point whose node ladder starts at 8 and runs L
    levels evaluates 8 (2^L - 1) nodes, each one refine call and one series
    call, and accepts the 8 * 2^(L-1) nodes of its last level. Every solve
    is one assembly and one LU factorization. A three-point n2+n3 scan is
    one config parse and three n2 and three n3 calls. Any other count means
    a wrapper missed calls.
    """
    from tpa import averaging
    from tpa.core import NormalizedParams

    homogeneous = dict(wl.ORACLE_FIXED["strong_lorentz"], gamma_v_tilde=0.0)
    lorentzian = dict(wl.ORACLE_FIXED["weak_gauss"], kind="lorentzian")
    quad = averaging.QuadratureSpec(nodes=8, domain_halfwidth=10.0, tol=1e-3)
    tracer.reset()
    tracer.install()
    try:
        _, info = averaging.oracle_average(
            NormalizedParams.build(delta_tilde=0.5, **homogeneous),
            return_info=True)
        averaging.oracle_average(
            NormalizedParams.build(delta_tilde=0.5, **lorentzian), quad)
        bench.cli.run_scan(bench.cli.parse_scan_config(_small_closed_doc()))
    finally:
        tracer.uninstall()
    problems = []
    first, second = (tracer.points + [{}, {}])[:2]
    rungs = (info["n_used"] - 3) // 2 + 1
    if (first.get("evals"), first.get("solves"),
            first.get("levels")) != (1, rungs, 0):
        problems.append(f"homogeneous point record {first}, expected "
                        f"1 evaluation, {rungs} solves and 0 levels")
    evals = second.get("evals", 0)
    levels = (evals // 8 + 1).bit_length() - 1
    if (levels < 2 or evals != 8 * (2 ** levels - 1)
            or second.get("levels") != levels):
        problems.append(f"lorentzian point record {second}, expected "
                        f"8 (2^L - 1) evaluations in L >= 2 levels")
    solves = rungs + second.get("solves", 0)
    expect = {"averaging.oracle_average": 2, "oracle.refine": 1 + evals,
              "oracle.solve_steady_state": solves, "oracle.assemble": solves,
              "oracle.lapack.lu_factor": solves,
              "perturbative.upper_dc_series": evals,
              "cli.parse_scan_config": 1, "analytics.closed": 6}
    problems += [f"{key}: {tracer.stats[key].calls} calls, expected {want}"
                 for key, want in expect.items()
                 if tracer.stats[key].calls != want]
    if tracer.accepted_nodes != 8 * 2 ** (levels - 1):
        problems.append(f"{tracer.accepted_nodes} accepted nodes, expected "
                        f"{8 * 2 ** (levels - 1)}")
    return problems


def traced_run(bench: Bench, units, import_s: float) -> dict:
    """Self-check, then each traced unit run plain and traced, compared."""
    from tracer import Tracer

    tracer = Tracer()
    problems = self_check(bench, tracer)  # also warms up
    tracer.reset()
    plain_s, traced_s = [], []
    attempted = failed = 0
    for unit in itertools.islice(units, TRACED_UNITS[bench.workload]):
        w0 = perf_counter()
        plain = bench.run_unit(unit, "plain")
        plain_s.append(perf_counter() - w0)
        tracer.install()
        try:
            w0 = perf_counter()
            traced = bench.run_unit(unit, "traced")
            traced_s.append(perf_counter() - w0)
        finally:
            tracer.uninstall()
        for (job, a), (_, b) in zip(plain, traced):
            if a is None or b is None or a.read_bytes() != b.read_bytes():
                problems.append(f"{job.name}: traced output differs")
        a, f = bench.check(traced)
        attempted += a
        failed += f
    metrics = tracer.metrics(attempted)
    metrics["cli.import_s"] = {"value": import_s, "unit": "s"}
    overhead = statistics.median(t / p for t, p in zip(traced_s, plain_s))
    metrics["trace.overhead_frac"] = {"value": overhead - 1.0,
                                      "unit": "ratio"}
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "plain_s": plain_s, "traced_s": traced_s,
            "points": tracer.points, "metrics": metrics}


def environment() -> dict:
    import numpy
    import scipy

    git = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "describe", "--always", "--dirty",
                               "--tags"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        git = done.stdout.strip() or "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_describe": git, "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS",
                                                   "default")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tpa" / "__init__.py").is_file():
        print(f"error: no tpa sources at {SRC}", file=sys.stderr)
        return 2

    setup = []
    if not args.trace:
        first = next(wl.units(args.workload, random.Random(args.seed)))
        probe_doc = next(job.doc for job in first if job.doc is not None)
        setup = [probe_setup(probe_doc) for _ in range(SETUP_PROBES)]

    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import tpa.cli
    import_s = perf_counter() - t0
    if Path(tpa.cli.__file__).resolve().parent.parent != SRC:
        print(f"error: imported tpa from {tpa.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    bench = Bench(args.workload)
    units = wl.units(args.workload, random.Random(args.seed))
    if args.trace:
        record = traced_run(bench, units, import_s)
        correct = record["failed"] == 0 and not record["problems"]
        for problem in record["problems"]:
            print(f"trace check: {problem}", file=sys.stderr)
    else:
        bench.warm_up()
        record = timed_run(bench, units, args.seconds)
        correct = record["failed"] == 0
        record["metrics"].update(
            setup_s=statistics.median(setup),
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        units_of = {"points_per_s": "1/s", "cpu_s_per_point": "s",
                    "ok_frac": "ratio", "setup_s": "s", "peak_rss_mb": "MiB"}
        record["metrics"] = {name: {"value": value, "unit": units_of[name]}
                             for name, value in record["metrics"].items()}
    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  setup_probes_s=setup, environment=environment())
    result = {"correct": correct, "attempted": record["attempted"],
              "failed": record["failed"], "metrics": record["metrics"]}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
