"""Per-layer counters and timers around the public functions of tpa.

The tracer replaces module attributes of the imported `tpa` modules in this
process only; no file under `src/` changes, and `uninstall` puts every
original back. It works because tpa calls across modules through module
attributes (`averaging` calls `oracle_mod.refine`, `refine` calls the
module-global `solve_steady_state`, which calls `assemble` and `sla.*`), so
a replaced attribute sees every call.

Every wrapped call opens a span; a span's self time is its duration minus
the time of the wrapped spans it encloses. The one private hook is
`averaging._converge`, whose (estimate, mass) iterator yields once per
quadrature level: counting those yields gives the levels per average and
the nodes of the accepted level. If it is renamed, `install` fails.
"""

from __future__ import annotations

import functools
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

from tpa import analytics, averaging, cli, oracle

# Bytes per matrix entry held by one dense solve: the complex128 operator
# and its extended-precision clongdouble copy used for the residual.
_ENTRY_BYTES = np.dtype(complex).itemsize + np.dtype(np.clongdouble).itemsize
_CLOSED_FORMS = ("n2", "n3", "width_fwhm", "stark_shift", "stark_shift_sw",
                 "stark_shift_tw", "n2_max")


class _Stat:
    __slots__ = ("calls", "total", "self_s")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0


class _LapackProxy:
    """Stands in for `scipy.linalg` inside `tpa.oracle`; times the LU calls."""

    def __init__(self, tracer: "Tracer", sla):
        self._sla = sla
        self.lu_factor = tracer.span("oracle.lapack.lu_factor", sla.lu_factor,
                                     before=tracer._count_lu)
        self.lu_solve = tracer.span("oracle.lapack.lu_solve", sla.lu_solve)

    def __getattr__(self, name):
        return getattr(self._sla, name)


class Tracer:
    """Install with `install()`, run traced work, read `metrics(rows)`."""

    def __init__(self):
        self._patches = []
        self.reset()

    def reset(self) -> None:
        """Zero every counter; the wrappers bind them, so only when idle."""
        if self._patches:
            raise RuntimeError("reset a tracer only while uninstalled")
        self.stats = defaultdict(_Stat)
        self._stack = []
        self.solves_by_size = {"small": 0, "mid": 0, "large": 0}
        self.n_used_max = 0
        self.matrix_bytes = 0
        self.lu_flops = 0.0
        self.levels = 0
        self.accepted_nodes = 0
        self.average_evals = 0
        self.curve_evals = 0
        self.csv_bytes = 0
        self.points = []
        self._open_average = None

    # -- spans ---------------------------------------------------------
    def span(self, key, fn, before=None, after=None):
        """`fn` wrapped in a span named `key`, with optional hooks.

        before(args, kwargs) may return replacement (args, kwargs);
        after(args, kwargs, result) sees the result of a call that returned.
        """
        stat = self.stats[key]
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs) or (args, kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stat.calls += 1
                stat.total += dt
                stat.self_s += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _patch(self, module, name, replacement) -> None:
        self._patches.append((module, name, getattr(module, name)))
        setattr(module, name, replacement)

    def _wrap(self, module, name, key, **hooks) -> None:
        self._patch(module, name, self.span(key, getattr(module, name),
                                            **hooks))

    # -- hooks ---------------------------------------------------------
    def _count_solve(self, args, kwargs):
        n_max = (args[0] if args else kwargs["problem"]).n_max
        size = "small" if n_max <= 7 else "mid" if n_max <= 19 else "large"
        self.solves_by_size[size] += 1

    def _count_lu(self, args, kwargs):
        d = (args[0] if args else kwargs["a"]).shape[0]
        self.matrix_bytes += _ENTRY_BYTES * d * d
        self.lu_flops += 8.0 / 3.0 * d ** 3  # complex LU, real flops

    def _refined(self, args, kwargs, result):
        self.n_used_max = max(self.n_used_max, result[1])
        if self._open_average is not None:
            self._open_average["n_used_max"] = max(
                self._open_average["n_used_max"], result[1])

    def _open_average_point(self, args, kwargs):
        params = args[0] if args else kwargs["params"]
        self._open_average = {
            "delta_tilde": params.delta_tilde, "kind": params.kind,
            "n_used_max": 0, "_marks": self._marks()}

    def _close_average_point(self, args, kwargs, result):
        point = self._open_average
        self._open_average = None
        evals, solves, levels = (now - then for now, then in
                                 zip(self._marks(), point.pop("_marks")))
        point.update(evals=evals, solves=solves, levels=levels)
        self.average_evals += evals
        self.points.append(point)

    def _marks(self):
        return (self.stats["oracle.refine"].calls,
                self.stats["oracle.solve_steady_state"].calls, self.levels)

    def _count_curve(self, args, kwargs):
        curve = args[0] if args else kwargs["curve"]

        def counted(d):
            self.curve_evals += 1
            return curve(d)
        if args:
            return (counted,) + args[1:], kwargs
        return args, dict(kwargs, curve=counted)

    def _count_csv(self, args, kwargs, result):
        target = args[1] if len(args) > 1 else kwargs["target"]
        if isinstance(target, (str, os.PathLike)):
            self.csv_bytes += os.path.getsize(target)

    def _levels_converge(self, converge):
        refine = self.stats["oracle.refine"]

        @functools.wraps(converge)
        def wrapper(sums, *args, **kwargs):
            last = [0]

            def counted():
                mark = refine.calls
                for item in sums:
                    last[0], mark = refine.calls - mark, refine.calls
                    self.levels += 1
                    yield item
            result = converge(counted(), *args, **kwargs)
            self.accepted_nodes += last[0]
            return result
        return wrapper

    # -- install -------------------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._wrap(cli, "parse_scan_config", "cli.parse_scan_config")
        self._wrap(cli, "write_csv", "cli.write_csv", after=self._count_csv)
        self._wrap(oracle, "assemble", "oracle.assemble")
        self._wrap(oracle, "solve_steady_state", "oracle.solve_steady_state",
                   before=self._count_solve)
        self._wrap(oracle, "refine", "oracle.refine", after=self._refined)
        self._patch(oracle, "sla", _LapackProxy(self, oracle.sla))
        self._wrap(averaging, "oracle_average", "averaging.oracle_average",
                   before=self._open_average_point,
                   after=self._close_average_point)
        self._wrap(averaging, "averaged_population",
                   "averaging.averaged_population")
        self._patch(averaging, "_converge",
                    self._levels_converge(averaging._converge))
        # averaging imports the series by name, so its own attribute is the
        # one every call goes through.
        self._wrap(averaging, "upper_dc_series",
                   "perturbative.upper_dc_series")
        for name in ("numeric_fwhm", "numeric_peak"):
            self._wrap(analytics, name, f"analytics.{name}",
                       before=self._count_curve)
        for name in _CLOSED_FORMS:
            self._wrap(analytics, name, "analytics.closed")

    def uninstall(self) -> None:
        while self._patches:
            module, name, original = self._patches.pop()
            setattr(module, name, original)

    # -- results -------------------------------------------------------
    def metrics(self, rows: int) -> dict:
        """Per-layer metrics of the traced work, normalized per CSV row."""
        s = self.stats

        def per_row(value, unit):
            return {"value": value / rows, "unit": unit}

        def value(v, unit):
            return {"value": v, "unit": unit}

        def ratio(num, den):
            return {"value": num / den if den else 0.0, "unit": "ratio"}

        def mean(num, den):
            return {"value": num / den if den else 0.0, "unit": "count"}

        lapack = (s["oracle.lapack.lu_factor"].calls
                  + s["oracle.lapack.lu_solve"].calls)
        averages = s["averaging.oracle_average"].calls
        locates = (s["analytics.numeric_fwhm"].calls
                   + s["analytics.numeric_peak"].calls)
        out = {
            "cli.parse_scan_config.s": per_row(
                s["cli.parse_scan_config"].total, "s/row"),
            "cli.write_csv.s": per_row(s["cli.write_csv"].total, "s/row"),
            "cli.write_csv.bytes": per_row(self.csv_bytes, "B/row"),
            "oracle.assemble.calls": per_row(s["oracle.assemble"].calls,
                                             "count/row"),
            "oracle.assemble.self_s": per_row(s["oracle.assemble"].self_s,
                                              "s/row"),
            "oracle.solve_steady_state.calls": per_row(
                s["oracle.solve_steady_state"].calls, "count/row"),
            "oracle.solve_steady_state.self_s": per_row(
                s["oracle.solve_steady_state"].self_s, "s/row"),
            "oracle.lapack.lu_factor_s": per_row(
                s["oracle.lapack.lu_factor"].total, "s/row"),
            "oracle.lapack.lu_solve_s": per_row(
                s["oracle.lapack.lu_solve"].total, "s/row"),
            "oracle.lapack.calls": per_row(lapack, "count/row"),
            "oracle.matrix_bytes.computed": per_row(self.matrix_bytes,
                                                    "B/row"),
            "oracle.lu_flops.computed": per_row(self.lu_flops, "flop/row"),
            "oracle.refine.calls": per_row(s["oracle.refine"].calls,
                                           "count/row"),
            "oracle.refine.n_used_max": value(self.n_used_max, "count"),
            "oracle.refine.useful_frac": ratio(
                s["oracle.refine"].calls,
                s["oracle.solve_steady_state"].calls),
            "averaging.oracle_average.calls": per_row(averages, "count/row"),
            "averaging.evals_per_average": mean(self.average_evals, averages),
            "averaging.levels_per_average": mean(
                sum(p["levels"] for p in self.points), averages),
            "averaging.useful_frac": ratio(self.accepted_nodes,
                                           self.average_evals),
            "averaging.averaged_population.calls": per_row(
                s["averaging.averaged_population"].calls, "count/row"),
            "averaging.averaged_population.s": per_row(
                s["averaging.averaged_population"].total, "s/row"),
            "perturbative.upper_dc_series.calls": per_row(
                s["perturbative.upper_dc_series"].calls, "count/row"),
            "perturbative.upper_dc_series.s": per_row(
                s["perturbative.upper_dc_series"].total, "s/row"),
            "analytics.numeric_fwhm.s": per_row(
                s["analytics.numeric_fwhm"].total, "s/row"),
            "analytics.numeric_peak.s": per_row(
                s["analytics.numeric_peak"].total, "s/row"),
            "analytics.curve_evals_per_locate": mean(self.curve_evals,
                                                     locates),
            "analytics.closed.s": per_row(s["analytics.closed"].total,
                                          "s/row"),
        }
        for size, count in self.solves_by_size.items():
            out[f"oracle.solves.{size}"] = per_row(count, "count/row")
        return out
