"""Command line front end: parameter scans, figure data, self checks.

Three subcommands:

  tpa scan --config cfg.json [--out file.csv]
      Sweep one normalized parameter and tabulate an observable.
  tpa figure --fig N [--out file.csv] [--a-values 0,0.5,1]
      Reproduce one of the canned figure datasets (2, 3, 4, 5).
  tpa validate [--level fast|full]
      Run the cross-check suites and print a report.

Exit codes: 0 success, 1 failed validation, 2 usage or configuration error
(a closed-form value beyond double precision or an unwritable output path
included), 3 numerical failure (solver, quadrature, or locator did not
converge).

Scan configs are JSON with normalized (gamma = 1) parameters:

    {
      "observable": "n2" | "n2+n3" | "width" | "stark" | "n2max" | "oracle_avg",
      "sweep": {"axis": "delta_tilde", "start": -6, "stop": 6, "count": 121},
      "fixed": {"x": 1e-3, "a_ratio": 1.0, "gamma_v_tilde": 2.0},
      "dist": {"kind": "lorentzian"},
      "quadrature": {"nodes": 32, "domain_halfwidth": 10.0, "tol": 1e-6},
      "oracle": {"n_cap": 41, "refine_tol": 1e-14, "order": 3},
      "out": "scan.csv"
    }

Unknown keys are rejected everywhere. Every sweep point is a
NormalizedParams, so its rules hold at each point of every observable.
"quadrature" and "oracle" only apply to the oracle_avg observable; keys
left out of either block keep the defaults shown above. The quadrature
rule follows dist.kind (a nested trapezoid rule starting from `nodes`
intervals for gaussian, tan-mapped Gauss-Legendre for lorentzian, which
alone uses domain_halfwidth); `nodes` is at most 1024. CSV output starts
with a '#'-prefixed JSON metadata line and keeps 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import analytics, averaging
from ._version import __version__
from .analytics import LocatorError
from .averaging import DEFAULT_ORACLE_QUAD, QuadratureError, QuadratureSpec
from .core import _KINDS, NormalizedParams, ParameterError
from .oracle import DEFAULT_N_CAP, OracleError

_AXES = ("delta_tilde", "gamma_v_tilde", "a_ratio")
# Sweep grids are held in memory; a million points is far beyond any figure.
_MAX_SWEEP_COUNT = 1_000_000
_DRIVE = {"x", "mu", "gamma_v_tilde", "a_ratio"}
# Each observable: the fixed keys it accepts, those it requires, and its
# closed value at (parameters, delta_tilde), None for the solved oracle_avg.
# The values look analytics up at each call, so a wrapped name is the one
# called.
_OBSERVABLES = {
    "n2": (_DRIVE | {"delta_tilde"}, {"x"},
           lambda p, d: analytics.n2(p, d)),
    "n2+n3": (_DRIVE | {"delta_tilde"}, {"x"},
              lambda p, d: analytics.n2(p, d) + analytics.n3(p, d)),
    "width": ({"gamma_v_tilde", "a_ratio"}, set(),
              lambda p, d: analytics.width_fwhm(p.a_ratio, p.gamma_v_tilde)),
    "stark": (_DRIVE, {"x"}, lambda p, d: analytics.stark_shift(p)),
    "n2max": (_DRIVE, {"x"}, lambda p, d: analytics.n2_max(p)),
    "oracle_avg": ({"delta_tilde", "gamma_v_tilde", "a_ratio", "mu",
                    "phi_tilde", "delta_big_tilde"}, {"delta_big_tilde"},
                   None),
}


@dataclass(frozen=True)
class ScanConfig:
    observable: str
    axis: str
    grid: np.ndarray
    fixed: dict
    kind: str
    quad: QuadratureSpec | None = None
    oracle_opts: dict = field(default_factory=dict)
    out: str | None = None
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SpectrumScan:
    """Tabulated sweep: the axis grid plus one or more value columns."""

    axis: str
    grid: np.ndarray
    columns: dict
    metadata: dict


def _float_item(doc: dict, key: str, where: str) -> float:
    """doc[key] as a finite float; no booleans."""
    raw = doc[key]
    try:
        if isinstance(raw, bool):
            raise TypeError
        value = float(raw)
    except (TypeError, ValueError):
        raise ParameterError(f"{where}.{key} must be a number, got {raw!r}")
    if not math.isfinite(value):
        raise ParameterError(f"{where}.{key} must be finite, got {raw!r}")
    return value


def _check_keys(doc: dict, allowed, required, where: str) -> None:
    if not isinstance(doc, dict):
        raise ParameterError(f"{where} must be a mapping")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ParameterError(f"unknown {where} keys: {sorted(unknown)}")
    missing = set(required) - set(doc)
    if missing:
        raise ParameterError(f"missing {where} keys: {sorted(missing)}")


def parse_scan_config(doc: dict) -> ScanConfig:
    """Validate a scan config document; any problem raises ParameterError."""
    _check_keys(doc, ("observable", "sweep", "fixed", "dist", "quadrature",
                      "oracle", "out"), ("observable", "sweep"), "config")
    obs = doc["observable"]
    if not isinstance(obs, str) or obs not in _OBSERVABLES:
        raise ParameterError(f"observable must be one of "
                             f"{tuple(_OBSERVABLES)}, got {obs!r}")

    sweep = doc["sweep"]
    _check_keys(sweep, ("axis", "start", "stop", "count"),
                ("axis", "start", "stop", "count"), "sweep")
    axis = sweep["axis"]
    if axis not in _AXES:
        raise ParameterError(f"sweep.axis must be one of {_AXES}, got {axis!r}")
    start = _float_item(sweep, "start", "sweep")
    stop = _float_item(sweep, "stop", "sweep")
    if not math.isfinite(stop - start):
        raise ParameterError("sweep.stop - sweep.start overflows a double")
    count = sweep["count"]
    if not isinstance(count, int) or not 2 <= count <= _MAX_SWEEP_COUNT:
        raise ParameterError(f"sweep.count must be an integer in "
                             f"[2, {_MAX_SWEEP_COUNT}], got {count!r}")
    grid = np.linspace(start, stop, count)

    fixed_doc = doc.get("fixed", {})
    allowed, required, _ = _OBSERVABLES[obs]
    _check_keys(fixed_doc, allowed, required, "fixed")
    fixed = {k: _float_item(fixed_doc, k, "fixed") for k in fixed_doc}
    if axis in fixed:
        raise ParameterError(f"sweep axis {axis!r} also appears in fixed")
    if axis not in allowed:
        raise ParameterError(
            f"axis {axis!r} does not apply to observable {obs!r}")

    gv_values = grid if axis == "gamma_v_tilde" else \
        np.array([fixed.get("gamma_v_tilde", 0.0)])
    dist_doc = doc.get("dist")
    if dist_doc is None:
        kind = "homogeneous" if np.all(gv_values == 0.0) else "lorentzian"
    else:
        _check_keys(dist_doc, ("kind",), ("kind",), "dist")
        kind = str(dist_doc["kind"]).lower()
        if kind not in _KINDS:
            raise ParameterError(f"unknown dist kind {kind!r}")
    if obs != "oracle_avg" and kind == "gaussian":
        raise ParameterError(
            f"observable {obs!r} closes only for lorentzian or homogeneous "
            "profiles; use oracle_avg or the library API for gaussian ones")
    if obs == "oracle_avg" and kind != "homogeneous" and np.any(gv_values == 0.0):
        raise ParameterError(
            f"{kind} profiles need gamma_v_tilde > 0 at every sweep point")

    quad = None
    if "quadrature" in doc:
        if obs != "oracle_avg":
            raise ParameterError("'quadrature' only applies to oracle_avg")
        qdoc = doc["quadrature"]
        _check_keys(qdoc, ("nodes", "domain_halfwidth", "tol"), (),
                    "quadrature")
        kwargs = {}
        if "nodes" in qdoc:
            if not isinstance(qdoc["nodes"], int):
                raise ParameterError("quadrature.nodes must be an integer")
            kwargs["nodes"] = qdoc["nodes"]
        if "domain_halfwidth" in qdoc:
            kwargs["domain_halfwidth"] = _float_item(
                qdoc, "domain_halfwidth", "quadrature")
        if "tol" in qdoc:
            kwargs["tol"] = _float_item(qdoc, "tol", "quadrature")
        quad = replace(DEFAULT_ORACLE_QUAD, **kwargs)

    oracle_opts = {"n_cap": DEFAULT_N_CAP, "refine_tol": 1e-14, "order": 3}
    if "oracle" in doc:
        if obs != "oracle_avg":
            raise ParameterError("'oracle' options only apply to oracle_avg")
        odoc = doc["oracle"]
        _check_keys(odoc, ("n_cap", "refine_tol", "order"), (), "oracle")
        if "n_cap" in odoc:
            # refine needs two rungs, n_max = 3 and 5, to test settling
            if not isinstance(odoc["n_cap"], int) or odoc["n_cap"] < 5:
                raise ParameterError("oracle.n_cap must be an integer >= 5")
            oracle_opts["n_cap"] = odoc["n_cap"]
        if "refine_tol" in odoc:
            oracle_opts["refine_tol"] = _float_item(odoc, "refine_tol", "oracle")
        if "order" in odoc:
            if type(odoc["order"]) is not int or odoc["order"] not in (2, 3):
                raise ParameterError("oracle.order must be the integer 2 or 3")
            oracle_opts["order"] = odoc["order"]

    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise ParameterError("out must be a string path")

    metadata = {
        "command": "scan",
        "version": __version__,
        "observable": obs,
        "sweep": {"axis": axis, "start": start, "stop": stop, "count": count},
        "fixed": fixed,
        "dist": {"kind": kind},
    }
    if quad is not None:
        metadata["quadrature"] = {"nodes": quad.nodes,
                                  "domain_halfwidth": quad.domain_halfwidth,
                                  "tol": quad.tol}
    if "oracle" in doc:
        metadata["oracle"] = dict(oracle_opts)
    cfg = ScanConfig(observable=obs, axis=axis, grid=grid, fixed=fixed,
                     kind=kind, quad=quad, oracle_opts=oracle_opts, out=out,
                     metadata=metadata)
    # the parameter rules are intervals: check the grid ends
    _params_at(cfg, start)
    _params_at(cfg, stop)
    return cfg


def _params_at(cfg: ScanConfig, value: float) -> NormalizedParams:
    """Parameters at one sweep point; gamma_v_tilde = 0 is homogeneous.

    The closed observables supply x and oracle_avg supplies delta_big_tilde.
    The width does not depend on the drive, so there x = 1 only completes
    the parameter set.
    """
    vals = {**cfg.fixed, cfg.axis: float(value)}
    if cfg.observable == "width":
        vals["x"] = 1.0
    kind = cfg.kind if vals.get("gamma_v_tilde", 0.0) > 0.0 else "homogeneous"
    return NormalizedParams.build(**vals, kind=kind)


def _column(name: str, axis: str, grid: np.ndarray, point) -> np.ndarray:
    """point(g) at every sweep value g, refusing what a double cannot hold.

    A closed form at extreme parameters overflows a float power
    (OverflowError) or comes out nan or inf. Either is a ParameterError that
    names the column and the first such sweep value, so no such value
    reaches a CSV; the sweep is evaluated again only to find that value.
    """
    def finite(g) -> bool:
        try:
            return math.isfinite(point(g))
        except OverflowError:
            return False
    try:
        values = np.array([point(g) for g in grid])
        if np.isfinite(values).all():
            return values
    except OverflowError:
        pass
    bad = next(float(g) for g in grid if not finite(g))
    raise ParameterError(f"column {name!r} has no finite value at {axis} = "
                         f"{bad!r}: x, mu, a_ratio or gamma_v_tilde is too "
                         f"large for double precision")


def _closed_column(cfg: ScanConfig) -> np.ndarray:
    value = _OBSERVABLES[cfg.observable][2]
    if cfg.axis == "delta_tilde":
        # the profiles take the detuning as an argument, so one parameter
        # set serves every point of the line
        p = _params_at(cfg, 0.0)

        def point(d):
            return value(p, float(d))
    else:
        def point(g):
            p = _params_at(cfg, g)
            return value(p, p.delta_tilde)
    return _column(cfg.observable, cfg.axis, cfg.grid, point)


def _oracle_point(cfg: ScanConfig, value: float):
    got, info = averaging.oracle_average(
        _params_at(cfg, value), cfg.quad, order=cfg.oracle_opts["order"],
        n_cap=cfg.oracle_opts["n_cap"],
        refine_tol=cfg.oracle_opts["refine_tol"], return_info=True)
    return got, info["n_used"]


def run_scan(config: ScanConfig, workers: int = 1) -> SpectrumScan:
    """Evaluate the configured observable over the sweep grid, serially.

    workers must be 1: bench/ passes it, and ROADMAP item 2 removes it.
    """
    if workers != 1:
        raise ParameterError(f"run_scan is serial: workers must be 1, "
                             f"got {workers!r}")
    if config.observable == "oracle_avg":
        results = [_oracle_point(config, v) for v in config.grid]
        values = np.array([r[0] for r in results])
        n_used = np.array([float(r[1]) for r in results])
        columns = {"oracle_avg": values, "n_used": n_used}
    else:
        columns = {config.observable: _closed_column(config)}
    return SpectrumScan(axis=config.axis, grid=config.grid, columns=columns,
                        metadata=config.metadata)


def _gaussian_line(gv: float, a: float, mu: float, order: int):
    """The Gaussian-averaged series at x = 1e-3 as a function of delta_tilde."""
    base = NormalizedParams.build(a_ratio=a, gamma_v_tilde=gv, x=1e-3, mu=mu,
                                  kind="gaussian" if gv > 0 else None)
    return lambda d: averaging.averaged_series(base, d, order)


def _gaussian_peak_location(gv: float, a: float) -> float:
    return analytics.numeric_peak(_gaussian_line(gv, a, math.sqrt(2.0), 3),
                                  bracket_halfwidth=4.0 * (1.0 + gv), tol=1e-9)


def run_figure(fig: int, a_values=None) -> SpectrumScan:
    """Build the dataset behind one of the canned figures.

    2: peak signal versus Doppler width for several beam ratios, all
       normalized to the homogeneous equal-wave value;
    3: closed-form half width Gamma/2 versus Doppler width;
    4: Gamma/2 for an equal standing wave, Lorentzian closed form against a
       Gaussian profile measured on the averaged order-2 line;
    5: ratio of standing-wave to running-wave peak displacement, Lorentzian
       closed form against Gaussian peak bracketing.
    """
    if fig == 2:
        avals = [0.0, 0.25, 0.5, 0.75, 1.0] if a_values is None else list(a_values)
        grid = np.linspace(0.0, 20.0, 81)
        ref = analytics.n2_max(NormalizedParams.build(x=1.0, a_ratio=1.0))
        points = {f"a={a:g}": lambda gv, a=a: analytics.n2_max(
                      NormalizedParams.build(x=1.0, a_ratio=a,
                                             gamma_v_tilde=gv)) / ref
                  for a in avals}
        meta_a = avals
    elif fig == 3:
        avals = [0.5, 1.0] if a_values is None else list(a_values)
        grid = np.concatenate([[0.0], np.geomspace(0.01, 100.0, 48)])
        points = {f"a={a:g}": lambda gv, a=a: 0.5 * analytics.width_fwhm(a, gv)
                  for a in avals}
        meta_a = avals
    elif fig == 4:
        if a_values is not None:
            raise ParameterError("figure 4 is defined for a_ratio = 1 only")
        grid = np.concatenate([[0.0], np.geomspace(0.05, 100.0, 23)])
        points = {
            "lorentzian": lambda gv: 0.5 * analytics.width_fwhm(1.0, gv),
            "gaussian": lambda gv: 0.5 * analytics.numeric_fwhm(
                _gaussian_line(gv, 1.0, 1.0, 2))}
        meta_a = [1.0]
    elif fig == 5:
        if a_values is not None:
            raise ParameterError("figure 5 compares a_ratio 1 and 0 only")
        grid = np.concatenate([[0.0], np.geomspace(0.05, 100.0, 19)])
        mu = math.sqrt(2.0)
        points = {
            "lorentzian": lambda gv: analytics.stark_shift_sw(
                NormalizedParams.build(x=1e-3, a_ratio=1.0, gamma_v_tilde=gv,
                                       mu=mu))
            / analytics.stark_shift_tw(NormalizedParams.build(
                x=1e-3, a_ratio=0.0, gamma_v_tilde=gv, mu=mu)),
            "gaussian": lambda gv: _gaussian_peak_location(gv, 1.0)
            / _gaussian_peak_location(gv, 0.0)}
        meta_a = [1.0, 0.0]
    else:
        raise ParameterError(f"figure must be 2, 3, 4, or 5, got {fig}")
    metadata = {"command": "figure", "version": __version__, "fig": fig,
                "a_values": meta_a, "axis": "gamma_v_tilde"}
    columns = {name: _column(name, "gamma_v_tilde", grid, point)
               for name, point in points.items()}
    return SpectrumScan(axis="gamma_v_tilde", grid=grid, columns=columns,
                        metadata=metadata)


def write_csv(scan: SpectrumScan, target) -> None:
    """Write a scan as CSV: '#'-prefixed JSON metadata, then the table."""
    if isinstance(target, (str, bytes)):
        handle = open(target, "w", encoding="ascii", newline="\n")
        close = True
    else:
        handle = target
        close = False
    try:
        handle.write("# " + json.dumps(scan.metadata, sort_keys=True) + "\n")
        names = list(scan.columns)
        handle.write(",".join([scan.axis] + names) + "\n")
        table = np.column_stack([scan.grid] + [scan.columns[name]
                                               for name in names])
        row = ",".join(["%.17g"] * (1 + len(names))) + "\n"
        handle.writelines(row % tuple(values)
                          for values in table.astype(float).tolist())
    finally:
        if close:
            handle.close()


def _write(scan: SpectrumScan, path: str | None) -> None:
    """write_csv to path, or to stdout when path is None."""
    if path is None:
        write_csv(scan, sys.stdout)
        return
    try:
        write_csv(scan, path)
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc.strerror or exc}")


def _parse_a_values(raw: str):
    try:
        values = [float(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError:
        raise ParameterError(f"--a-values must be comma-separated numbers, "
                             f"got {raw!r}")
    if not values or not all(0.0 <= v < math.inf for v in values):
        raise ParameterError("--a-values must list one or more finite "
                             "ratios >= 0")
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpa",
        description="Two-photon spectra of Doppler-broadened ladder atoms "
                    "in counterpropagating beams.")
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="sweep a parameter and tabulate an "
                                       "observable")
    scan.add_argument("--config", required=True, help="JSON config path")
    scan.add_argument("--out", default=None, help="output CSV path "
                      "(default: config 'out' or stdout)")

    figure = sub.add_parser("figure", help="write one of the canned figure "
                                           "datasets")
    figure.add_argument("--fig", type=int, required=True, choices=(2, 3, 4, 5))
    figure.add_argument("--out", default=None,
                        help="output CSV path (default: fig<N>.csv)")
    figure.add_argument("--a-values", default=None,
                        help="override beam ratios, comma separated "
                             "(figures 2 and 3)")

    validate = sub.add_parser("validate", help="run the self-check suites")
    validate.add_argument("--level", choices=("fast", "full"), default="fast")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "scan":
            try:
                with open(args.config, "r", encoding="utf-8") as handle:
                    doc = json.load(handle)
            except OSError as exc:
                raise ParameterError(f"cannot read config: {exc}")
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ParameterError(f"config is not valid UTF-8 JSON: {exc}")
            config = parse_scan_config(doc)
            scan = run_scan(config)
            _write(scan, args.out if args.out is not None else config.out)
            return 0
        if args.command == "figure":
            a_values = (None if args.a_values is None
                        else _parse_a_values(args.a_values))
            scan = run_figure(args.fig, a_values)
            _write(scan, args.out if args.out is not None
                   else f"fig{args.fig}.csv")
            return 0
        from .validation import run_validation
        report = run_validation(level=args.level)
        print(report.format_table())
        return 0 if report.passed else 1
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OracleError, QuadratureError, LocatorError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
