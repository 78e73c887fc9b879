"""Command line front end: parameter scans, figure data, self checks.

Three subcommands:

  tpa scan --config cfg.json [--out file.csv]
      Sweep one normalized parameter and tabulate an observable.
  tpa figure --fig N [--out file.csv]
      Reproduce one of the canned figure datasets (2, 3, 4, 5).
  tpa validate [--level fast|full]
      Run the cross-check suites and print a report.

Exit codes: 0 success, 1 failed validation, 2 usage or configuration error
(a config number or a column value beyond double precision, or an
unwritable output path, included), 3 numerical failure (solver, quadrature,
or locator did not converge).

Scan configs are JSON with normalized (gamma = 1) parameters:

    {
      "observable": "n2" | "n2+n3" | "width" | "stark" | "n2max" | "oracle_avg",
      "sweep": {"axis": "delta_tilde", "start": -6, "stop": 6, "count": 121},
      "fixed": {"x": 1e-3, "a_ratio": 1.0, "gamma_v_tilde": 2.0},
      "dist": {"kind": "lorentzian"},
      "quadrature": {"nodes": 32, "domain_halfwidth": 10.0, "tol": 1e-6},
      "oracle": {"n_cap": 41, "refine_tol": 1e-14},
      "out": "scan.csv"
    }

Unknown keys are rejected everywhere. Every sweep point is a
NormalizedParams, so its rules hold at each point of every observable.
Every observable follows dist.kind, except that "width", the closed
Lorentzian/homogeneous width, refuses gaussian. "quadrature" and "oracle"
only apply to the oracle_avg observable; keys left out of either block keep
the defaults shown above. A lorentzian oracle_avg reads the quadrature
block (tan-mapped Gauss-Legendre, windowed by domain_halfwidth); a gaussian
one averages the steady state's pole expansion in closed form, and reads
the block (the trapezoid rule) only where that form misses its direct
solves, at weak drive. `nodes` is at most 1024. The n_used column is the
deepest truncation used: of the per-class ladders, or of the ladder a
gaussian closed average runs on itself. CSV output starts
with a '#'-prefixed JSON metadata line and keeps 17 significant digits.

Importing this module loads neither numpy nor scipy, and neither do figures
2 and 3 and a closed-form scan of a lorentzian or homogeneous profile: they
run in plain float arithmetic, on grids and columns held as lists of floats.
numpy loads at the first Gaussian average or steady-state solve, and each
scipy subpackage at its first call.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field, replace

from . import analytics, averaging
from ._version import __version__
from .analytics import LocatorError
from .averaging import DEFAULT_ORACLE_QUAD, QuadratureError
from .core import (_KINDS, NormalizedParams, ParameterError, _geomspace,
                   _linspace, _require_finite, _require_int)
from .oracle import LadderSpec, OracleError

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
# The option blocks of oracle_avg as the library's settings objects: a
# block is its default with the keys it gives replaced, checked by the
# object's own constructor.
_OPTION_BLOCKS = {"quadrature": DEFAULT_ORACLE_QUAD, "oracle": LadderSpec()}


@dataclass(frozen=True)
class ScanConfig:
    observable: str
    axis: str
    grid: list
    fixed: dict
    kind: str
    options: dict
    out: str | None = None
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SpectrumScan:
    """Tabulated sweep: the axis grid plus one or more value columns."""

    axis: str
    grid: list
    columns: dict
    metadata: dict


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
    start = _require_finite("sweep.start", sweep["start"])
    stop = _require_finite("sweep.stop", sweep["stop"])
    if not math.isfinite(stop - start):
        raise ParameterError("sweep.stop - sweep.start overflows a double")
    count = _require_int("sweep.count", sweep["count"], 2, _MAX_SWEEP_COUNT)
    grid = _linspace(start, stop, count)

    fixed_doc = doc.get("fixed", {})
    allowed, required, _ = _OBSERVABLES[obs]
    _check_keys(fixed_doc, allowed, required, "fixed")
    fixed = {k: _require_finite(f"fixed.{k}", v) for k, v in fixed_doc.items()}
    if axis in fixed:
        raise ParameterError(f"sweep axis {axis!r} also appears in fixed")
    if axis not in allowed:
        raise ParameterError(
            f"axis {axis!r} does not apply to observable {obs!r}")

    gv_values = grid if axis == "gamma_v_tilde" else \
        [fixed.get("gamma_v_tilde", 0.0)]
    dist_doc = doc.get("dist")
    if dist_doc is None:
        kind = ("homogeneous" if all(g == 0.0 for g in gv_values)
                else "lorentzian")
    else:
        _check_keys(dist_doc, ("kind",), ("kind",), "dist")
        kind = str(dist_doc["kind"]).lower()
        if kind not in _KINDS:
            raise ParameterError(f"unknown dist kind {kind!r}")
    if obs == "width" and kind == "gaussian":
        raise ParameterError(
            "observable 'width' is the closed form of lorentzian and "
            "homogeneous profiles; gaussian ones have no closed width")
    if obs == "oracle_avg" and kind != "homogeneous" and any(
            g == 0.0 for g in gv_values):
        raise ParameterError(
            f"{kind} profiles need gamma_v_tilde > 0 at every sweep point")

    options = {}
    for name, default in _OPTION_BLOCKS.items():
        block = doc.get(name, {})
        if name in doc and obs != "oracle_avg":
            raise ParameterError(f"'{name}' only applies to oracle_avg")
        _check_keys(block, asdict(default), (), name)
        try:
            options[name] = replace(default, **block)
        except ParameterError as exc:
            raise ParameterError(f"{name}.{exc}") from None

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
        **{name: asdict(options[name]) for name in _OPTION_BLOCKS
           if name in doc},
    }
    cfg = ScanConfig(observable=obs, axis=axis, grid=grid, fixed=fixed,
                     kind=kind, options=options, out=out, metadata=metadata)
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


def _column(name: str, axis: str, grid, point) -> list:
    """point(g) at every sweep value g, refusing what a double cannot hold.

    A closed form at extreme parameters, or the series reference of a
    Lorentzian oracle_avg, overflows a float power (OverflowError) or comes
    out nan or inf. Either is a ParameterError that names the column and
    the first such sweep value, so no such value reaches a CSV and no point
    is evaluated twice.
    """
    values = []
    for g in grid:
        try:
            value = point(g)
        except OverflowError:
            value = math.nan
        if not math.isfinite(value):
            raise ParameterError(
                f"column {name!r} has no finite value at {axis} = "
                f"{g!r}: x, mu, a_ratio or gamma_v_tilde is too "
                f"large for double precision")
        values.append(value)
    return values


def _closed_column(cfg: ScanConfig) -> list:
    value = _OBSERVABLES[cfg.observable][2]
    if cfg.axis == "delta_tilde":
        # the profiles take the detuning as an argument, so one parameter
        # set serves every point of the line
        p = _params_at(cfg, 0.0)

        def point(d):
            return value(p, d)
    else:
        def point(g):
            p = _params_at(cfg, g)
            return value(p, p.delta_tilde)
    return _column(cfg.observable, cfg.axis, cfg.grid, point)


def run_scan(config: ScanConfig, workers: int = 1) -> SpectrumScan:
    """Evaluate the configured observable over the sweep grid, serially.

    workers must be 1: bench/ passes it, and ROADMAP item 7 removes it.
    """
    if workers != 1:
        raise ParameterError(f"run_scan is serial: workers must be 1, "
                             f"got {workers!r}")
    if config.observable == "oracle_avg":
        n_used = []

        def point(value):
            got, info = averaging.oracle_average(
                _params_at(config, value), config.options["quadrature"],
                config.options["oracle"], return_info=True)
            n_used.append(float(info["n_used"]))
            return got
        columns = {"oracle_avg": _column("oracle_avg", config.axis,
                                         config.grid, point),
                   "n_used": n_used}
    else:
        columns = {config.observable: _closed_column(config)}
    return SpectrumScan(axis=config.axis, grid=config.grid, columns=columns,
                        metadata=config.metadata)


def run_figure(fig: int) -> SpectrumScan:
    """Build the dataset behind one of the canned figures.

    2: peak signal versus Doppler width for several beam ratios, all
       normalized to the homogeneous equal-wave value;
    3: closed-form half width Gamma/2 versus Doppler width;
    4: Gamma/2 for an equal standing wave, Lorentzian closed form against a
       Gaussian profile measured on the averaged order-2 line, n2;
    5: ratio of standing-wave to running-wave peak displacement,
       stark_shift on Lorentzian and on Gaussian profiles.

    Each figure's beam ratios are fixed and listed in the metadata as
    a_values. Figures 4 and 5 read each column at x = 1e-3 on parameter
    sets of its kind, homogeneous at gamma_v_tilde = 0.
    """
    def line(kind: str, gv: float, a: float, mu: float) -> NormalizedParams:
        return NormalizedParams.build(x=1e-3, a_ratio=a, gamma_v_tilde=gv,
                                      mu=mu, kind=kind if gv > 0 else None)

    if fig == 2:
        a_values = [0.0, 0.25, 0.5, 0.75, 1.0]
        grid = _linspace(0.0, 20.0, 81)
        ref = analytics.n2_max(NormalizedParams.build(x=1.0, a_ratio=1.0))
        points = {f"a={a:g}": lambda gv, a=a: analytics.n2_max(
                      NormalizedParams.build(x=1.0, a_ratio=a,
                                             gamma_v_tilde=gv)) / ref
                  for a in a_values}
    elif fig == 3:
        a_values = [0.5, 1.0]
        grid = [0.0] + _geomspace(0.01, 100.0, 48)
        points = {f"a={a:g}": lambda gv, a=a: 0.5 * analytics.width_fwhm(a, gv)
                  for a in a_values}
    elif fig == 4:
        grid = [0.0] + _geomspace(0.05, 100.0, 23)
        def gaussian_half_width(gv):
            p = line("gaussian", gv, 1.0, 1.0)
            return 0.5 * analytics.numeric_fwhm(lambda d: analytics.n2(p, d))
        points = {
            "lorentzian": lambda gv: 0.5 * analytics.width_fwhm(1.0, gv),
            "gaussian": gaussian_half_width}
        a_values = [1.0]
    elif fig == 5:
        grid = [0.0] + _geomspace(0.05, 100.0, 19)
        def shift_ratio(gv, kind):
            mu = math.sqrt(2.0)
            return (analytics.stark_shift(line(kind, gv, 1.0, mu))
                    / analytics.stark_shift(line(kind, gv, 0.0, mu)))
        points = {kind: lambda gv, kind=kind: shift_ratio(gv, kind)
                  for kind in ("lorentzian", "gaussian")}
        a_values = [1.0, 0.0]
    else:
        raise ParameterError(f"figure must be 2, 3, 4, or 5, got {fig}")
    metadata = {"command": "figure", "version": __version__, "fig": fig,
                "a_values": a_values, "axis": "gamma_v_tilde"}
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
        row = ",".join(["%.17g"] * (1 + len(names))) + "\n"
        handle.writelines(row % values for values in zip(
            scan.grid, *[scan.columns[name] for name in names]))
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
            except ValueError as exc:
                # not UTF-8, not JSON, or an integer over the digit limit
                raise ParameterError(f"config is not valid UTF-8 JSON: {exc}")
            config = parse_scan_config(doc)
            scan = run_scan(config)
            _write(scan, args.out if args.out is not None else config.out)
            return 0
        if args.command == "figure":
            scan = run_figure(args.fig)
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
