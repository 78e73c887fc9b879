import io
import json
import math
import os

import numpy as np
import pytest

import tpa
from tpa import analytics, averaging, cli, oracle
from tpa.core import NormalizedParams, ParameterError

from conftest import fresh_python


def _n2_doc(**over):
    doc = {
        "observable": "n2",
        "sweep": {"axis": "delta_tilde", "start": -3.0, "stop": 3.0,
                  "count": 25},
        "fixed": {"x": 1e-3, "mu": 1.2, "gamma_v_tilde": 1.5,
                  "a_ratio": 0.7},
    }
    doc.update(over)
    return doc


def _oracle_doc(**over):
    doc = {
        "observable": "oracle_avg",
        "sweep": {"axis": "delta_tilde", "start": 0.0, "stop": 1.0,
                  "count": 3},
        "fixed": {"delta_big_tilde": 100.0},
    }
    doc.update(over)
    return doc


def _width_doc(**over):
    doc = {
        "observable": "width",
        "sweep": {"axis": "gamma_v_tilde", "start": 0.0, "stop": 2.0,
                  "count": 3},
    }
    doc.update(over)
    return doc


def _render(scan) -> str:
    buf = io.StringIO()
    cli.write_csv(scan, buf)
    return buf.getvalue()


def test_scan_matches_closed_profile():
    cfg = cli.parse_scan_config(_n2_doc())
    scan = cli.run_scan(cfg)
    prof = NormalizedParams.build(x=1e-3, a_ratio=0.7, gamma_v_tilde=1.5,
                                  mu=1.2)
    want = analytics.n2(prof, scan.grid)
    assert np.allclose(scan.columns["n2"], want, rtol=1e-14, atol=0.0)


def test_width_scan_single_beam():
    doc = {
        "observable": "width",
        "sweep": {"axis": "gamma_v_tilde", "start": 0.0, "stop": 4.0,
                  "count": 5},
        "fixed": {"a_ratio": 0.0},
    }
    scan = cli.run_scan(cli.parse_scan_config(doc))
    assert np.allclose(scan.columns["width"], 2.0 * (1.0 + scan.grid),
                       rtol=1e-12, atol=0.0)


def test_equal_wave_enhancement_factor():
    vals = {}
    for a in (0.0, 1.0):
        doc = _n2_doc(fixed={"x": 1e-3, "a_ratio": a},
                      sweep={"axis": "delta_tilde", "start": -0.5,
                             "stop": 0.5, "count": 3})
        scan = cli.run_scan(cli.parse_scan_config(doc))
        assert scan.grid[1] == 0.0
        vals[a] = scan.columns["n2"][1]
    assert vals[1.0] / vals[0.0] == pytest.approx(6.0, rel=1e-12)


def test_csv_output_is_deterministic(tmp_path):
    cfg = cli.parse_scan_config(_n2_doc())
    scan = cli.run_scan(cfg)
    assert _render(scan) == _render(cli.run_scan(cfg))
    p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
    cli.write_csv(scan, str(p1))
    cli.write_csv(scan, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_rows_format_each_value_to_17_digits():
    # every value, of any column dtype, is written as format(v, ".17g")
    grid = np.array([-0.0, 5e-324, 1.0 / 3.0])
    columns = {"a": np.array([1e300, -2.5, math.inf]),
               "n": np.array([1, 2, 3])}
    scan = cli.SpectrumScan(axis="delta_tilde", grid=grid, columns=columns,
                            metadata={})
    rows = _render(scan).splitlines()
    assert rows[1] == "delta_tilde,a,n"
    assert rows[2:] == [",".join(format(float(v), ".17g") for v in row)
                        for row in zip(grid, columns["a"], columns["n"])]


def test_rows_reproducible_from_metadata():
    text = _render(cli.run_scan(cli.parse_scan_config(_n2_doc())))
    header = text.splitlines()[0]
    assert header.startswith("# ")
    meta = json.loads(header[2:])
    assert meta["version"] == tpa.__version__
    doc = {key: meta[key] for key in ("observable", "sweep", "fixed", "dist")}
    again = _render(cli.run_scan(cli.parse_scan_config(doc)))
    assert again == text


def test_config_validation_errors():
    bad_docs = [
        _n2_doc(observable="n4"),
        _n2_doc(observable=["n2"]),
        _n2_doc(observable={"n2": 1}),
        {**_n2_doc(), "extra": 1},
        _n2_doc(fixed={"x": 1e-3, "phi": 2.0}),
        _n2_doc(fixed={"mu": 1.0}),
        _n2_doc(sweep={"axis": "delta_tilde", "start": 0.0, "stop": 1.0,
                       "count": 1}),
        _n2_doc(sweep={"axis": "delta_tilde", "start": 0.0, "stop": 1.0,
                       "count": 2.5}),
        _n2_doc(sweep={"axis": "delta_tilde", "start": 0.0, "stop": 1.0}),
        _n2_doc(sweep={"axis": "a_ratio", "start": 0.0, "stop": 1.0,
                       "count": 5}),
        {"observable": "width",
         "sweep": {"axis": "delta_tilde", "start": 0.0, "stop": 1.0,
                   "count": 5}},
        _n2_doc(dist={"kind": "gaussian"}),
        _n2_doc(dist={"kind": "homogeneous"}),
        _n2_doc(dist={"kind": "voigt"}),
        _n2_doc(fixed={"x": 1e-3, "gamma_v_tilde": -1.0}),
        _n2_doc(quadrature={"nodes": 32}),
        _n2_doc(oracle={"n_cap": 9}),
        _oracle_doc(sweep={"axis": "gamma_v_tilde", "start": 0.0,
                           "stop": 2.0, "count": 3},
                    dist={"kind": "lorentzian"}),
        _oracle_doc(oracle={"n_cap": 2}),
        _oracle_doc(oracle={"order": 5}),
        _oracle_doc(quadrature={"nodes": 32.5}),
        _oracle_doc(out=12),
        _n2_doc(fixed={"x": math.nan}),
        _n2_doc(fixed={"x": True}),
        _n2_doc(fixed={"x": 1e-3, "mu": math.inf}),
        _n2_doc(sweep={"axis": "delta_tilde", "start": 0.0, "stop": 1.0,
                       "count": 10 ** 10}),
        _n2_doc(sweep={"axis": "delta_tilde", "start": -math.inf,
                       "stop": 1.0, "count": 5}),
        _n2_doc(sweep={"axis": "delta_tilde", "start": -1e308,
                       "stop": 1e308, "count": 3}),
        _oracle_doc(oracle={"refine_tol": math.nan}),
        _oracle_doc(quadrature={"domain_halfwidth": math.nan}),
        _oracle_doc(fixed={"delta_big_tilde": 100.0, "mu": 0.0}),
        _n2_doc(fixed={"x": 1e-3, "mu": -1.0}),
        _oracle_doc(quadrature={"method": "gauss_hermite"}),
        # the width builds its parameter sets like every observable
        _width_doc(fixed={"a_ratio": -1.0}),
        _width_doc(sweep={"axis": "a_ratio", "start": -2.0, "stop": 1.0,
                          "count": 4}),
    ]
    for doc in bad_docs:
        with pytest.raises(ParameterError):
            cli.parse_scan_config(doc)


# Each closed observable as analytics gives it, at one parameter set.
_CLOSED_VALUES = {
    "n2": lambda p: analytics.n2(p, p.delta_tilde),
    "n2+n3": lambda p: (analytics.n2(p, p.delta_tilde)
                        + analytics.n3(p, p.delta_tilde)),
    "width": lambda p: analytics.width_fwhm(p.a_ratio, p.gamma_v_tilde),
    "stark": analytics.stark_shift,
    "n2max": analytics.n2_max,
}


@pytest.mark.parametrize("obs", [name for name, row in cli._OBSERVABLES.items()
                                 if row[2] is not None])
def test_closed_scan_matches_analytics_bit_for_bit(obs):
    # a sweep off the detuning axis builds one parameter set per point;
    # each value must be the direct analytics call on that set
    allowed = cli._OBSERVABLES[obs][0]
    fixed = {k: v for k, v in {"x": 1e-3, "mu": 1.3, "gamma_v_tilde": 1.5,
                               "delta_tilde": 0.4}.items() if k in allowed}
    scan = cli.run_scan(cli.parse_scan_config({
        "observable": obs, "fixed": fixed,
        "sweep": {"axis": "a_ratio", "start": 0.0, "stop": 1.0,
                  "count": 3}}))
    want = [_CLOSED_VALUES[obs](NormalizedParams.build(
                **{"x": 1.0, **fixed, "a_ratio": float(a)}))
            for a in scan.grid]
    assert list(scan.columns[obs]) == want
    assert len(set(want)) == 3


def test_partial_quadrature_block_keeps_the_defaults():
    # a block that restates one default leaves the others at the
    # oracle_avg defaults, so it changes neither the metadata's tol nor
    # any value
    doc = _oracle_doc(
        sweep={"axis": "delta_tilde", "start": 0.25, "stop": 0.5, "count": 2},
        fixed={"gamma_v_tilde": 2.0, "delta_big_tilde": 1e3,
               "phi_tilde": 1.0, "a_ratio": 1.0, "mu": 1.2},
        dist={"kind": "gaussian"})
    plain = _render(cli.run_scan(cli.parse_scan_config(doc)))
    block = _render(cli.run_scan(cli.parse_scan_config(
        dict(doc, quadrature={"nodes": 32}))))
    assert json.loads(block.splitlines()[0][2:])["quadrature"] == {
        "nodes": 32, "domain_halfwidth": 10.0, "tol": 1e-6}
    assert block.splitlines()[1:] == plain.splitlines()[1:]


def test_infinite_quadrature_window_rejected(tmp_path, capsys):
    # the Lorentzian window is finite; an infinite one would be written into
    # the metadata although no run could use it
    for halfwidth in (math.inf, "inf"):
        with pytest.raises(ParameterError,
                           match="quadrature.domain_halfwidth must be finite"):
            cli.parse_scan_config(
                _oracle_doc(quadrature={"domain_halfwidth": halfwidth}))
    with pytest.raises(ParameterError, match="domain_halfwidth"):
        averaging.QuadratureSpec(domain_halfwidth=math.inf)
    cfg_path = tmp_path / "inf.json"
    cfg_path.write_text(json.dumps(
        _oracle_doc(quadrature={"domain_halfwidth": math.inf})))
    assert cli.main(["scan", "--config", str(cfg_path)]) == 2
    assert "domain_halfwidth must be finite" in capsys.readouterr().err


def test_gaussian_quadrature_block_runs(tmp_path, capsys):
    # the rule follows dist.kind, so a block that sets only tol applies as is
    cfg_path = tmp_path / "gauss.json"
    cfg_path.write_text(json.dumps(_oracle_doc(
        sweep={"axis": "delta_tilde", "start": 0.0, "stop": 0.5, "count": 2},
        fixed={"delta_big_tilde": 1e3, "gamma_v_tilde": 0.5},
        dist={"kind": "gaussian"}, quadrature={"tol": 1e-5})))
    assert cli.main(["scan", "--config", str(cfg_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[0][2:])["quadrature"] == {
        "nodes": 32, "domain_halfwidth": 10.0, "tol": 1e-5}
    assert len(lines) == 4


def test_sweep_axis_cannot_repeat_in_fixed():
    doc = _n2_doc(fixed={"x": 1e-3, "delta_tilde": 0.0})
    with pytest.raises(ParameterError):
        cli.parse_scan_config(doc)


def test_main_scan_writes_file(tmp_path):
    cfg_path = tmp_path / "scan.json"
    out_path = tmp_path / "scan.csv"
    cfg_path.write_text(json.dumps(_n2_doc()))
    code = cli.main(["scan", "--config", str(cfg_path),
                     "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("# {")
    assert lines[1] == "delta_tilde,n2"
    assert len(lines) == 2 + 25


def test_main_scan_stdout(capsys):
    import tempfile, os
    with tempfile.NamedTemporaryFile("w", suffix=".json",
                                     delete=False) as handle:
        json.dump(_n2_doc(), handle)
        path = handle.name
    try:
        assert cli.main(["scan", "--config", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# ")
    finally:
        os.unlink(path)


def test_main_usage_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["scan", "--config", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    assert cli.main(["scan", "--config", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    assert cli.main([]) == 2
    capsys.readouterr()
    assert cli.main(["figure", "--fig", "4", "--a-values", "1"]) == 2
    capsys.readouterr()
    assert cli.main(["figure", "--fig", "2", "--a-values", "1,-2"]) == 2
    capsys.readouterr()
    assert cli.main(["figure", "--fig", "3", "--a-values", "0.5,nan"]) == 2
    capsys.readouterr()
    no_dipole = tmp_path / "mu.json"
    no_dipole.write_text(json.dumps(_oracle_doc(
        fixed={"delta_big_tilde": 100.0, "mu": 0.0})))
    assert cli.main(["scan", "--config", str(no_dipole)]) == 2
    assert "mu must be > 0" in capsys.readouterr().err


def test_main_rejects_nan_parameter(tmp_path, capsys):
    cfg_path = tmp_path / "nan.json"
    out_path = tmp_path / "nan.csv"
    cfg_path.write_text(json.dumps(_n2_doc(fixed={"x": math.nan})))
    assert cli.main(["scan", "--config", str(cfg_path),
                     "--out", str(out_path)]) == 2
    assert "fixed.x must be finite" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("doc", [
    # refine's stop test compares two rungs, n_max = 3 and 5
    pytest.param(_oracle_doc(oracle={"n_cap": 3}), id="n_cap3"),
    pytest.param(_oracle_doc(oracle={"n_cap": 4}), id="n_cap4"),
    # two levels must fit under the 2,048-node cap
    pytest.param(_oracle_doc(quadrature={"nodes": 1025}), id="nodes1025"),
    pytest.param(_oracle_doc(dist={"kind": "gaussian"},
                             quadrature={"nodes": 2048},
                             fixed={"delta_big_tilde": 100.0,
                                    "gamma_v_tilde": 1.0}),
                 id="gaussian_nodes2048"),
    pytest.param(_oracle_doc(oracle={"order": 2.0}), id="order_float"),
    pytest.param(_oracle_doc(oracle={"order": True}), id="order_bool"),
    # phi_tilde**2 overflows a float
    pytest.param(_oracle_doc(fixed={"delta_big_tilde": 100.0,
                                    "phi_tilde": 1e160}), id="phi_overflow"),
    # the width's parameter sets obey the same rules as every observable's
    pytest.param(_width_doc(fixed={"a_ratio": -1.0}), id="width_a_ratio"),
    pytest.param(_n2_doc(observable=["n2"]), id="observable_list"),
])
def test_main_boundary_inputs_exit_2(tmp_path, capsys, doc):
    cfg_path = tmp_path / "bad.json"
    out_path = tmp_path / "bad.csv"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["scan", "--config", str(cfg_path),
                     "--out", str(out_path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out_path.exists()


def test_main_rejects_config_not_utf8(tmp_path, capsys):
    cfg_path = tmp_path / "utf16.json"
    out_path = tmp_path / "utf16.csv"
    cfg_path.write_bytes(b"\xff\xfe" + json.dumps(_n2_doc()).encode(
        "utf-16-le"))
    assert cli.main(["scan", "--config", str(cfg_path),
                     "--out", str(out_path)]) == 2
    assert ("error: config is not valid UTF-8 JSON:"
            in capsys.readouterr().err)
    assert not out_path.exists()


# A module of each scipy subpackage that only a call into it loads.
_SCIPY_AT_USE = ("scipy.linalg._basic", "scipy.special._ufuncs",
                 "scipy.optimize._optimize")


def _scipy_loaded_after(*argvs):
    """The modules of _SCIPY_AT_USE in sys.modules after cli.main has run
    each argv, in order, in a fresh interpreter."""
    script = ("import json, sys\n"
              "from tpa import cli\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    assert cli.main(argv) == 0, argv\n"
              f"print(json.dumps([m for m in {_SCIPY_AT_USE!r}\n"
              "                  if m in sys.modules]))\n")
    done = fresh_python("-c", script, json.dumps(argvs))
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_closed_scans_load_no_scipy(tmp_path):
    cfg_path = tmp_path / "scan.json"
    cfg_path.write_text(json.dumps(_n2_doc(observable="n2+n3")))
    loaded = _scipy_loaded_after(
        ["scan", "--config", str(cfg_path), "--out", str(tmp_path / "s.csv")],
        ["figure", "--fig", "2", "--out", str(tmp_path / "f2.csv")],
        ["figure", "--fig", "3", "--out", str(tmp_path / "f3.csv")])
    assert loaded == set()


def test_oracle_scan_loads_only_the_linear_algebra(tmp_path):
    cfg_path = tmp_path / "scan.json"
    cfg_path.write_text(json.dumps(_oracle_doc(
        sweep={"axis": "delta_tilde", "start": 0.0, "stop": 1.0,
               "count": 2})))
    loaded = _scipy_loaded_after(
        ["scan", "--config", str(cfg_path), "--out", str(tmp_path / "s.csv")])
    assert "scipy.linalg._basic" in loaded
    assert "scipy.optimize._optimize" not in loaded


def test_main_numerical_failure_exit(tmp_path, capsys):
    # a strong drive that n_max <= 7 cannot settle
    doc = _oracle_doc(fixed={"delta_big_tilde": 100.0, "phi_tilde": 30.0,
                             "a_ratio": 1.0},
                      oracle={"n_cap": 7})
    cfg_path = tmp_path / "oracle.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["scan", "--config", str(cfg_path)]) == 3
    assert "numerical failure:" in capsys.readouterr().err


def test_main_truncation_failure_names_its_knobs(tmp_path, capsys):
    # a strong drive outruns a small truncation cap: exit 3, and the
    # message names the config keys that fix it
    doc = _oracle_doc(fixed={"delta_big_tilde": 100.0, "phi_tilde": 30.0,
                             "a_ratio": 1.0},
                      oracle={"n_cap": 7})
    cfg_path = tmp_path / "strong.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["scan", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: dc population not settled" in err
    assert "edge harmonic" in err
    assert "oracle.n_cap (now 7)" in err and "oracle.refine_tol" in err


def _run_module(*args):
    # `python -m tpa` in a fresh interpreter, so the exit code is the one
    # that __main__'s sys.exit(main()) hands to the shell
    return fresh_python("-m", "tpa", *args)


def test_module_entry_point_exit_codes(tmp_path):
    out = tmp_path / "fig3.csv"
    assert _run_module("figure", "--fig", "3",
                       "--out", str(out)).returncode == 0
    assert cli.main(["figure", "--fig", "3",
                     "--out", str(tmp_path / "main.csv")]) == 0
    assert out.read_bytes() == (tmp_path / "main.csv").read_bytes()
    nan_cfg = tmp_path / "nan.json"
    nan_cfg.write_text(json.dumps(_n2_doc(fixed={"x": math.nan})))
    bad = _run_module("scan", "--config", str(nan_cfg))
    assert bad.returncode == 2 and "must be finite" in bad.stderr
    # the strong drive that n_max <= 7 cannot settle
    strong_cfg = tmp_path / "strong.json"
    strong_cfg.write_text(json.dumps(_oracle_doc(
        fixed={"delta_big_tilde": 100.0, "phi_tilde": 30.0, "a_ratio": 1.0},
        oracle={"n_cap": 7})))
    failed = _run_module("scan", "--config", str(strong_cfg))
    assert failed.returncode == 3
    assert "numerical failure:" in failed.stderr


@pytest.mark.parametrize("doc", [
    _oracle_doc(),
    _n2_doc(observable="n2+n3", dist={"kind": "lorentzian"}),
], ids=["oracle_avg", "n2+n3"])
def test_main_scan_bytes_are_deterministic(tmp_path, doc):
    cfg_path = tmp_path / "scan.json"
    cfg_path.write_text(json.dumps(doc))
    outs = [tmp_path / "one.csv", tmp_path / "two.csv"]
    for out in outs:
        assert cli.main(["scan", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_oracle_scan_threads_write_the_same_bytes(monkeypatch):
    # each average keeps its ladder start from node to node inside its own
    # call, so a scan point walks the same ladders and writes the same
    # value whether it follows another point or is scanned on its own. Two
    # beams need deep ladders and one beam settles every node at n_max = 5,
    # so the single-beam point goes second, where a start left over from
    # the two-beam point would show
    def scan(start, stop):
        return cli.run_scan(cli.parse_scan_config(_oracle_doc(
            sweep={"axis": "a_ratio", "start": start, "stop": stop,
                   "count": 2},
            fixed={"delta_big_tilde": 100.0, "phi_tilde": 3.0,
                   "delta_tilde": 0.5, "gamma_v_tilde": 2.0, "mu": 1.2},
            dist={"kind": "lorentzian"},
            quadrature={"nodes": 8, "tol": 1e-3})))
    refine = oracle.refine
    ladders = {1.0: [], 0.0: []}

    def recorded(params, omega, tol, n_cap, start=3):
        rho, n_used = refine(params, omega, tol, n_cap, start=start)
        ladders[params.a_ratio].append((omega, start, n_used))
        return rho, n_used
    monkeypatch.setattr(oracle, "refine", recorded)
    both = scan(1.0, 0.0)
    walked = {a: list(calls) for a, calls in ladders.items()}
    assert {n_used for _, _, n_used in walked[0.0]} == {5}
    assert max(n_used for _, _, n_used in walked[1.0]) > 5
    for row, a in enumerate((1.0, 0.0)):
        ladders[a] = []
        alone = scan(a, a)
        assert ladders[a] == 2 * walked[a]
        for name in ("oracle_avg", "n_used"):
            assert list(alone.columns[name]) == [both.columns[name][row]] * 2


def test_main_validate(capsys):
    assert cli.main(["validate", "--level", "fast"]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_main_figure_default_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["figure", "--fig", "2"]) == 0
    lines = (tmp_path / "fig2.csv").read_text().splitlines()
    assert lines[1] == "gamma_v_tilde,a=0,a=0.25,a=0.5,a=0.75,a=1"
    data = np.loadtxt(lines[2:], delimiter=",")
    assert data.shape == (81, 6)
    assert data[0, 5] == pytest.approx(1.0, rel=1e-12)
    assert data[20, 0] == 5.0
    assert data[20, 1] == pytest.approx(1.0 / 36.0, rel=1e-12)


def test_figure_ratio_overrides():
    scan = cli.run_figure(3, [0.25])
    assert list(scan.columns) == ["a=0.25"]
    with pytest.raises(ParameterError):
        cli.run_figure(4, [1.0])
    with pytest.raises(ParameterError):
        cli.run_figure(5, [1.0])
    with pytest.raises(ParameterError):
        cli.run_figure(7)


def test_scan_has_no_worker_setting(tmp_path, monkeypatch, capsys):
    # scans run serially: no option, variable or keyword value selects
    # threads; run_scan keeps workers=1 only for the benchmark's calls
    cfg_path = tmp_path / "scan.json"
    cfg_path.write_text(json.dumps(_n2_doc()))
    assert cli.main(["scan", "--config", str(cfg_path),
                     "--workers", "2"]) == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    cfg = cli.parse_scan_config(_n2_doc())
    with pytest.raises(ParameterError, match="workers must be 1"):
        cli.run_scan(cfg, workers=2)
    assert _render(cli.run_scan(cfg, workers=1)) == _render(cli.run_scan(cfg))
    monkeypatch.setenv("TPA_WORKERS", "x")
    assert cli.main(["scan", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out.startswith("# ")


@pytest.mark.parametrize("command, column", [
    ({"x": 1e60, "mu": 1e100},
     "'n2+n3' has no finite value at delta_tilde = -3.0"),
    ({"x": 1e120, "mu": 2.0},
     "'n2+n3' has no finite value at delta_tilde = -3.0"),
    ({"x": 1e-3, "gamma_v_tilde": 1e300},
     "'n2+n3' has no finite value at delta_tilde = -3.0"),
    (["figure", "--fig", "2", "--a-values", "1e200"],
     "'a=1e+200' has no finite value at gamma_v_tilde = 0.0"),
    (["figure", "--fig", "3", "--a-values", "1e100"],
     "'a=1e+100' has no finite value at gamma_v_tilde = 0.0"),
], ids=["scan_nan", "scan_overflow", "scan_wide", "fig2_overflow",
        "fig3_overflow"])
def test_values_beyond_double_precision_exit_2(tmp_path, capsys, command,
                                               column):
    # a closed form that a double cannot hold (nan, inf or an OverflowError
    # from a float power) is a parameter error, and no CSV is written
    out_path = tmp_path / "out.csv"
    if isinstance(command, dict):  # the fixed parameters of an n2+n3 scan
        cfg_path = tmp_path / "scan.json"
        cfg_path.write_text(json.dumps(_n2_doc(observable="n2+n3",
                                               fixed=command)))
        command = ["scan", "--config", str(cfg_path)]
    assert cli.main(command + ["--out", str(out_path)]) == 2
    err = capsys.readouterr().err
    assert (f"error: column {column}: x, mu, a_ratio or gamma_v_tilde is "
            f"too large for double precision") in err
    assert not out_path.exists()


def test_unwritable_output_path_exits_2(tmp_path, capsys):
    out_path = tmp_path / "missing" / "x.csv"
    assert cli.main(["figure", "--fig", "3", "--out", str(out_path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: cannot write {out_path}: ")
    cfg_path = tmp_path / "scan.json"
    cfg_path.write_text(json.dumps(_n2_doc(out=str(out_path))))
    assert cli.main(["scan", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: cannot write {out_path}: ")
    assert not out_path.parent.exists()
