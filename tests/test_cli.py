import io
import json
import math

import numpy as np
import pytest

import tpa
from tpa import analytics, cli
from tpa.core import ParameterError


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


def _render(scan) -> str:
    buf = io.StringIO()
    cli.write_csv(scan, buf)
    return buf.getvalue()


def test_scan_matches_closed_profile():
    cfg = cli.parse_scan_config(_n2_doc())
    scan = cli.run_scan(cfg)
    prof = analytics.LineshapeParams(x=1e-3, a_ratio=0.7, gamma_v_tilde=1.5,
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
        _oracle_doc(oracle={"refine_tol": math.nan}),
        _oracle_doc(quadrature={"domain_halfwidth": math.nan}),
    ]
    for doc in bad_docs:
        with pytest.raises(ParameterError):
            cli.parse_scan_config(doc)


def test_infinite_quadrature_window_accepted():
    for halfwidth in (math.inf, "inf"):
        cfg = cli.parse_scan_config(
            _oracle_doc(quadrature={"domain_halfwidth": halfwidth}))
        assert cfg.quad.domain_halfwidth == math.inf
        assert cfg.metadata["quadrature"]["domain_halfwidth"] == "inf"


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


def test_main_rejects_nan_parameter(tmp_path, capsys):
    cfg_path = tmp_path / "nan.json"
    out_path = tmp_path / "nan.csv"
    cfg_path.write_text(json.dumps(_n2_doc(fixed={"x": math.nan})))
    assert cli.main(["scan", "--config", str(cfg_path),
                     "--out", str(out_path)]) == 2
    assert "fixed.x must be finite" in capsys.readouterr().err
    assert not out_path.exists()


def test_main_numerical_failure_exit(tmp_path, capsys):
    cfg_path = tmp_path / "oracle.json"
    cfg_path.write_text(json.dumps(_oracle_doc(oracle={"n_cap": 3})))
    assert cli.main(["scan", "--config", str(cfg_path)]) == 3
    assert "numerical failure:" in capsys.readouterr().err


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


def test_worker_count_from_environment(monkeypatch):
    monkeypatch.setenv("TPA_WORKERS", "3")
    assert cli._default_workers() == 3
    monkeypatch.setenv("TPA_WORKERS", "0")
    with pytest.raises(ParameterError):
        cli._default_workers()
    monkeypatch.setenv("TPA_WORKERS", "x")
    with pytest.raises(ParameterError):
        cli._default_workers()
    monkeypatch.delenv("TPA_WORKERS")
    assert cli._default_workers() == 1


def test_parallel_scan_matches_serial():
    cfg = cli.parse_scan_config(_oracle_doc())
    serial = cli.run_scan(cfg, workers=1)
    threaded = cli.run_scan(cfg, workers=2)
    assert np.array_equal(serial.columns["oracle_avg"],
                          threaded.columns["oracle_avg"])
    assert np.array_equal(serial.columns["n_used"],
                          threaded.columns["n_used"])
