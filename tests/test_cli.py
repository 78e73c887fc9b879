import importlib.util
import io
import json
import math
import os
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import tpa
from tpa import analytics, averaging, cli, core, oracle, validation
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
    want = [analytics.n2(prof, d) for d in scan.grid]
    assert np.allclose(scan.columns["n2"], want, rtol=1e-14, atol=0.0)


def test_width_scan_single_beam():
    doc = {
        "observable": "width",
        "sweep": {"axis": "gamma_v_tilde", "start": 0.0, "stop": 4.0,
                  "count": 5},
        "fixed": {"a_ratio": 0.0},
    }
    scan = cli.run_scan(cli.parse_scan_config(doc))
    assert np.allclose(scan.columns["width"],
                       2.0 * (1.0 + np.asarray(scan.grid)), rtol=1e-12,
                       atol=0.0)


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
        # the closed width is the Lorentzian/homogeneous form
        _width_doc(dist={"kind": "gaussian"}),
    ]
    for doc in bad_docs:
        with pytest.raises(ParameterError):
            cli.parse_scan_config(doc)


@pytest.mark.parametrize("doc, match", [
    # x is a fixed key of n2, so only the list of axes refuses it
    (_n2_doc(sweep={"axis": "x", "start": 1e-3, "stop": 2e-3, "count": 3}),
     "sweep.axis must be one of"),
    ([_n2_doc()], "config must be a mapping"),
    (_n2_doc(sweep=[0, 1]), "sweep must be a mapping"),
    (_n2_doc(fixed=[1e-3]), "fixed must be a mapping"),
    (_n2_doc(dist="gaussian"), "dist must be a mapping"),
    (_oracle_doc(quadrature=[32]), "quadrature must be a mapping"),
    (_oracle_doc(oracle="deep"), "oracle must be a mapping"),
    # the integer rule: no boolean or other number, and no integer of 19
    # digits or more, which the message names without printing it
    *((_n2_doc(sweep={"axis": "delta_tilde", "start": 0.0, "stop": 1.0,
                      "count": bad}),
       r"^sweep.count must be an integer in \[2, 1000000\], got ")
      for bad in (True, 5.0, "5", None, 10 ** 400, -10 ** 5000)),
])
def test_config_errors_name_the_rule(doc, match):
    with pytest.raises(ParameterError, match=match) as error:
        cli.parse_scan_config(doc)
    assert len(str(error.value)) <= 100


@pytest.mark.parametrize("block, key, value", [
    ("quadrature", "nodes", 32.5),
    ("quadrature", "tol", -1),
    ("oracle", "refine_tol", -1),
    *(pytest.param(block, key, bad, id=f"{block}-{key}-{label}")
      for block, key in (("quadrature", "nodes"), ("oracle", "n_cap"))
      for label, bad in (("true", True), ("float", 5.0), ("str", "5"),
                         ("null", None), ("400_digits", 10 ** 400),
                         ("minus_400_digits", -10 ** 400))),
    *(pytest.param(block, key, bad, id=f"{block}-{key}-{bad}")
      for block, key in (("quadrature", "tol"),
                         ("quadrature", "domain_halfwidth"),
                         ("oracle", "refine_tol"))
      for bad in (True, "x", None)),
])
def test_option_errors_name_the_config_key(monkeypatch, tmp_path, capsys,
                                           block, key, value):
    # a bad option block value exits 2 at parse time, naming its full key
    def no_solve(*args, **kwargs):
        raise AssertionError("a scan with a bad option ran a solve")
    monkeypatch.setattr(oracle, "refine", no_solve)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_oracle_doc(**{block: {key: value}})))
    assert cli.main(["scan", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {block}.{key} must be")
    assert err.count("\n") == 1 and len(err) <= 100


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


def test_gaussian_closed_scan_follows_the_kind():
    # n2 on a gaussian set is the Faddeeva average of the series, value for
    # value, and not the lorentzian line of the same width
    doc = _n2_doc(dist={"kind": "gaussian"})
    scan = cli.run_scan(cli.parse_scan_config(doc))
    p = NormalizedParams.build(x=1e-3, mu=1.2, gamma_v_tilde=1.5,
                               a_ratio=0.7, kind="gaussian")
    assert scan.columns["n2"] == [analytics.n2(p, d) for d in scan.grid]
    lorentz = cli.run_scan(cli.parse_scan_config(_n2_doc()))
    assert scan.columns["n2"][0] != lorentz.columns["n2"][0]


def test_partial_quadrature_block_keeps_the_defaults():
    # a block that restates one default leaves the others at the
    # oracle_avg defaults, so it changes neither the metadata's tol nor
    # any value; a config without blocks holds the default settings
    # objects, and one that writes out every default runs the same scan
    doc = _oracle_doc(
        sweep={"axis": "delta_tilde", "start": 0.25, "stop": 0.5, "count": 2},
        fixed={"gamma_v_tilde": 2.0, "delta_big_tilde": 1e3,
               "phi_tilde": 1.0, "a_ratio": 1.0, "mu": 1.2},
        dist={"kind": "gaussian"})
    config = cli.parse_scan_config(doc)
    assert config.options == {"quadrature": averaging.DEFAULT_ORACLE_QUAD,
                              "oracle": oracle.LadderSpec()}
    assert "quadrature" not in config.metadata
    plain = _render(cli.run_scan(config))
    block = _render(cli.run_scan(cli.parse_scan_config(
        dict(doc, quadrature={"nodes": 32}))))
    assert json.loads(block.splitlines()[0][2:])["quadrature"] == {
        "nodes": 32, "domain_halfwidth": 10.0, "tol": 1e-6}
    assert block.splitlines()[1:] == plain.splitlines()[1:]
    full = _render(cli.run_scan(cli.parse_scan_config(dict(
        doc, quadrature={"nodes": 32, "domain_halfwidth": 10, "tol": 1e-6},
        oracle={"n_cap": np.int64(41), "refine_tol": 1e-14}))))
    metadata = json.loads(full.splitlines()[0][2:])
    assert metadata["quadrature"] == {"nodes": 32, "domain_halfwidth": 10.0,
                                      "tol": 1e-6}
    assert metadata["oracle"] == {"n_cap": 41, "refine_tol": 1e-14}
    assert type(metadata["quadrature"]["domain_halfwidth"]) is float
    assert full.splitlines()[1:] == plain.splitlines()[1:]


def test_infinite_quadrature_window_rejected(tmp_path, capsys):
    # the Lorentzian window is finite; an infinite one would be written into
    # the metadata although no run could use it
    # (the text "inf", which float() reads, is no number at all)
    for halfwidth, rule in ((math.inf, "finite"), ("inf", "a number")):
        with pytest.raises(ParameterError,
                           match=f"quadrature.domain_halfwidth must be {rule}"):
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
    # a Gaussian oracle_avg reads the quadrature block only where its
    # closed form falls back, but a block that sets only tol is parsed and
    # recorded as is
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


def test_weak_drive_gaussian_oracle_scan_writes_populations(tmp_path, capsys):
    # at phi_tilde = 1e-8 (x = 1e-19) the pole terms cancel to a population
    # of 5e-37, which the per-class quadrature gives
    cfg_path = tmp_path / "weak.json"
    cfg_path.write_text(json.dumps(_oracle_doc(
        sweep={"axis": "delta_tilde", "start": 0.0, "stop": 0.5, "count": 2},
        fixed={"delta_big_tilde": 1e3, "phi_tilde": 1e-8,
               "gamma_v_tilde": 2.0, "a_ratio": 1.0, "mu": 1.2},
        dist={"kind": "gaussian"})))
    assert cli.main(["scan", "--config", str(cfg_path)]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert len(rows) == 2
    assert all(float(row.split(",")[1]) > 0.0 for row in rows)


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
    # the figures' beam ratios are fixed
    assert cli.main(["figure", "--fig", "2", "--a-values", "1"]) == 2
    assert "unrecognized arguments: --a-values 1" in capsys.readouterr().err
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
    # oracle has no order key: the reference series is always order 3
    pytest.param(_oracle_doc(oracle={"order": 3}), id="order_removed"),
    pytest.param(_oracle_doc(oracle={"order": 2.0}), id="order_float"),
    pytest.param(_oracle_doc(oracle={"order": True}), id="order_bool"),
    # phi_tilde**2 overflows a float
    pytest.param(_oracle_doc(fixed={"delta_big_tilde": 100.0,
                                    "phi_tilde": 1e160}), id="phi_overflow"),
    # the width's parameter sets obey the same rules as every observable's
    pytest.param(_width_doc(fixed={"a_ratio": -1.0}), id="width_a_ratio"),
    pytest.param(_n2_doc(observable=["n2"]), id="observable_list"),
    # an integer beyond double range, in each kind of number the config holds
    pytest.param(_n2_doc(sweep={"axis": "delta_tilde", "start": 10 ** 400,
                                "stop": 3.0, "count": 25}),
                 id="start_beyond_double"),
    pytest.param(_n2_doc(fixed={"x": 10 ** 400}), id="x_beyond_double"),
    pytest.param(_oracle_doc(quadrature={"tol": 10 ** 400}),
                 id="tol_beyond_double"),
    # and an integer setting of 400 digits, which the message never prints
    pytest.param(_n2_doc(sweep={"axis": "delta_tilde", "start": 0.0,
                                "stop": 1.0, "count": 10 ** 400}),
                 id="count_400_digits"),
    pytest.param(_oracle_doc(quadrature={"nodes": 10 ** 400}),
                 id="nodes_400_digits"),
    pytest.param(_oracle_doc(oracle={"n_cap": 10 ** 400}),
                 id="n_cap_400_digits"),
    # and text of 5,000 characters where a number or a count belongs
    pytest.param(_n2_doc(fixed={"x": "1" * 5000}), id="x_long_text"),
    pytest.param(_n2_doc(sweep={"axis": "delta_tilde", "start": 0.0,
                                "stop": 1.0, "count": "5" * 5000}),
                 id="count_long_text"),
])
def test_main_boundary_inputs_exit_2(tmp_path, capsys, doc):
    cfg_path = tmp_path / "bad.json"
    out_path = tmp_path / "bad.csv"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["scan", "--config", str(cfg_path),
                     "--out", str(out_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert len(err) < 200
    assert not out_path.exists()


@pytest.mark.parametrize("doc, key", [
    (_n2_doc(fixed={"x": "1e-3"}), "fixed.x"),
    (_n2_doc(sweep={"axis": "delta_tilde", "start": "-3", "stop": 3.0,
                    "count": 25}), "sweep.start"),
    (_oracle_doc(quadrature={"tol": "1e-6"}), "quadrature.tol"),
])
def test_main_refuses_numbers_written_as_text(tmp_path, capsys, doc, key):
    cfg_path = tmp_path / "text.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["scan", "--config", str(cfg_path),
                     "--out", str(tmp_path / "text.csv")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{key} must be a number, got '" in err
    assert not (tmp_path / "text.csv").exists()


def test_main_rejects_integer_over_the_digit_limit(tmp_path, capsys):
    # json.load refuses an integer of more than 4,300 digits with a
    # ValueError (from Python 3.10.7 and 3.11; before them, the number rule
    # refuses it); json.dumps cannot write one, so the config is raw text
    cfg_path = tmp_path / "digits.json"
    out_path = tmp_path / "digits.csv"
    cfg_path.write_text(json.dumps(_n2_doc(fixed={"x": 0})).replace(
        '"x": 0', '"x": 1' + "0" * 4999))
    assert cli.main(["scan", "--config", str(cfg_path),
                     "--out", str(out_path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out_path.exists()
    with pytest.raises(ParameterError,
                       match="^fixed.x is beyond double precision$"):
        cli.parse_scan_config(_n2_doc(fixed={"x": 10 ** 400}))


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
# Modules that only executing numpy (2.x and 1.x) or importing scipy loads,
# and ctypes, which numpy and the solver's one-thread switch import; the
# lazy stand-in for numpy itself sits in sys.modules from the start.
_NUMPY_OR_SCIPY = ("numpy._core", "numpy.core", "scipy", "ctypes")


def _loaded_after(modules, *argvs):
    """Which of `modules` are in sys.modules after cli.main has run each
    argv, in order, in a fresh interpreter."""
    script = ("import json, sys\n"
              "from tpa import cli\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    assert cli.main(argv) == 0, argv\n"
              f"print(json.dumps([m for m in {tuple(modules)!r}\n"
              "                  if m in sys.modules]))\n")
    done = fresh_python("-c", script, json.dumps(argvs))
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


_CLOSED_SCANS = {
    "n2": _n2_doc(),
    "n2+n3": _n2_doc(observable="n2+n3"),
    "width": _width_doc(fixed={"a_ratio": 0.5}),
    "stark": {"observable": "stark",
              "sweep": {"axis": "gamma_v_tilde", "start": 0.0, "stop": 20.0,
                        "count": 41},
              "fixed": {"x": 1e-3, "a_ratio": 1.0, "mu": 1.4}},
    "n2max": {"observable": "n2max",
              "sweep": {"axis": "a_ratio", "start": 0.0, "stop": 1.0,
                        "count": 21},
              "fixed": {"x": 1e-3, "gamma_v_tilde": 1.0}},
    "gaussian stark": {"observable": "stark",
                       "sweep": {"axis": "gamma_v_tilde", "start": 0.0,
                                 "stop": 2.0, "count": 3},
                       "fixed": {"x": 1e-3, "a_ratio": 1.0, "mu": 1.4},
                       "dist": {"kind": "gaussian"}},
    "gaussian n2+n3": _n2_doc(observable="n2+n3",
                              dist={"kind": "gaussian"}),
}
_CLOSED_FIGURES = (2, 3, 4, 5)


def test_closed_scans_load_neither_numpy_nor_scipy(tmp_path):
    # a fresh `tpa scan` of each closed observable, on Lorentzian and
    # Gaussian profiles, and every figure leave numpy unexecuted and scipy
    # unimported, and write the bytes that the same runs write in this
    # process, where numpy is loaded
    argvs = []
    for k, doc in enumerate(_CLOSED_SCANS.values()):
        cfg_path = tmp_path / f"scan{k}.json"
        cfg_path.write_text(json.dumps(doc))
        argvs.append(["scan", "--config", str(cfg_path),
                      "--out", str(tmp_path / f"scan{k}.csv")])
    for fig in _CLOSED_FIGURES:
        argvs.append(["figure", "--fig", str(fig),
                      "--out", str(tmp_path / f"fig{fig}.csv")])
    assert _loaded_after(_NUMPY_OR_SCIPY, *argvs) == set()
    for k, doc in enumerate(_CLOSED_SCANS.values()):
        here = _render(cli.run_scan(cli.parse_scan_config(doc)))
        assert (tmp_path / f"scan{k}.csv").read_bytes() == here.encode()
    for fig in _CLOSED_FIGURES:
        here = _render(cli.run_figure(fig))
        assert (tmp_path / f"fig{fig}.csv").read_bytes() == here.encode()


def _setup_probe_docs():
    """The config that bench/run.py's set-up probe parses on each
    workload, at seed 1: the first scan of the seed's first unit."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads",
        Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # for its dataclass
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return {name: next(job.doc for job in next(workloads.units(
        name, random.Random(1))) if job.doc is not None)
        for name in workloads.WORKLOADS}


def test_setup_probe_loads_neither_numpy_nor_scipy():
    # the benchmark's setup_s times a fresh `from tpa import cli` and one
    # parse, which on every workload must leave numpy unexecuted and scipy
    # and ctypes unimported
    docs = _setup_probe_docs()
    assert sorted(docs) == ["closed_form", "strong_lorentz", "weak_gauss"]
    script = ("import json, sys\n"
              "from tpa import cli\n"
              "for doc in json.loads(sys.argv[1]):\n"
              "    cli.parse_scan_config(doc)\n"
              f"print(json.dumps([m for m in {_NUMPY_OR_SCIPY!r}\n"
              "                  if m in sys.modules]))\n")
    done = fresh_python("-c", script, json.dumps(list(docs.values())))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


_MAX = cli._MAX_SWEEP_COUNT


@given(start=st.floats(allow_nan=False, allow_infinity=False),
       stop=st.floats(allow_nan=False, allow_infinity=False),
       same=st.booleans(), count=st.integers(2, 64))
@example(start=-6.0, stop=6.0, same=False, count=_MAX)
@example(start=1.0, stop=1.0 + 2.0 ** -52, same=False, count=_MAX - 1)
@example(start=0.0, stop=5e-324, same=False, count=_MAX)  # step 0
@example(start=-0.0, stop=-0.0, same=True, count=_MAX - 2)
@example(start=-8e307, stop=8e307, same=False, count=_MAX)
def test_linspace_matches_numpy(start, stop, same, count):
    # the scan grid rounds every value as np.linspace does, signed zeros
    # included, also where the step underflows to 0
    if same:
        stop = start
    assume(math.isfinite(stop - start))
    got = np.array(cli._linspace(start, stop, count))
    with np.errstate(over="ignore"):  # k * step at k = count - 1, replaced
        want = np.linspace(start, stop, count)
    assert got.tobytes() == want.tobytes()


@given(lo=st.floats(-6.0, 6.0), hi=st.floats(-6.0, 6.0),
       count=st.integers(2, 64))
def test_geomspace_tracks_numpy(lo, hi, count):
    # the ends are exact; in between each point is within 1e-13 of numpy's,
    # whose log10 rounds differently at times
    start, stop = sorted((10.0 ** lo, 10.0 ** hi))
    assume(start < stop)
    got = core._geomspace(start, stop, count)
    assert len(got) == count
    assert got[0] == start and got[-1] == stop
    want = np.geomspace(start, stop, count)
    assert np.max(np.abs(np.array(got) - want) / want) <= 1e-13


@pytest.mark.parametrize("fig, start, count", [(3, 0.01, 48), (4, 0.05, 23),
                                               (5, 0.05, 19)])
def test_geomspace_matches_the_figure_grids(fig, start, count):
    # each figure's grid past its 0 is within one ulp of numpy's
    got = cli.run_figure(fig).grid
    assert got[0] == 0.0 and got[1:] == core._geomspace(start, 100.0, count)
    want = np.geomspace(start, 100.0, count).tolist()
    assert all(abs(g - w) <= math.ulp(w) for g, w in zip(got[1:], want))


def test_oracle_scan_loads_only_the_linear_algebra(tmp_path):
    cfg_path = tmp_path / "scan.json"
    cfg_path.write_text(json.dumps(_oracle_doc(
        sweep={"axis": "delta_tilde", "start": 0.0, "stop": 1.0,
               "count": 2})))
    loaded = _loaded_after(
        _SCIPY_AT_USE,
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

    def recorded(params, omega, ladder, start=3):
        rho, n_used = refine(params, omega, ladder, start=start)
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


def test_main_validate_reports_a_failing_row(capsys, monkeypatch):
    monkeypatch.setattr(validation, "_structural_rows", lambda level, rng: [
        validation.ValidationRow("planted", False, "a failing row")])
    assert cli.main(["validate"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  a failing row" in out
    assert out.rstrip().endswith("CHECKS FAILED")


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
    # the beam ratios of each figure are fixed: run_figure takes only the
    # figure number
    with pytest.raises(TypeError):
        cli.run_figure(3, [0.25])
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


_LORENTZ_ORACLE = {"gamma_v_tilde": 2.0, "a_ratio": 1.0, "mu": 1.2}


@pytest.mark.parametrize("doc, column", [
    (_n2_doc(observable="n2+n3", fixed={"x": 1e60, "mu": 1e100}),
     "'n2+n3' has no finite value at delta_tilde = -3.0"),
    (_n2_doc(observable="n2+n3", fixed={"x": 1e120, "mu": 2.0}),
     "'n2+n3' has no finite value at delta_tilde = -3.0"),
    (_oracle_doc(fixed={**_LORENTZ_ORACLE, "delta_big_tilde": 1e-105}),
     "'oracle_avg' has no finite value at delta_tilde = 0.0"),
    (_oracle_doc(fixed={**_LORENTZ_ORACLE, "delta_big_tilde": 100.0,
                        "phi_tilde": 1e60}),
     "'oracle_avg' has no finite value at delta_tilde = 0.0"),
], ids=["scan_nan", "scan_overflow", "oracle_tiny_delta_big",
        "oracle_strong_drive"])
def test_values_beyond_double_precision_exit_2(tmp_path, capsys, monkeypatch,
                                               doc, column):
    # a value that a double cannot hold (nan, inf or an OverflowError from
    # a float power, in a closed form or in the series reference of a
    # Lorentzian oracle_avg) is a parameter error, no CSV is written, and
    # no sweep point is evaluated twice to find the bad one
    out_path = tmp_path / "out.csv"
    cfg_path = tmp_path / "scan.json"
    cfg_path.write_text(json.dumps(doc))
    averages = []
    oracle_average = averaging.oracle_average

    def counted(params, *args, **kwargs):
        averages.append(params)
        return oracle_average(params, *args, **kwargs)
    monkeypatch.setattr(averaging, "oracle_average", counted)
    assert cli.main(["scan", "--config", str(cfg_path),
                     "--out", str(out_path)]) == 2
    err = capsys.readouterr().err
    assert (f"error: column {column}: x, mu, a_ratio or gamma_v_tilde is "
            f"too large for double precision") in err
    assert not out_path.exists()
    assert len(averages) == (doc["observable"] == "oracle_avg")


def _scan_rows(tmp_path, doc):
    """Exit code of a scan of doc and the rows of the CSV it wrote."""
    out_path = tmp_path / "out.csv"
    cfg_path = tmp_path / "scan.json"
    cfg_path.write_text(json.dumps(doc))
    code = cli.main(["scan", "--config", str(cfg_path),
                     "--out", str(out_path)])
    lines = out_path.read_text().splitlines()[2:] if code == 0 else []
    return code, [[float(v) for v in line.split(",")] for line in lines]


@pytest.mark.parametrize("observable", ["n2", "n2+n3", "n2max", "stark"])
@pytest.mark.parametrize("a, kind", [
    *(pytest.param(a, "lorentzian", id=f"{a}") for a in (0.0, 0.5)),
    *(pytest.param(a, "gaussian", id=f"{a}-gaussian") for a in (0.0, 0.5)),
])
def test_wide_lorentzian_closed_scans_write_finite_values(tmp_path,
                                                          observable, a,
                                                          kind):
    # every closed value fits a double up to the widest Doppler width,
    # where no power of 1 + gamma_v_tilde (Lorentzian) or of sigma
    # (Gaussian) would
    doc = _n2_doc(observable=observable,
                  sweep={"axis": "gamma_v_tilde", "start": 1e298,
                         "stop": 1e300, "count": 3},
                  fixed={"x": 1e-3, "mu": 1.2, "a_ratio": a,
                         "delta_tilde": 0.7},
                  dist={"kind": kind})
    if observable in ("n2max", "stark"):
        del doc["fixed"]["delta_tilde"]
    code, rows = _scan_rows(tmp_path, doc)
    assert code == 0 and len(rows) == 3
    assert all(math.isfinite(value) for _, value in rows)
    point = NormalizedParams.build(x=1e-3, mu=1.2, a_ratio=a,
                                   gamma_v_tilde=1e300, kind=kind)
    if observable == "stark":
        assert rows[-1][1] == analytics.stark_shift(point)
    elif observable == "n2max":
        # the Doppler-free peak 32 mu^2 x^2 A^2 of the standing wave is all
        # that is left
        assert rows[-1][1] == pytest.approx(32 * 1.2 ** 2 * 1e-6 * a * a,
                                            rel=1e-15, abs=1e-300)
    elif a > 0.0:
        assert rows[-1][1] > 0.0


def test_wide_width_scan_reaches_the_sub_doppler_limit(tmp_path):
    # for A > 0 the closed width tends to 2 from above as the Doppler width
    # grows, here as 2 + 1/gamma_v_tilde
    code, rows = _scan_rows(tmp_path, _width_doc(
        sweep={"axis": "gamma_v_tilde", "start": 1e9, "stop": 1e12,
               "count": 4}, fixed={"a_ratio": 1.0}))
    assert code == 0 and len(rows) == 4
    widths = [width for _, width in rows]
    assert all(0.0 < width / 2.0 - 1.0 <= 1e-9 for width in widths)
    assert widths == sorted(widths, reverse=True)


@pytest.mark.parametrize("block, message", [
    ({"n_cap": 3}, "oracle.n_cap must be an integer >= 5, got 3"),
    ({"refine_tol": -1e-3},
     "oracle.refine_tol must be >= 0, got -0.001"),
])
def test_oracle_block_errors_name_their_key(tmp_path, capsys, block,
                                            message):
    # the oracle block is checked by refine's own rule, and the message
    # names the key through the block, as for the quadrature block
    code, _ = _scan_rows(tmp_path, _oracle_doc(oracle=block))
    assert code == 2
    assert message in capsys.readouterr().err


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
