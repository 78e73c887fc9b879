import pytest

from tpa.core import ParameterError
from tpa.validation import _averaged_scaling_row, run_validation


def test_fast_level_passes():
    report = run_validation("fast")
    assert report.passed
    assert len(report.rows) == 5
    names = [row.name for row in report.rows]
    assert "oracle structural + beam exchange" in names
    structural = report.rows[names.index("oracle structural + beam exchange")]
    assert "worst residual" in structural.detail
    table = report.format_table()
    assert "all checks passed" in table
    assert all(row.name in table for row in report.rows)


def test_full_level_adds_averaged_scaling():
    report = run_validation("full")
    assert report.passed
    assert len(report.rows) == 8
    assert any("averaged" in row.name for row in report.rows)
    assert any("gaussian" in row.name for row in report.rows)
    names = [row.name for row in report.rows]
    assert "gaussian pole average vs per-class quadrature" in names


def test_gaussian_averaged_scaling_row():
    # the Gaussian oracle average minus the Faddeeva series falls like
    # 1/delta_big^2, in the band of the Lorentzian row
    row = _averaged_scaling_row("gaussian")
    assert row.name == "series vs solver, gaussian scaling"
    assert row.passed
    slope = float(row.detail.rsplit("exponent ", 1)[1])
    assert 1.7 <= slope <= 2.3


def test_unknown_level_rejected():
    with pytest.raises(ParameterError):
        run_validation("exhaustive")
