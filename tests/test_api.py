"""The package exports what the README documents, and the quick start runs."""

import importlib
import re
from pathlib import Path

import tpa

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _section(title: str) -> str:
    match = re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", README,
                      re.MULTILINE | re.DOTALL)
    assert match, f"README has no '## {title}' section"
    return match.group(1)


def test_readme_quick_start_runs(capsys):
    code = re.search(r"```python\n(.*?)```", _section("Library quick start"),
                     re.DOTALL)
    assert code, "quick start has no python block"
    exec(compile(code.group(1), "README quick start", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_exports_match_readme_api_list():
    for name in tpa.__all__:
        assert hasattr(tpa, name), name
    # each bullet of the list names its exports before the colon
    bullets = re.findall(r"^\* (.*?)(?=^\* |\Z)", _section("Library API"),
                         re.MULTILINE | re.DOTALL)
    listed = [name for item in bullets
              for name in re.findall(r"`(\w+)`", item.split(":")[0])]
    assert sorted(listed) == sorted(tpa.__all__)


def test_submodule_exports_are_the_package_exports():
    names = []
    for module in ("analytics", "averaging", "cli", "core", "oracle",
                   "perturbative", "validation"):
        names += getattr(importlib.import_module(f"tpa.{module}"),
                         "__all__", [])
    assert sorted(names + ["__version__"]) == sorted(tpa.__all__)
