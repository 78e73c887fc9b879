"""The package exports what the README documents, and the quick start runs."""

import argparse
import importlib
import json
import math
import re
from pathlib import Path

import tpa
from tpa import cli

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


def test_readme_command_line_matches_parser():
    # each `### `tpa <command> ...`` heading lists exactly the options the
    # parser defines, so a removed flag cannot stay documented
    section = _section("Command line")
    headings = dict(re.findall(r"^### `tpa (\w+)(.*)`$", section,
                               re.MULTILINE))
    subparsers = next(action for action in cli._build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert sorted(headings) == sorted(subparsers.choices)
    for command, synopsis in headings.items():
        defined = {opt for action in subparsers.choices[command]._actions
                   for opt in action.option_strings} - {"-h", "--help"}
        assert set(re.findall(r"--[\w-]+", synopsis)) == defined, command
    # the scan config example runs and gives finite values
    example = re.search(r"^### `tpa scan.*?```json\n(.*?)```", section,
                        re.MULTILINE | re.DOTALL)
    assert example, "the tpa scan section has no json example"
    scan = cli.run_scan(cli.parse_scan_config(json.loads(example.group(1))))
    assert all(math.isfinite(v) for column in scan.columns.values()
               for v in column)
