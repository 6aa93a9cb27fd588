"""The size of the program's settable surface: config values and CLI options.

Each number here is counted in ROADMAP's North star 2, so a new setting or
option has to change it on purpose."""

import ast
from dataclasses import fields, is_dataclass
from pathlib import Path

from seedmark import cli
from seedmark.bim import BimConfig
from seedmark.datasets import GenSpec
from seedmark.harness import EvaluationConfig


def settable_values(cls) -> int:
    """The leaf fields of a config dataclass, counted through the nested ones."""
    return sum(settable_values(f.type) if is_dataclass(f.type) else 1 for f in fields(cls))


def test_settable_config_values():
    # EvaluationConfig's `gen` and `bim` hold a GenSpec and a BimConfig
    assert [settable_values(cls) for cls in (GenSpec, BimConfig)] == [4, 2]
    assert settable_values(EvaluationConfig) == 22 + 4 + 2


def test_cli_options():
    tree = ast.parse(Path(cli.__file__).read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "add_argument"]
    assert len(calls) == 41
