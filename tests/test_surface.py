"""The size of the program's settable surface: config values and CLI options.

Each number here is counted in ROADMAP's North star 2, so a new setting or
option has to change it on purpose."""

import ast
import inspect
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

from seedmark import cli
from seedmark.bim import BimConfig
from seedmark.datasets import GenSpec
from seedmark.errors import ConfigError, SpecError
from seedmark.harness import EvaluationConfig
from seedmark.nnet import TrainConfig, loss_and_param_grads


def settable_values(cls) -> int:
    """The leaf fields of a config dataclass, counted through the nested ones."""
    return sum(settable_values(f.type) if is_dataclass(f.type) else 1 for f in fields(cls))


def test_settable_config_values():
    # EvaluationConfig's `gen` and `bim` hold a GenSpec and a BimConfig
    assert [settable_values(cls) for cls in (GenSpec, BimConfig)] == [4, 2]
    assert settable_values(EvaluationConfig) == 20 + 4 + 2


def test_train_config_fields():
    # the targets' shape picks the loss, so no field and no keyword states it
    assert [f.name for f in fields(TrainConfig)] == [
        "epochs", "batch_size", "learning_rate", "seed", "temperature"]
    assert list(inspect.signature(loss_and_param_grads).parameters) == [
        "model", "inputs", "targets", "temperature"]
    with pytest.raises(TypeError):
        TrainConfig(loss="soft")


def test_cli_options():
    tree = ast.parse(Path(cli.__file__).read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "add_argument"]
    assert len(calls) == 41


# a value of the wrong type for each leaf field type; a nested config is not a leaf
WRONG_TYPE = {int: 1.5, float: "0.5", str: 5, tuple: [5]}
CONFIGS = ((EvaluationConfig, ConfigError), (GenSpec, SpecError), (BimConfig, SpecError),
           (TrainConfig, SpecError))
LEAF_FIELDS = [(cls, f.name, error) for cls, error in CONFIGS
               for f in fields(cls) if not is_dataclass(f.type)]
NESTED_FIELDS = [(cls, f, error) for cls, error in CONFIGS
                 for f in fields(cls) if is_dataclass(f.type)]


@pytest.mark.parametrize("cls, name, error", LEAF_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name, _ in LEAF_FIELDS])
def test_every_leaf_field_rejects_a_value_of_the_wrong_type(cls, name, error):
    # the wrong value follows the default's type, so the check is on the
    # declared types even if they were ever stored as strings
    wrong = WRONG_TYPE[type(getattr(cls(), name))]
    with pytest.raises(error, match=f"^{name} must be "):
        cls(**{name: wrong})


@pytest.mark.parametrize("cls, field, error", NESTED_FIELDS,
                         ids=[f"{cls.__name__}.{f.name}" for cls, f, _ in NESTED_FIELDS])
@pytest.mark.parametrize("wrong", [{"classes": 3}, None, TrainConfig()],
                         ids=["dict", "none", "other-config"])
def test_every_nested_config_field_rejects_a_value_of_another_class(cls, field, error, wrong):
    with pytest.raises(error, match=f"^{field.name} must be a {field.type.__name__}, got "):
        cls(**{field.name: wrong})
