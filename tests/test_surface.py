"""The size of the program's settable surface: config values and CLI options.

Each number here is counted in ROADMAP's North star 2, so a new setting or
option has to change it on purpose."""

import ast
import inspect
import math
import re
import reprlib
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Annotated, get_args, get_origin

import numpy as np
import pytest

from seedmark import cli, errors
from seedmark.bim import BimConfig
from seedmark.datasets import GenSpec
from seedmark.errors import ConfigError, SpecError
from seedmark.harness import ATTACK_TOKENS, EvaluationConfig, parse_attack_token
from seedmark.nnet import TrainConfig, loss_and_param_grads


def settable_values(cls) -> int:
    """The leaf fields of a config dataclass, counted through the nested ones."""
    return sum(settable_values(f.type) if is_dataclass(f.type) else 1 for f in fields(cls))


def test_settable_config_values():
    # EvaluationConfig's `gen` and `bim` hold a GenSpec and a BimConfig
    assert [settable_values(cls) for cls in (GenSpec, BimConfig)] == [4, 2]
    assert settable_values(EvaluationConfig) == 15 + 4 + 2


def test_train_config_fields():
    # the targets' shape picks the loss, so no field and no keyword states it;
    # the batch size and Adam's learning rate are constants
    assert [f.name for f in fields(TrainConfig)] == ["epochs", "seed", "temperature"]
    assert list(inspect.signature(loss_and_param_grads).parameters) == [
        "model", "inputs", "targets", "temperature"]
    assert EvaluationConfig.batch_size == TrainConfig().batch_size == 32


@pytest.mark.parametrize("keyword, value", [
    ("loss", "soft"), ("batch_size", 8), ("learning_rate", 0.1)])
def test_train_config_refuses_a_keyword_it_does_not_declare(keyword, value):
    with pytest.raises(TypeError, match=keyword):
        TrainConfig(**{keyword: value})


def test_cli_options():
    # the root's -v, and each command's options, each declared once in cli.OPTIONS
    used = [option for _, _, options in cli.COMMANDS.values() for option in options]
    assert 1 + len(used) == 41
    assert set(used) == set(cli.OPTIONS)
    # the root's -v and the one loop over a command's options
    tree = ast.parse(Path(cli.__file__).read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "add_argument"]
    assert len(calls) == 2


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


def declared_bounds():
    """(class, field, interval, bound, closed, side, error) for each finite
    bound of an interval that a config field declares; side is -1 for the
    lower bound and 1 for the upper."""
    out = []
    for cls, error in CONFIGS:
        for f in fields(cls):
            if get_origin(f.type) is not Annotated:
                continue
            kind, *declared = get_args(f.type)
            for interval in (r for r in declared if isinstance(r, str)):
                lo, hi = interval[1:-1].split(", ")
                for text, closed, side in ((lo, interval[0] == "[", -1),
                                           (hi, interval[-1] == "]", 1)):
                    if text.lstrip("-") != "inf":
                        out.append((cls, f.name, interval, kind(text), closed, side, error))
    return out


BOUNDS = declared_bounds()


@pytest.mark.parametrize("cls, name, interval, bound, closed, side, error", BOUNDS,
                         ids=[f"{b[0].__name__}.{b[1]}-{'upper' if b[5] > 0 else 'lower'}"
                              for b in BOUNDS])
def test_every_declared_bound_rejects_the_values_beyond_it(cls, name, interval, bound, closed,
                                                           side, error):
    # the nearest value beyond the bound (the bound itself if open), and a huge integer
    nearest = bound
    if closed:
        nearest = bound + side if type(bound) is int else math.nextafter(bound, side * math.inf)
    for value in (nearest, side * 10**30):
        message = f"{name} must be in {interval}, got {reprlib.repr(value)}"
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            cls(**{name: value})
    if closed:
        assert getattr(cls(**{name: bound}), name) == bound


def test_no_hand_written_value_check_outside_errors():
    # a check of a number or a bool is a rule of `errors`, used through `errors.check`
    found = []
    for path in sorted(Path(errors.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                second = node.args[1]
                types = second.elts if isinstance(second, ast.Tuple) else [second]
                if any(isinstance(t, ast.Name) and t.id == "bool" for t in types):
                    found.append(f"{path.name}:{node.lineno} isinstance(..., bool)")
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "numbers"):
                found.append(f"{path.name}:{node.lineno} numbers.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "numbers":
                found.append(f"{path.name}:{node.lineno} from numbers import")
    assert found == []


FLOAT_FIELDS = [(cls, name, error) for cls, name, error in LEAF_FIELDS
                if type(getattr(cls(), name)) is float]


@pytest.mark.parametrize("cls, name, error", FLOAT_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name, _ in FLOAT_FIELDS])
@pytest.mark.parametrize("value", [10**400, np.float32(np.inf)],
                         ids=["int-beyond-float64", "float32-inf"])
def test_every_float_field_rejects_a_value_beyond_float64(cls, name, error, value):
    # no OverflowError, and no RuntimeWarning, which the test settings make an error
    message = f"{name} must be a finite number, got {reprlib.repr(value)}"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        cls(**{name: value})


def test_attack_tokens_are_each_extraction_alone_or_in_one_blur():
    extractions = ("RET", "DIS", "TRL", "CAR", "CC")
    expected = {token: (token, None) for token in extractions}
    expected.update({f"{blur}({token})": (token, blur)
                     for blur in ("WP", "WQ") for token in extractions})
    assert ATTACK_TOKENS == expected
    for token in ATTACK_TOKENS:
        assert parse_attack_token(token) == ATTACK_TOKENS[token]


@pytest.mark.parametrize("cls, field, error", NESTED_FIELDS,
                         ids=[f"{cls.__name__}.{f.name}" for cls, f, _ in NESTED_FIELDS])
@pytest.mark.parametrize("wrong", [{"classes": 3}, None, TrainConfig()],
                         ids=["dict", "none", "other-config"])
def test_every_nested_config_field_rejects_a_value_of_another_class(cls, field, error, wrong):
    with pytest.raises(error, match=f"^{field.name} must be a {field.type.__name__}, got "):
        cls(**{field.name: wrong})
