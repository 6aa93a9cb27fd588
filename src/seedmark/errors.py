"""Exception hierarchy shared across the package, and the one vocabulary of
value checks: rules, `check`, and the rules that config fields declare."""

import math
import operator
import reprlib
from dataclasses import fields, is_dataclass
from functools import cache
from numbers import Integral, Real
from typing import Annotated, Callable, NamedTuple, get_args, get_origin


class SeedmarkError(Exception):
    """Base class for all package errors."""


class SpecError(SeedmarkError):
    """Invalid model/data specification (dimension chaining, bad fields)."""


class InputError(SeedmarkError):
    """Runtime input mismatch (wrong feature dimension, shape, length)."""


class FormatError(SeedmarkError):
    """Malformed or version-incompatible serialized artifact."""


class DivergenceError(SeedmarkError):
    """Training produced a non-finite loss. `model` is the diverging job's index
    in the `nnet.train_jobs` list (0 for `nnet.train`)."""

    def __init__(self, epoch, batch, model=0):
        self.epoch = epoch
        self.batch = batch
        self.model = model
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}")


class WatermarkError(SeedmarkError):
    """Key-set generation or verification cannot proceed."""


class ConfigError(SeedmarkError):
    """Invalid harness/attack configuration."""


class Rule(NamedTuple):
    """The values `ok` accepts, as `what` describes them ("an integer in [1, 16]").
    A list's rule may carry `entry`, its check of each entry, for `check` to name."""

    ok: Callable
    what: str
    entry: Callable = None


def _number(v) -> bool:  # a bool is neither a number nor an integer
    return isinstance(v, Real) and not isinstance(v, bool)


def _finite(v) -> bool:  # an integer beyond float64's range is not finite there
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


INTEGER = Rule(lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer")
WHOLE_NUMBER = Rule(lambda v: isinstance(v, Integral) and _number(v), "a whole number")
NUMBER = Rule(lambda v: _number(v) and _finite(v), "a finite number")
STRING = Rule(lambda v: isinstance(v, str), "a string")
NON_EMPTY = Rule(lambda v: len(v) > 0, "non-empty")


@cache  # each interval is parsed once
def within(interval, kind=None) -> Rule:
    """A value of rule `kind`, or any number, in `interval`, such as "(0, 1]" or "[1, inf)"."""
    lo, hi = map(float, interval[1:-1].split(","))
    above = operator.le if interval[0] == "[" else operator.lt
    below = operator.le if interval[-1] == "]" else operator.lt
    is_kind = kind.ok if kind else _number
    return Rule(lambda v: is_kind(v) and above(lo, v) and below(v, hi),
                f"{kind.what} in {interval}" if kind else f"in {interval}")


def among(names) -> Rule:
    """One of the strings `names`."""
    return Rule(lambda v: isinstance(v, str) and v in names,
                "one of " + ", ".join(map(repr, names)))


def each(rule) -> Rule:
    """A list or tuple whose every entry `rule` accepts."""
    return Rule(lambda v: isinstance(v, (list, tuple)) and all(map(rule.ok, v)),
                f"a list, each {rule.what}", rule.ok)


def check(name, value, rule, error):
    """Raise `error("<name> must be <rule.what>, got <value>")` unless `rule`
    accepts `value`. The value is shortened by `reprlib`; a list whose rule
    checks each entry shows its first failing entry and that entry's index."""
    if not rule.ok(value):
        got = reprlib.repr(value)
        if rule.entry and isinstance(value, (list, tuple)):
            index = next((i for i, x in enumerate(value) if not rule.entry(x)), None)
            if index is not None:
                got = f"{reprlib.repr(value[index])} at index {index}"
        raise error(f"{name} must be {rule.what}, got {got}")


_TYPE_RULES = {int: (INTEGER,), float: (NUMBER,), str: (STRING,),
               tuple: (Rule(lambda v: isinstance(v, (list, tuple)), "a list"),)}


@cache
def _field_rules(cls) -> tuple:
    """(name, rules, is a tuple) for each field of dataclass `cls`, built once
    per class: the rules of its declared type (`_TYPE_RULES`; a nested config's
    class takes an instance, which checks its own fields), then those it
    declares as `Annotated` metadata, where a string stands for `within(string)`."""
    out = []
    for f in fields(cls):
        kind, *declared = get_args(f.type) if get_origin(f.type) is Annotated else (f.type,)
        rules = _TYPE_RULES.get(kind, ())
        if is_dataclass(kind):
            rules = (Rule(lambda v, kind=kind: isinstance(v, kind), f"a {kind.__name__}"),)
        out.append((f.name, rules + tuple(within(r) if isinstance(r, str) else r
                                          for r in declared), kind is tuple))
    return tuple(out)


def check_field_types(obj, error):
    """Raise `error` (see `check`) naming the first field of dataclass `obj`
    whose value breaks one of the field's rules (`_field_rules`), such as
    `epochs: Annotated[int, "[1, inf)"]`. A list in a `tuple` field is
    stored as a tuple (`obj` may be frozen)."""
    for name, rules, is_tuple in _field_rules(type(obj)):
        value = getattr(obj, name)
        for rule in rules:
            if not rule.ok(value):
                check(name, value, rule, error)
        if is_tuple:
            object.__setattr__(obj, name, tuple(value))
