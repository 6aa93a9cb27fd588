"""Exception hierarchy shared across the package, and the field-type check
of the config dataclasses."""

import math
from dataclasses import fields, is_dataclass
from numbers import Real


class SeedmarkError(Exception):
    """Base class for all package errors."""


class SpecError(SeedmarkError):
    """Invalid model/data specification (dimension chaining, bad fields)."""


class InputError(SeedmarkError):
    """Runtime input mismatch (wrong feature dimension, shape, length)."""


class FormatError(SeedmarkError):
    """Malformed or version-incompatible serialized artifact."""


class DivergenceError(SeedmarkError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch, batch):
        self.epoch = epoch
        self.batch = batch
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}")


class WatermarkError(SeedmarkError):
    """Key-set generation or verification cannot proceed."""


class ConfigError(SeedmarkError):
    """Invalid harness/attack configuration."""


# what a field of each declared type takes; a bool is neither an int nor a number
_TAKES = {
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    float: (lambda v: isinstance(v, Real) and not isinstance(v, bool) and math.isfinite(v),
            "a finite number"),
    str: (lambda v: isinstance(v, str), "a string"),
}


def check_field_types(obj, error):
    """Raise `error` naming the first field of dataclass `obj` whose value does
    not fit the field's declared type: an int for `int`, a finite real number
    for `float`, a string for `str`, and a list or tuple of strings for
    `tuple`, which is then stored as a tuple (`obj` may be frozen), and an
    instance of a nested config's class, which checks its own fields."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type is tuple:
            if not isinstance(value, (list, tuple)):
                raise error(f"{f.name} must be a list, got {value!r}")
            if not all(isinstance(v, str) for v in value):
                raise error(f"{f.name} must be a list of strings, got {value!r}")
            object.__setattr__(obj, f.name, tuple(value))
        elif f.type in _TAKES and not _TAKES[f.type][0](value):
            raise error(f"{f.name} must be {_TAKES[f.type][1]}, got {value!r}")
        elif is_dataclass(f.type) and not isinstance(value, f.type):
            raise error(f"{f.name} must be a {f.type.__name__}, got {value!r}")
