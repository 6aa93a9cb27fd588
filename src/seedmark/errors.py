"""Exception hierarchy shared across the package, and the field-type check
of the config dataclasses."""

import math
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


def check_field_types(obj, error, ints=(), floats=(), lists=()):
    """Raise `error` naming the first field of `obj` in `ints` that is not an
    int (a bool is not), in `floats` that is not a finite real number (a bool
    is not) or in `lists` that is not a list or tuple; then store each `lists`
    field as a tuple (`obj` may be a frozen dataclass)."""
    for name in ints:
        value = getattr(obj, name)
        if not isinstance(value, int) or isinstance(value, bool):
            raise error(f"{name} must be an integer, got {value!r}")
    for name in floats:
        value = getattr(obj, name)
        if not isinstance(value, Real) or isinstance(value, bool) or not math.isfinite(value):
            raise error(f"{name} must be a finite number, got {value!r}")
    for name in lists:
        value = getattr(obj, name)
        if not isinstance(value, (list, tuple)):
            raise error(f"{name} must be a list, got {value!r}")
        object.__setattr__(obj, name, tuple(value))
