"""Exception types, one per way a caller handles it, and the config field type check."""

from dataclasses import fields
from numbers import Integral, Real


class EquiposeError(Exception):
    """Base class for all errors raised by this package; the CLI exits 3."""


class InputError(EquiposeError, ValueError):
    """Input data, file, flag or config value breaks its documented contract
    (bad input); the CLI exits 2."""


class NonFiniteLoss(EquiposeError):
    """Training produced a non-finite loss or parameter value; the CLI exits 1."""


class DegenerateConfiguration(EquiposeError):
    """Point configuration does not determine a unique rigid transform; the
    second stage drops the instance with a warning."""


def check_field_types(config) -> None:
    """Raise InputError naming the first field annotated "int" that does not
    hold an integer, "float" that does not hold a real number, or "bool" that
    does not hold a bool; a bool is neither an integer nor a real number. The
    annotations are strings under `from __future__ import annotations`."""
    kinds = {"float": (Real, "a real number"), "int": (Integral, "an integer"), "bool": (bool, "a boolean")}
    for f in fields(config):
        kind, what = kinds.get(f.type, (None, None))
        value = getattr(config, f.name)
        if kind and (isinstance(value, bool) != (kind is bool) or not isinstance(value, kind)):
            raise InputError(f"{f.name} must be {what}, got {value!r}")
