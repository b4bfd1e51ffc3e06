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
    hold an integer, or "float" that does not hold a real number; a bool is
    neither. The annotations are strings under `from __future__ import annotations`."""
    for f in fields(config):
        kind = {"float": Real, "int": Integral}.get(f.type)
        value = getattr(config, f.name)
        if kind and (isinstance(value, bool) or not isinstance(value, kind)):
            what = "an integer" if kind is Integral else "a real number"
            raise InputError(f"{f.name} must be {what}, got {value!r}")
