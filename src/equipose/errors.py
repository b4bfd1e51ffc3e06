"""Shared exception types, and the field type check the config dataclasses share."""

from dataclasses import fields
from numbers import Integral, Real


class EquiposeError(Exception):
    """Base class for all errors raised by this package."""


class InputError(EquiposeError, ValueError):
    """Input data, file or flag breaks its documented contract (bad input)."""


class DegenerateConfiguration(EquiposeError):
    """Point configuration does not determine a unique rigid transform."""


class SingularIntrinsics(EquiposeError):
    """Camera intrinsic matrix is not invertible."""


class NonPositiveDepth(EquiposeError):
    """Projection requested for a point at or behind the camera plane."""


class ShapeMismatch(EquiposeError):
    """Array shapes are incompatible with the layer or operation."""


class EmptyInput(EquiposeError):
    """Operation received an empty collection where at least one element is required."""


class NoForwardRecorded(EquiposeError):
    """backward() called without a matching recorded forward pass."""


class LabelOutOfRange(InputError):
    """Class label outside [0, n_classes)."""


class MissingAttributes(EquiposeError):
    """Point cloud carries no per-point appearance attributes."""


class TooFewVertices(InputError):
    """Model has fewer vertices than the number of requested keypoints."""


class ConfigInvalid(InputError):
    """Configuration value outside its documented range."""


def check_field_types(config) -> None:
    """Raise ConfigInvalid naming the first field annotated "int" that does not
    hold an integer, or "float" that does not hold a real number; a bool is
    neither. The annotations are strings under `from __future__ import annotations`."""
    for f in fields(config):
        kind = {"float": Real, "int": Integral}.get(f.type)
        value = getattr(config, f.name)
        if kind and (isinstance(value, bool) or not isinstance(value, kind)):
            what = "an integer" if kind is Integral else "a real number"
            raise ConfigInvalid(f"{f.name} must be {what}, got {value!r}")


class RegistryMiss(InputError):
    """Unknown class id looked up in the object model registry."""


class NonFiniteLoss(EquiposeError):
    """Training produced a non-finite loss or parameter value."""


class EmptyMaskWarning(UserWarning):
    """Offset loss evaluated with an empty foreground mask; returned zero."""
