"""Shared exception types."""


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


class ConfigInvalid(EquiposeError):
    """Configuration value outside its documented range."""


class RegistryMiss(EquiposeError):
    """Unknown class id looked up in the object model registry."""


class NonFiniteLoss(EquiposeError):
    """Training produced a non-finite loss or parameter value."""


class EmptyMaskWarning(UserWarning):
    """Offset loss evaluated with an empty foreground mask; returned zero."""
