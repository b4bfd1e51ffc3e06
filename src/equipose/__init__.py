"""Rotation-equivariant point-cloud features and keypoint-voting 6D pose estimation."""

from . import _allocator

__version__ = "0.1.0"

_allocator.apply()
