"""Rotation and rigid-transform algebra plus the closed-form rigid least-squares fit.

Conventions: rotations are 3x3 matrices acting on column vectors, so a point
array of shape (N, 3) transforms as ``points @ R.T + t``. All quantities are
float64; downstream equivariance tolerances rely on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfiguration, InputError
from .files import read_json

ORTHONORMAL_TOL = 1e-9


def _as_array(x, shape=None) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if shape is not None and a.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {a.shape}")
    return a


@dataclass(frozen=True)
class Rotation:
    """A proper rotation: orthonormal 3x3 matrix with determinant +1."""

    m: np.ndarray

    def __post_init__(self):
        m = _as_array(self.m, (3, 3))
        if not np.max(np.abs(m.T @ m - np.eye(3))) <= ORTHONORMAL_TOL:  # NaN fails too
            raise ValueError("matrix columns are not orthonormal")
        if abs(np.linalg.det(m) - 1.0) > ORTHONORMAL_TOL:
            raise ValueError("matrix is not a proper rotation (det != +1)")
        object.__setattr__(self, "m", m)

    @classmethod
    def from_quaternion(cls, q) -> "Rotation":
        """Unit quaternion (w, x, y, z) to rotation matrix."""
        q = _as_array(q, (4,))
        w, x, y, z = q / np.linalg.norm(q)
        m = np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )
        return cls(m)

    def apply(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        return points @ self.m.T


@dataclass(frozen=True)
class RigidTransform:
    """Rigid pose [R | t]: rotation followed by translation, in meters."""

    rotation: Rotation
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "translation", _as_array(self.translation, (3,)))

    def apply(self, points) -> np.ndarray:
        return self.rotation.apply(points) + self.translation


def sample_uniform_rotation(rng: np.random.Generator) -> Rotation:
    """Haar-uniform rotation via a normalized 4-component Gaussian quaternion;
    advances the generator's state."""
    q = rng.normal(size=4)
    while np.linalg.norm(q) < 1e-12:
        q = rng.normal(size=4)
    return Rotation.from_quaternion(q)


@dataclass(frozen=True)
class Correspondences:
    """Paired 3D points: source in the object frame, target in the camera frame."""

    source: np.ndarray
    target: np.ndarray
    weights: np.ndarray = None

    def __post_init__(self):
        src = np.ascontiguousarray(self.source, dtype=np.float64)
        dst = np.ascontiguousarray(self.target, dtype=np.float64)
        if src.ndim != 2 or src.shape[1] != 3:
            raise InputError(f"source must be (M, 3), got {src.shape}")
        if dst.shape != src.shape:
            raise InputError(f"source/target shapes differ: {src.shape} vs {dst.shape}")
        if src.shape[0] < 3:
            raise InputError("at least 3 correspondences required")
        w = np.ones(len(src)) if self.weights is None else _as_array(self.weights, (len(src),))
        for name, a in (("source", src), ("target", dst), ("weights", w)):
            if not np.isfinite(a).all():  # a ValueError, as in pose_from_dict, so a reader names its file
                raise ValueError(f"{name} has a non-finite entry")
        if np.any(w < 0.0):
            raise InputError("weights must be non-negative")
        if w.sum() <= 0.0:
            raise InputError("weights must not sum to zero")
        object.__setattr__(self, "source", src)
        object.__setattr__(self, "target", dst)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.source.shape[0]


def fit_rigid_least_squares(c: Correspondences) -> RigidTransform:
    """Weighted least-squares rigid alignment of source onto target.

    Closed-form SVD solution of the weighted cross-covariance; the singular
    vector paired with the smallest singular value is sign-flipped when the
    raw solution would be a reflection, so the result is always a proper
    rotation. Raises DegenerateConfiguration when the centered source spans
    less than a plane (cross-covariance rank < 2), since the rotation is then
    not unique.
    """
    w = c.weights / c.weights.sum()
    centroid_src = w @ c.source
    centroid_dst = w @ c.target
    a = c.source - centroid_src
    b = c.target - centroid_dst
    h = (a * w[:, None]).T @ b
    u, s, vt = np.linalg.svd(h)
    if s[1] <= 1e-9 * max(s[0], 1e-300):
        raise DegenerateConfiguration(
            "cross-covariance rank < 2: source points are collinear or coincident"
        )
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    t = centroid_dst - r @ centroid_src
    return RigidTransform(Rotation(r), t)


def load_correspondences_json(path) -> Correspondences:
    """Read {"source": [[x,y,z],...], "target": [...], "weights": [...]?}."""
    with read_json(path) as data:
        return Correspondences(
            source=np.asarray(data["source"], dtype=np.float64),
            target=np.asarray(data["target"], dtype=np.float64),
            weights=None if data.get("weights") is None else np.asarray(data["weights"]),
        )


def pose_to_dict(t: RigidTransform) -> dict:
    return {
        "rotation": t.rotation.m.tolist(),
        "translation": t.translation.tolist(),
    }


def pose_from_dict(d: dict) -> RigidTransform:
    rotation, translation = _as_array(d["rotation"]), _as_array(d["translation"])
    if not (np.isfinite(rotation).all() and np.isfinite(translation).all()):
        raise ValueError("pose has a non-finite entry")
    return RigidTransform(Rotation(rotation), translation)
