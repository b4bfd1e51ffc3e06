"""Second-stage inference: per-point labels and offsets to instances, voted
keypoints, and fitted 6D poses."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from numbers import Integral

import numpy as np
from scipy.spatial.distance import cdist

from .backproject import PointCloud
from .errors import DegenerateConfiguration
from .files import read_json, write_json
from .geometry import (
    Correspondences,
    RigidTransform,
    fit_rigid_least_squares,
    pose_from_dict,
    pose_to_dict,
)


@dataclass(frozen=True)
class PipelineConfig:
    center_bandwidth: float = 0.05
    keypoint_bandwidth: float = 0.02
    min_points: int = 20


# The second stage's bandwidths and minimum instance size; no caller varies them.
CONFIG = PipelineConfig()

# mean_shift_modes stops once no position moved this far in one iteration.
MEAN_SHIFT_TOL = 1e-6


def _neighbour_rows(m, x, h2):
    """Flat-kernel neighbour rows [|m_i - x_j|^2 <= h2] as float 0/1, shape
    (len(m), len(x)). cdist's squared distances are bit-equal to the
    broadcast sum ((m[:, None] - x[None]) ** 2).sum(-1), so every pair gets
    the exact test."""
    return (cdist(m, x, "sqeuclidean") <= h2).astype(np.float64)


def _distinct_rows(a: np.ndarray):
    """np.unique(a, axis=0, return_inverse=True) for a 2-D array: the distinct
    rows in lexicographic order, and the index of each row among them."""
    order = np.lexsort(a.T[::-1])
    rows = a[order]
    first = np.ones(len(a), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return rows[first], inverse


def mean_shift_modes(x: np.ndarray, bandwidth: float, max_iter: int = 50, max_seeds: int = 256):
    """Flat-kernel mode seeking over points x (n, d).

    Seeds are the points themselves, strided down to at most max_seeds so the
    result is deterministic. A seed's update depends only on its position, so
    seeds that reach one position move together for good: each iteration
    advances only the distinct positions, and each seed keeps the index of its
    own. A position's neighbours are the points x with |m - x|^2 <= h^2 (h the
    bandwidth), one exact squared-distance test per position-point pair
    (_neighbour_rows). Every position then moves to the mean of its neighbours,
    (within @ x) / counts with the 0/1 neighbour matrix `within`. When every
    point lies within half a bandwidth of the points' centroid c (2 rho <=
    h (1 - 1e-9), rho = max |x - c|), every point lies within h of every other,
    so iteration 0 sends all seeds to the mean of all points and the loop
    would end on that one mode with count n. The call returns that mean at
    once, as a single-row product; the loop would form it as a k-row product,
    so the two agree within rounding. With max_iter = 0 the loop returns a
    seed instead, so it still runs. Converged positions are merged within one
    bandwidth, densest first, ties going to the one holding the lowest seed
    index. Returns (modes (k, d), counts (k,)) ordered by decreasing support,
    count being the number of points within one bandwidth of the mode.
    Neighbour sets and counts equal those of iterating every seed separately;
    a mean can differ from that in its last bits, because BLAS sums a row of
    a product differently depending on how many rows the product has.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    n = x.shape[0]
    if n == 0:
        return np.zeros((0, x.shape[1] if x.ndim == 2 else 0)), np.zeros(0, dtype=int)
    xc = x - x.mean(axis=0)
    x_radius = np.sqrt(np.einsum("ij,ij->i", xc, xc).max())
    reach = bandwidth * (1.0 - 1e-9) - x_radius
    if x_radius <= reach and max_iter >= 1:  # every vote lies within h of every vote
        return (np.ones((1, n)) @ x) / n, np.array([n])
    stride = max(1, int(np.ceil(n / max_seeds)))
    modes, seed_at = _distinct_rows(x[::stride])
    h2 = bandwidth * bandwidth
    ones = np.ones(n)
    for _ in range(max_iter):
        within = _neighbour_rows(modes, x, h2)
        counts = within @ ones
        new_modes = (within @ x) / np.maximum(counts, 1)[:, None]
        empty = counts == 0  # an isolated position stays put
        new_modes[empty] = modes[empty]
        shift = np.linalg.norm(new_modes - modes, axis=1).max()
        if len(new_modes) > 1:
            new_modes, step = _distinct_rows(new_modes)
            seed_at = step[seed_at]
        modes = new_modes
        if shift < MEAN_SHIFT_TOL:
            break
    counts = (_neighbour_rows(modes, x, h2) @ ones).astype(int)
    if len(modes) == 1:
        return modes, counts
    _, first_seed = np.unique(seed_at, return_index=True)
    order = np.lexsort((first_seed, -counts))
    modes, counts = modes[order], counts[order]
    apart = cdist(modes, modes, "sqeuclidean") > h2
    keep = np.ones(len(modes), dtype=bool)
    for i in range(len(modes)):
        if keep[i]:
            keep[i + 1 :] &= apart[i, i + 1 :]
    return modes[keep], counts[keep]


def assign_instances(labels, center_votes):
    """Group foreground points into instances by class and center-vote cluster:
    each point of a class joins its nearest converged center-vote mode.

    Returns a list of (class_id, point index array); clusters supported by
    fewer than CONFIG.min_points points are dropped. Label 0 is background.
    """
    labels = np.asarray(labels)
    center_votes = np.asarray(center_votes, dtype=np.float64)
    instances = []
    for cls in sorted(int(c) for c in np.unique(labels) if c != 0):
        idx = np.nonzero(labels == cls)[0]
        if idx.size < CONFIG.min_points:
            continue
        votes = center_votes[idx]
        modes, _ = mean_shift_modes(votes, CONFIG.center_bandwidth)
        nearest = cdist(votes, modes, "sqeuclidean").argmin(axis=1)
        for mode_index in range(len(modes)):
            members = idx[nearest == mode_index]
            if members.size >= CONFIG.min_points:
                instances.append((cls, members))
    return instances


def vote_keypoints(points, offsets, members):
    """Aggregate per-point keypoint votes into positions by mode seeking.

    points: (N, 3); offsets: (N, M + 1, 3) with the center in the last slot;
    members: indices of the instance's points. Returns (keypoints (M, 3),
    center (3,), inlier_fraction), the fraction being the share of votes
    within one bandwidth of the chosen mode, averaged over slots.
    """
    points = np.asarray(points, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.float64)
    members = np.asarray(members, dtype=int)
    if members.size == 0:
        raise ValueError("vote_keypoints requires a non-empty member set")
    n_slots = offsets.shape[1]
    voted = np.zeros((n_slots, 3))
    fractions = np.zeros(n_slots)
    candidates = offsets[members].swapaxes(0, 1) + points[members]
    for j in range(n_slots):
        modes, counts = mean_shift_modes(candidates[j], CONFIG.keypoint_bandwidth)
        voted[j] = modes[0]
        fractions[j] = counts[0] / members.size
    return voted[:-1], voted[-1], float(fractions.mean())


@dataclass
class InstanceDetection:
    class_id: int
    indices: np.ndarray
    keypoints: np.ndarray
    center: np.ndarray
    pose: RigidTransform
    inlier_fraction: float

    def to_dict(self) -> dict:
        return {
            "class": int(self.class_id),
            "indices": self.indices.tolist(),
            "pose": pose_to_dict(self.pose),
            "keypoints": self.keypoints.tolist(),
            "center": self.center.tolist(),
            "inlier_fraction": self.inlier_fraction,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "InstanceDetection":
        """The inverse of to_dict; a class or index that is not an integer, a
        bool included, or a missing `indices` list raises ValueError or KeyError."""
        class_id, indices = d["class"], np.asarray(d["indices"])
        if isinstance(class_id, bool) or not isinstance(class_id, Integral):
            raise ValueError(f"class must be an integer, got {class_id!r}")
        if indices.ndim != 1 or (indices.size and indices.dtype.kind not in "iu"):
            raise ValueError("indices must be a list of integers")
        return cls(
            class_id=int(class_id),
            indices=indices.astype(int),
            keypoints=np.asarray(d["keypoints"], dtype=np.float64),
            center=np.asarray(d["center"], dtype=np.float64),
            pose=pose_from_dict(d["pose"]),
            inlier_fraction=float(d["inlier_fraction"]),
        )


def run_pipeline(cloud: PointCloud, model, registry, oracle=None):
    """Full inference: network forward, then the second stage: instance
    grouping by center votes, keypoint voting and a rigid least-squares fit
    from the registry model's keypoints onto the voted ones. A degenerate
    instance is skipped with a warning; the remaining instances still go
    through.

    oracle, when given as (labels, offsets), replaces the network outputs so
    the geometric second stage can be exercised in isolation.
    """
    if len(cloud) == 0:
        return []
    if oracle is not None:
        labels, offsets = oracle
    else:
        out = model.forward(*model.inputs(cloud))
        labels, offsets = out.logits.argmax(axis=-1), out.offsets
    points, offsets = cloud.points, np.asarray(offsets, dtype=np.float64)
    detections = []
    for cls, members in assign_instances(labels, points + offsets[:, -1]):
        model_keypoints = registry.lookup(cls).keypoints
        try:
            kps, center, frac = vote_keypoints(points, offsets, members)
            pose = fit_rigid_least_squares(Correspondences(source=model_keypoints, target=kps))
        except DegenerateConfiguration as err:
            warnings.warn(f"instance of class {cls} dropped: {err}")
            continue
        detections.append(
            InstanceDetection(
                class_id=cls,
                indices=members,
                keypoints=kps,
                center=center,
                pose=pose,
                inlier_fraction=frac,
            )
        )
    return detections


def detections_to_json(path, detections, scene_index: int = 0) -> None:
    payload = {
        "scene": scene_index,
        "detections": [d.to_dict() for d in detections],
    }
    write_json(path, payload)


def detections_from_json(path):
    with read_json(path) as payload:
        return [InstanceDetection.from_dict(d) for d in payload["detections"]]
