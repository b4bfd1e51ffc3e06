"""Second-stage inference: per-point labels and offsets to instances, voted
keypoints, and fitted 6D poses."""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .backproject import PointCloud
from .errors import DegenerateConfiguration
from .geometry import (
    Correspondences,
    RigidTransform,
    fit_rigid_least_squares,
    pose_from_dict,
    pose_to_dict,
)
from .heads import appearance_input


@dataclass(frozen=True)
class PipelineConfig:
    center_bandwidth: float = 0.05
    keypoint_bandwidth: float = 0.02
    min_points: int = 20


def mean_shift_modes(
    x: np.ndarray,
    bandwidth: float,
    max_iter: int = 50,
    tol: float = 1e-6,
    max_seeds: int = 256,
):
    """Flat-kernel mode seeking over points x (n, d).

    Seeds are the points themselves, strided down to at most max_seeds so the
    result is deterministic. A seed's update depends only on its position, so
    seeds that reach one position move together for good: each iteration
    advances only the distinct positions, and each seed keeps the index of its
    own. Converged positions are merged within one bandwidth, densest first,
    ties going to the one holding the lowest seed index. Returns (modes (k, d),
    counts (k,)) ordered by decreasing support, count being the number of
    points within one bandwidth of the mode. This matches iterating every seed
    separately, up to BLAS rounding in the weighted mean.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n == 0:
        return np.zeros((0, x.shape[1] if x.ndim == 2 else 0)), np.zeros(0, dtype=int)
    stride = max(1, int(np.ceil(n / max_seeds)))
    modes, seed_at = np.unique(x[::stride], axis=0, return_inverse=True)
    h2 = bandwidth * bandwidth

    def sq_dist(a, b):
        diff = a[:, None, :] - b[None, :, :]
        return np.einsum("ijd,ijd->ij", diff, diff)

    for _ in range(max_iter):
        within = sq_dist(modes, x) <= h2
        counts = within.sum(axis=1)
        new_modes = (within @ x) / np.maximum(counts, 1)[:, None]
        empty = counts == 0  # an isolated position stays put
        new_modes[empty] = modes[empty]
        shift = np.linalg.norm(new_modes - modes, axis=1).max()
        modes, step = np.unique(new_modes, axis=0, return_inverse=True)
        seed_at = step[seed_at]
        if shift < tol:
            break
    counts = (sq_dist(modes, x) <= h2).sum(axis=1)
    _, first_seed = np.unique(seed_at, return_index=True)
    order = np.lexsort((first_seed, -counts))
    modes, counts = modes[order], counts[order]
    apart = sq_dist(modes, modes) > h2
    keep = np.ones(len(modes), dtype=bool)
    for i in range(len(modes)):
        if keep[i]:
            keep[i + 1 :] &= apart[i, i + 1 :]
    return modes[keep], counts[keep]


def mean_shift_cluster(x: np.ndarray, bandwidth: float, **kw):
    """Cluster points by nearest converged mode: (assignments (n,), modes)."""
    modes, _ = mean_shift_modes(x, bandwidth, **kw)
    if len(modes) == 0:
        return np.zeros(len(x), dtype=int), modes
    d2 = ((x[:, None, :] - modes[None, :, :]) ** 2).sum(axis=-1)
    return d2.argmin(axis=1), modes


def assign_instances(labels, center_votes, cfg: PipelineConfig = PipelineConfig()):
    """Group foreground points into instances by class and center-vote cluster.

    Returns a list of (class_id, point index array); clusters supported by
    fewer than cfg.min_points points are dropped. Label 0 is background.
    """
    labels = np.asarray(labels)
    center_votes = np.asarray(center_votes, dtype=np.float64)
    instances = []
    for cls in sorted(int(c) for c in np.unique(labels) if c != 0):
        idx = np.nonzero(labels == cls)[0]
        if idx.size < cfg.min_points:
            continue
        assign, modes = mean_shift_cluster(center_votes[idx], cfg.center_bandwidth)
        for mode_index in range(len(modes)):
            members = idx[assign == mode_index]
            if members.size >= cfg.min_points:
                instances.append((cls, members))
    return instances


def vote_keypoints(points, offsets, members, cfg: PipelineConfig = PipelineConfig()):
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
    for j in range(n_slots):
        candidates = points[members] + offsets[members, j]
        modes, counts = mean_shift_modes(candidates, cfg.keypoint_bandwidth)
        voted[j] = modes[0]
        fractions[j] = counts[0] / candidates.shape[0]
    return voted[:-1], voted[-1], float(fractions.mean())


def estimate_pose(voted_keypoints, model) -> RigidTransform:
    """Rigid least squares from the model's keypoints onto the voted ones."""
    return fit_rigid_least_squares(
        Correspondences(source=model.keypoints, target=np.asarray(voted_keypoints))
    )


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
            "pose": pose_to_dict(self.pose),
            "keypoints": self.keypoints.tolist(),
            "center": self.center.tolist(),
            "inlier_fraction": self.inlier_fraction,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "InstanceDetection":
        return cls(
            class_id=int(d["class"]),
            indices=np.asarray(d.get("indices", []), dtype=int),
            keypoints=np.asarray(d["keypoints"], dtype=np.float64),
            center=np.asarray(d["center"], dtype=np.float64),
            pose=pose_from_dict(d["pose"]),
            inlier_fraction=float(d["inlier_fraction"]),
        )


def run_second_stage(points, labels, offsets, registry, cfg: PipelineConfig = PipelineConfig()):
    """Labels + offsets -> detections. A degenerate instance is skipped with a
    warning; the remaining instances still go through."""
    detections = []
    for cls, members in assign_instances(labels, offsets_center_votes(points, offsets), cfg):
        model = registry.lookup(cls)
        try:
            kps, center, frac = vote_keypoints(points, offsets, members, cfg)
            pose = estimate_pose(kps, model)
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


def offsets_center_votes(points, offsets) -> np.ndarray:
    """Center votes: point + predicted center offset (last slot)."""
    return np.asarray(points, dtype=np.float64) + np.asarray(offsets, dtype=np.float64)[:, -1]


def run_pipeline(
    cloud: PointCloud,
    model,
    registry,
    cfg: PipelineConfig = PipelineConfig(),
    oracle=None,
):
    """Full inference: network forward, instance grouping, voting, pose fit.

    oracle, when given as (labels, offsets), replaces the network outputs so
    the geometric second stage can be exercised in isolation.
    """
    if len(cloud) == 0:
        return []
    if oracle is not None:
        labels, offsets = oracle
    else:
        v = model.lift(cloud.points, cloud.attributes)
        app_in = appearance_input(cloud)
        out = model.forward(v, app_in)
        labels = out.logits.argmax(axis=-1)
        offsets = out.offsets
    return run_second_stage(cloud.points, labels, offsets, registry, cfg)


def detections_to_json(path, detections, scene_index: int = 0) -> None:
    payload = {
        "scene": scene_index,
        "detections": [d.to_dict() for d in detections],
    }
    with open(path, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")


def detections_from_json(path):
    with open(path) as f:
        payload = json.load(f)
    return [InstanceDetection.from_dict(d) for d in payload["detections"]]
