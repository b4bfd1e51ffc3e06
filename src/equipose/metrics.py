"""Pose evaluation metrics: vertex-pair ADD, nearest-point ADD-S, the capped
accuracy-threshold AUC, and the 10%-of-diameter hit criterion."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial import ConvexHull, QhullError, cKDTree
from scipy.spatial.distance import cdist

from .errors import EquiposeError
from .files import write_atomic, write_json
from .geometry import RigidTransform

# Upper end, in meters, of the accuracy-vs-threshold curve every AUC integrates.
AUC_CAP_M = 0.1
# Rows per block of model_diameter's pairwise-distance loop; bounds its memory.
BLOCK_ROWS = 512


def add(gt: RigidTransform, pred: RigidTransform, model) -> float:
    """Mean distance between paired model vertices under the two poses."""
    verts = model.vertices
    return float(np.linalg.norm(gt.apply(verts) - pred.apply(verts), axis=1).mean())


def add_s(gt: RigidTransform, pred: RigidTransform, model) -> float:
    """Mean nearest-point distance from GT-posed vertices to predicted-posed
    ones, by KD-tree query; the tests check it against a brute-force
    reference."""
    verts = model.vertices
    dist, _ = cKDTree(pred.apply(verts)).query(gt.apply(verts), k=1)
    return float(np.mean(dist))


def auc(distances) -> float:
    """Exact area, in percent, under the accuracy-vs-threshold step curve on
    [0, AUC_CAP_M], normalized by AUC_CAP_M. Distances above the cap
    (including inf for missed detections) contribute zero.
    """
    d = np.asarray(distances, dtype=np.float64)
    if d.size == 0:
        raise EquiposeError("auc of an empty distance list")
    if np.any(d < 0.0):
        raise ValueError("distances must be non-negative")
    mass = np.clip(AUC_CAP_M - d, 0.0, None)
    return float(100.0 * mass.sum() / (d.size * AUC_CAP_M))


def model_diameter(verts: np.ndarray) -> float:
    """Exact max pairwise distance between the rows of an (m, 3) vertex array.

    The farthest pair lies on the convex hull, so only the hull's vertices
    and the points Qhull set aside as coplanar with a facet are compared. A
    flat or too-small vertex set has no 3-D hull and compares every vertex.
    """
    try:
        hull = ConvexHull(verts)
        verts = verts[np.union1d(hull.vertices, hull.coplanar[:, 0])]
    except QhullError:
        pass
    best = 0.0
    for start in range(0, len(verts), BLOCK_ROWS):
        best = max(best, float(cdist(verts[start : start + BLOCK_ROWS], verts, "sqeuclidean").max()))
    return float(np.sqrt(best))


@dataclass
class ObjectMetrics:
    class_id: int
    symmetric: bool
    add_values: list = field(default_factory=list)
    add_s_values: list = field(default_factory=list)

    def matched(self) -> np.ndarray:
        """ADD(-S): nearest-point distances for symmetric objects, paired otherwise."""
        return np.asarray(self.add_s_values if self.symmetric else self.add_values)

    @property
    def n_samples(self) -> int:
        return len(self.add_values)


@dataclass
class PoseMetricsReport:
    per_object: dict  # class_id -> ObjectMetrics
    diameters: dict  # class_id -> float

    def adds_auc(self, class_id: int) -> float:
        return auc(self.per_object[class_id].add_s_values)

    def add_or_adds_auc(self, class_id: int) -> float:
        return auc(self.per_object[class_id].matched())

    def hit_rate_01d(self, class_id: int) -> float:
        m = self.per_object[class_id]
        d = self.diameters[class_id]
        matched = m.matched()
        return float(100.0 * np.mean(matched < 0.1 * d))

    def rows(self):
        for cls in sorted(self.per_object):
            m = self.per_object[cls]
            yield {
                "object": cls,
                "adds_auc": self.adds_auc(cls),
                "add_or_adds_auc": self.add_or_adds_auc(cls),
                "hit_rate_01d": self.hit_rate_01d(cls),
                "n_samples": m.n_samples,
            }


def evaluate_dataset(detections_by_scene, gt_by_scene, registry) -> PoseMetricsReport:
    """Aggregate per-object distances over scenes.

    detections_by_scene: per scene, a list of InstanceDetection.
    gt_by_scene: per scene, a list of (class_id, RigidTransform).
    Within a scene, each class's detections are matched one-to-one to its GT
    instances, minimising summed ADD(-S) (ADD-S for symmetric objects, ADD
    otherwise) with linear_sum_assignment. A GT instance left without a
    detection counts as a miss at every threshold via an infinite distance.
    """
    per_object: dict = {}
    diameters: dict = {}
    for detections, gts in zip(detections_by_scene, gt_by_scene):
        for cls in dict.fromkeys(c for c, _ in gts):
            model = registry.lookup(cls)
            if cls not in per_object:
                per_object[cls] = ObjectMetrics(class_id=cls, symmetric=model.symmetric)
                diameters[cls] = model.diameter
            truths = [pose for c, pose in gts if c == cls]
            preds = [d.pose for d in detections if d.class_id == cls]
            matched, other = (add_s, add) if model.symmetric else (add, add_s)
            cost = np.array([[matched(gt, p, model) for p in preds] for gt in truths])
            pairs = dict(zip(*linear_sum_assignment(cost)))
            for i, gt in enumerate(truths):
                if i in pairs:  # the matched pair's cost entry is reused, not recomputed
                    first, second = float(cost[i, pairs[i]]), other(gt, preds[pairs[i]], model)
                else:
                    first = second = np.inf
                per_object[cls].add_values.append(second if model.symmetric else first)
                per_object[cls].add_s_values.append(first if model.symmetric else second)
    return PoseMetricsReport(per_object=per_object, diameters=diameters)


def report_to_csv(report: PoseMetricsReport, path) -> None:
    """One line per rows() entry under a header of its keys; floats to 6 decimals."""
    rows = list(report.rows())
    lines = [",".join(rows[0])] if rows else []
    for row in rows:
        lines.append(",".join(f"{v:.6f}" if isinstance(v, float) else str(v) for v in row.values()))
    write_atomic(path, "".join(line + "\n" for line in lines))


def distances_to_json(report: PoseMetricsReport, path) -> None:
    payload = {
        str(cls): {
            "symmetric": m.symmetric,
            "add": [float(v) for v in m.add_values],
            "add_s": [float(v) for v in m.add_s_values],
        }
        for cls, m in report.per_object.items()
    }
    write_json(path, payload)
