"""Shared pieces of the benchmark: locating the checkout's sources, the scene
recipe, and the harness's own one-to-one pose scoring.

Importing this module puts ``<checkout>/src`` first on ``sys.path`` so that
``equipose`` is always the copy in the checkout under test, never an
installed one. It exits with an error when that copy is missing.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
CHECKPOINT = BENCH_DIR / "checkpoint" / "crit8.params"

if not (SRC / "equipose" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no equipose sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
from scipy.optimize import linear_sum_assignment  # noqa: E402

import equipose  # noqa: E402
from equipose import metrics  # noqa: E402
from equipose.synth import Registry, SceneConfig, make_default_models  # noqa: E402

if Path(equipose.__file__).resolve().parent != SRC / "equipose":
    raise SystemExit(f"perfbench: imported equipose from {equipose.__file__}, not {SRC}")

# The acceptance suite's scene recipe (criteria 8 and 9): ~434 points per
# single-instance scene.
SCENE_RECIPE = SceneConfig(
    noise_sigma=0.002,
    occlusion=(0.0, 0.3),
    n_background=50,
    max_object_points=450,
    background_margin=0.10,
)

# Criterion 8 trains on scene seeds [TRAIN_SEED0, TRAIN_SEED0 + 500).
TRAIN_SEED0 = 10_000
HELD_OUT_SEED0 = 90_000


def object_family():
    """The acceptance object family (box, cylinder, blob) and its registry."""
    objects = make_default_models(seed=0, n_vertices=600)
    return objects, Registry(objects)


def pose_is_finite(pose) -> bool:
    return bool(np.all(np.isfinite(pose.rotation.m)) and np.all(np.isfinite(pose.translation)))


def one_to_one_hits(detections, gt_poses, registry) -> list:
    """Per GT instance, whether it is matched one-to-one, within its class, to
    a detection whose ADD(-S) is below 0.1 diameter. Matching minimises summed
    ADD(-S) (ADD-S for symmetric objects, ADD otherwise) with
    linear_sum_assignment."""
    hit = [False] * len(gt_poses)
    for cls in sorted({c for c, _ in gt_poses}):
        model = registry.lookup(cls)
        index = [i for i, (c, _) in enumerate(gt_poses) if c == cls]
        dets = [d for d in detections if d.class_id == cls]
        if not dets:
            continue
        distance = metrics.add_s if model.symmetric else metrics.add
        cost = np.array([[distance(gt_poses[i][1], d.pose, model) for d in dets] for i in index])
        rows, cols = linear_sum_assignment(cost)
        for r, c in zip(rows, cols):
            hit[index[r]] = bool(cost[r, c] < 0.1 * model.diameter)
    return hit


def close_pairs(gt_poses, registry, radius: float) -> list:
    """Per GT instance, whether another instance of its class has its true
    centre within `radius`. Grouping by center votes may merge such a pair,
    even with oracle heads, because the scene generator lets instances
    interpenetrate."""
    centres = [pose.apply(registry.lookup(c).center[None])[0] for c, pose in gt_poses]
    return [
        any(
            j != i and gt_poses[j][0] == c and np.linalg.norm(centres[j] - centres[i]) < radius
            for j in range(len(gt_poses))
        )
        for i, (c, _) in enumerate(gt_poses)
    ]
