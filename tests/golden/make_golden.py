"""Regenerate tests/golden/detections.json, the second stage's golden numbers.

The file holds the `InstanceDetection.to_dict()` detections of the first 8
scenes of each seed-1 infer pool of perfbench: oracle heads on three-instance
acceptance scenes, and the committed criterion-8 checkpoint
(perfbench/checkpoint/crit8.params, only read) on single-instance ones.
tests/test_golden.py compares the code's detections with it.

    python tests/golden/make_golden.py

A change that means to move these numbers regenerates the file and says so.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
for path in (ROOT / "tests", ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from equipose.files import write_json  # noqa: E402
from equipose.model import load_model  # noqa: E402
from equipose.pipeline import run_pipeline  # noqa: E402
from equipose.synth import Registry, make_default_models, render_scene  # noqa: E402
from test_acceptance import SCENE_RECIPE  # noqa: E402

GOLDEN = HERE / "detections.json"
CHECKPOINT = ROOT / "perfbench" / "checkpoint" / "crit8.params"
SCENES = 8
# perfbench's scene seed i of a seed-1 run: 1_000_000 + 1000 * seed + i
SCENE_SEED0 = 1_001_000


def golden_detections() -> dict:
    """Per pool, the detections of each scene as to_dict() lists."""
    objects = make_default_models(seed=0, n_vertices=600)
    registry = Registry(objects)
    three = dataclasses.replace(SCENE_RECIPE, n_instances=3)
    oracle, net = [], []
    model = load_model(CHECKPOINT)
    for i in range(SCENES):
        scene = render_scene(objects, three, seed=SCENE_SEED0 + i)
        found = run_pipeline(scene.cloud, None, registry, oracle=(scene.labels, scene.gt_offsets))
        oracle.append([d.to_dict() for d in found])
        scene = render_scene(objects, SCENE_RECIPE, seed=SCENE_SEED0 + i)
        net.append([d.to_dict() for d in run_pipeline(scene.cloud, model, registry)])
    return {"scene_seed0": SCENE_SEED0, "oracle_x3": oracle, "net": net}


if __name__ == "__main__":
    write_json(GOLDEN, golden_detections())
    print(f"wrote {GOLDEN}")
