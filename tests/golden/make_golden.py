"""Regenerate the golden numbers under tests/golden/:

- detections.json, the second stage's: the `InstanceDetection.to_dict()`
  detections of the first 8 scenes of each seed-1 infer pool of perfbench:
  oracle heads on three-instance acceptance scenes, and the committed
  criterion-8 checkpoint (perfbench/checkpoint/crit8.params, only read) on
  single-instance ones.
- training.json, training's: 25 `train.train_step` calls of each perfbench
  train workload's configuration at seed 1 on its seed-1 scene pool, in the
  draw order of the workload's op: the total loss of each step, and each
  tensor's sum and max |.| after the last step.

tests/test_golden.py compares the code's numbers with both files.

    python tests/golden/make_golden.py

Run as a script, it pins BLAS to one thread, as perfbench/run.py does: the
last bits of both files depend on the thread count, so every regeneration
uses the same one. A change that means to move these numbers regenerates the
files and says so.
"""

from __future__ import annotations

import dataclasses
import os
import sys
from pathlib import Path

# Must precede the first import of numpy; an importing test keeps its own.
if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
for path in (ROOT / "tests", ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from equipose.files import write_json  # noqa: E402
from equipose.geometry import sample_uniform_rotation  # noqa: E402
from equipose.layers import named_params  # noqa: E402
from equipose.model import ModelConfig, PoseModel, init_model, load_model  # noqa: E402
from equipose.pipeline import run_pipeline  # noqa: E402
from equipose.synth import Registry, make_default_models, render_scene  # noqa: E402
from equipose.train import TrainConfig, make_optimizer, scene_tensors, train_step  # noqa: E402
from test_acceptance import SCENE_RECIPE  # noqa: E402

GOLDEN = HERE / "detections.json"
TRAINING = HERE / "training.json"
CHECKPOINT = ROOT / "perfbench" / "checkpoint" / "crit8.params"
SCENES = 8
# perfbench's scene seed i of a seed-1 run: 1_000_000 + 1000 * seed + i
SCENE_SEED0 = 1_001_000
SEED = 1
STEPS = 25
# perfbench's train workloads: (batch_norm, batch_size), each on a 64-scene pool
TRAIN_WORKLOADS = {"train": (False, 1), "train-bn-b4": (True, 4)}
TRAIN_POOL = 64


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


def _batches(n: int, batch_size: int, rng):
    while True:
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            yield order[start : start + batch_size]


def golden_training() -> dict:
    """Per train workload, the loss of each step and {name: {sum, max_abs}}
    of every tensor after STEPS steps."""
    objects = make_default_models(seed=0, n_vertices=600)
    scenes = [render_scene(objects, SCENE_RECIPE, seed=SCENE_SEED0 + i) for i in range(TRAIN_POOL)]
    # the lift reads only the lift settings, which both configurations share
    lifter = PoseModel(ModelConfig(n_classes=4))
    tensors = [scene_tensors(s, lifter) for s in scenes]
    out = {"scene_seed0": SCENE_SEED0, "steps": STEPS}
    for name, (batch_norm, batch_size) in TRAIN_WORKLOADS.items():
        model = init_model(ModelConfig(n_classes=4, batch_norm=batch_norm), seed=SEED)
        cfg = TrainConfig(batch_size=batch_size, seed=SEED)
        opt = make_optimizer(model, cfg)
        rng = np.random.default_rng(SEED)
        batches = _batches(len(tensors), batch_size, rng)
        losses = []
        for _ in range(STEPS):
            batch = [tensors[i] for i in next(batches)]
            losses.append(float(train_step(model, opt, batch, cfg, sample_uniform_rotation(rng)).total))
        out[name] = {
            "loss": losses,
            "tensors": {
                key: {"sum": float(p.value.sum()), "max_abs": float(np.abs(p.value).max())}
                for key, p in named_params(model)
            },
        }
    return out


if __name__ == "__main__":
    write_json(GOLDEN, golden_detections())
    print(f"wrote {GOLDEN}")
    write_json(TRAINING, golden_training())
    print(f"wrote {TRAINING}")
