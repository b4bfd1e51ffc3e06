"""Regenerate the golden numbers under tests/golden/:

- detections.json, the second stage's: the `InstanceDetection.to_dict()`
  detections of the first 8 scenes of each seed-1 infer pool of perfbench:
  oracle heads on three-instance acceptance scenes, and the committed
  criterion-8 checkpoint (perfbench/checkpoint/crit8.params, only read) on
  single-instance ones.
- training.json, training's: 25 `train.train_step` calls on the state each
  perfbench train workload's own set-up builds at seed 1, drawing batches and
  rotations in the order of the workload's op: the total loss of each step,
  and each tensor's sum and max |.| after the last step.

The scene recipe, object family, seeds, checkpoint and train workloads are
perfbench's (`common` and `harness`), imported, not copied.
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

# Must precede the first import of numpy, here or in perfbench's modules; an
# importing test keeps its own.
if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent.parent / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import harness  # noqa: E402
from common import CHECKPOINT, SCENE_RECIPE, object_family  # noqa: E402
from equipose.files import write_json  # noqa: E402
from equipose.geometry import sample_uniform_rotation  # noqa: E402
from equipose.layers import named_params  # noqa: E402
from equipose.model import load_model  # noqa: E402
from equipose.pipeline import run_pipeline  # noqa: E402
from equipose.synth import render_scene  # noqa: E402
from equipose.train import train_step  # noqa: E402

GOLDEN = HERE / "detections.json"
TRAINING = HERE / "training.json"
SCENES = 8
SEED = 1
STEPS = 25


def golden_detections() -> dict:
    """Per pool, the detections of each scene as to_dict() lists."""
    objects, registry = object_family()
    three = dataclasses.replace(SCENE_RECIPE, n_instances=3)
    oracle, net = [], []
    model = load_model(CHECKPOINT)
    for i in range(SCENES):
        scene = render_scene(objects, three, seed=harness.scene_seed(SEED, i))
        found = run_pipeline(scene.cloud, None, registry, oracle=(scene.labels, scene.gt_offsets))
        oracle.append([d.to_dict() for d in found])
        scene = render_scene(objects, SCENE_RECIPE, seed=harness.scene_seed(SEED, i))
        net.append([d.to_dict() for d in run_pipeline(scene.cloud, model, registry)])
    return {"scene_seed0": harness.scene_seed(SEED, 0), "oracle_x3": oracle, "net": net}


def golden_training() -> dict:
    """Per train workload, the loss of each step and {name: {sum, max_abs}}
    of every tensor after STEPS steps."""
    out = {"scene_seed0": harness.scene_seed(SEED, 0), "steps": STEPS}
    for name, workload in harness.WORKLOADS.items():
        if not isinstance(workload, harness.TrainWorkload):
            continue
        state = workload.setup(SEED, None)
        model, opt, cfg, rng = state["model"], state["opt"], state["cfg"], state["rng"]
        losses = [
            float(train_step(model, opt, next(state["batches"]), cfg, sample_uniform_rotation(rng)).total)
            for _ in range(STEPS)
        ]
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
