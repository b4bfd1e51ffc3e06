"""Regenerate the checkpoint the infer-net workload loads.

Reproduces acceptance criterion 8: 500 SCENE_RECIPE scenes from seed 10000,
ModelConfig(n_classes=4) initialised with seed 1, and
TrainConfig(epochs=8, seed=2, lr_decay=0.7). It then scores 100 held-out
scenes (seeds 90000-90099) with the full pipeline and writes the checkpoint
only if the one-to-one ADD(-S) < 0.1 diameter hit rate is at least 90%.

Usage, from the root of the repository (about four minutes on two cores):

    python3 perfbench/make_checkpoint.py [--out perfbench/checkpoint/crit8.params]
"""

from __future__ import annotations

import argparse
import sys
import time

from common import (
    CHECKPOINT,
    HELD_OUT_SEED0,
    SCENE_RECIPE,
    TRAIN_SEED0,
    object_family,
    one_to_one_hits,
)
from equipose.model import ModelConfig, init_model, save_model
from equipose.pipeline import run_pipeline
from equipose.synth import render_scene
from equipose.train import TrainConfig, train

MIN_HIT_RATE_PCT = 90.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(CHECKPOINT))
    args = parser.parse_args(argv)

    started = time.monotonic()
    objects, registry = object_family()
    scenes = [render_scene(objects, SCENE_RECIPE, seed=TRAIN_SEED0 + i) for i in range(500)]
    model = init_model(ModelConfig(n_classes=4), seed=1)
    history = train(scenes, model, TrainConfig(epochs=8, seed=2, lr_decay=0.7))
    trained = time.monotonic() - started

    held_out = [render_scene(objects, SCENE_RECIPE, seed=HELD_OUT_SEED0 + i) for i in range(100)]
    hits = total = 0
    for scene in held_out:
        detections = run_pipeline(scene.cloud, model, registry)
        hits += sum(one_to_one_hits(detections, scene.gt_poses, registry))
        total += len(scene.gt_poses)
    rate = 100.0 * hits / total
    n_params = sum(p.value.size for p in model.params())
    print(
        f"trained {len(history.reports)} steps in {trained:.0f}s, descent "
        f"{'ok' if history.descent_ok else 'FAILED'}, {n_params} parameters, "
        f"one-to-one hit rate {rate:.1f}% over {total} held-out instances"
    )
    if not history.descent_ok or rate < MIN_HIT_RATE_PCT:
        print("checkpoint NOT written: check failed", file=sys.stderr)
        return 1
    save_model(model, args.out)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
