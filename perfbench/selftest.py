"""Self-test of the benchmark at tiny sizes, in about a minute.

Checks that every workload reports exactly the metric names and units that
BENCHMARK.json declares, that two traced runs with one seed reproduce the
exact counters bit for bit, and that the infer check fails on a deliberately
corrupted pose. Usage, from the root of the repository:

    python3 perfbench/selftest.py

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys

import numpy as np

from common import ROOT
import harness
from equipose import pipeline
from equipose.geometry import RigidTransform

TINY = {
    "train": {"pool": 3},
    "train-bn-b4": {"pool": 4},
    "infer-oracle-x3": {"pool": 2},
    "infer-net": {"pool": 2},
}
SEED = 7


def declared(section: str) -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def names_and_units(metrics: dict) -> dict:
    return {name: unit for name, (_, unit) in metrics.items()}


def check_workload(name, workload, workdir) -> list:
    failures = []
    plain = harness.run(workload, SEED, 0.2, workdir, trace=False)
    if names_and_units(harness.end_to_end(plain)) != declared("end_to_end"):
        failures.append(f"{name}: end-to-end names or units differ from BENCHMARK.json")
    traced = [harness.run(workload, SEED, 0.0, workdir, trace=True, exact_ops=2) for _ in range(2)]
    layer_metrics = [harness.per_layer(r) for r in traced]
    if names_and_units(layer_metrics[0]) != declared("per_layer"):
        failures.append(f"{name}: per-layer names or units differ from BENCHMARK.json")
    for counter in harness.EXACT_COUNTERS:
        a, b = (m[counter][0] for m in layer_metrics)
        if a != b:
            failures.append(f"{name}: exact counter {counter} differs between runs: {a!r} != {b!r}")
    for r in [plain] + traced:
        if harness.failed(r):
            failures.append(f"{name}: {harness.failed(r)} ops failed: {r.errors[:2]}")
    return failures


def corrupted_pose_fails(workdir) -> list:
    """A pose shifted by 0.5 m must fail the hit-rate gate; a NaN pose must fail the op."""
    workload = dataclasses.replace(harness.WORKLOADS["infer-oracle-x3"], pool=2)
    state = workload.setup(SEED, workdir)
    honest = [workload.op(state, i) for i in range(2)]
    original = pipeline.run_pipeline
    failures = []
    if workload.check(honest) or not all(r.ok for r in honest):
        failures.append("corruption check: the uncorrupted ops already fail")
    for label, shift in (("shifted", 0.5), ("NaN", np.nan)):

        def corrupt(*args, **kwargs):
            detections = original(*args, **kwargs)
            for d in detections:
                d.pose = RigidTransform(d.pose.rotation, d.pose.translation + shift)
            return detections

        pipeline.run_pipeline = corrupt
        try:
            results = [workload.op(state, i) for i in range(2)]
            caught = bool(workload.check(results)) or not all(r.ok for r in results)
        except ValueError:  # the run loop counts an op that raises as failed
            caught = True
        finally:
            pipeline.run_pipeline = original
        if not caught:
            failures.append(f"corruption check: a {label} pose passed the infer check")
    return failures


def main() -> int:
    workdir = ROOT / ".perfbench_out" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    failures = []
    try:
        for name, workload in harness.WORKLOADS.items():
            failures += check_workload(name, dataclasses.replace(workload, **TINY[name]), workdir)
            print(f"{name}: checked")
        failures += corrupted_pose_fails(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in failures:
        print("FAILED: " + failure)
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
