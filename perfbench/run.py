"""equipose benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train --seed 1 --seconds 25 --trace 0

--trace 0 measures the end-to-end metrics; --trace 1 is a separate run that
records spans around equipose's public functions and methods and reports the
per-layer metrics plus the tracing overhead. Metric lines and an environment
record go to standard output; the last line is the JSON result
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 when every
correctness check held and 1 when one did not. Spans, when traced, and the
full result with its environment record are written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys

# One caller, no extra threads: BLAS runs on the calling thread. On a shared
# two-core host, two OpenBLAS threads made single small calls stall for tens
# of milliseconds. This must precede the first import of numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from common import ROOT  # noqa: E402
import environment  # noqa: E402
import harness  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="equipose benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # Any integer is a seed; the library's generators take non-negative ones.
    args.seed %= 2**63
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = harness.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"scenes-{args.workload}-{args.seed}"
    workdir.mkdir(exist_ok=True)
    try:
        run = harness.run(workload, args.seed, args.seconds, workdir, trace=bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = harness.problems(run)
    metrics = harness.per_layer(run) if args.trace else harness.end_to_end(run)
    env = environment.record(args.seed)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "timed_ops": len(run.results),
        "traced_ops": len(run.traced),
        "samples": sum(r.samples for r in run.results),
        "setup_repeats_s": run.setup_s,
        "speed_scale_median": statistics.median(run.scales),
        "unscaled": {k: v for k, (v, _) in harness.end_to_end(run, scaled=False).items()},
        "problems": problems,
        "environment": env,
    }
    if run.tracer is not None:
        run.tracer.write(OUT_DIR / f"spans-{args.workload}.jsonl")

    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(
        f"{detail['timed_ops']} timed ops ({detail['samples']} scenes), "
        f"{detail['traced_ops']} traced, {args.seconds:g}s, seed {args.seed}"
    )
    print("environment " + json.dumps(env, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": len(run.results),
        "failed": harness.failed(run),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(OUT_DIR / f"result-{args.workload}-trace{args.trace}.json", "w") as f:
        json.dump({**detail, **result}, f, indent=1)
        f.write("\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
