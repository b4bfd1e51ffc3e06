"""Paired benchmark runs: the working tree against a git revision.

Usage, from anywhere in a git checkout:

    python3 tools/bench_pairs.py --base HEAD~1 --workload infer-net --pairs 10 [--seconds 25]

The base side is a detached `git worktree` of --base in a temporary
directory, removed on exit; the change side is the working tree. Pair i runs
both sides at seed i + 1, `perfbench/run.py --trace 0` from each side's own
tree, the base first on even pairs and the change first on odd ones. A run
that exits non-zero or reports incorrect results stops the tool with exit 1
naming that run.

The result goes to BENCH_<workload>.json at the repository root (or --out):
both revisions, the change side's `git status --porcelain` digest, the
sha256 of the change side's `git diff --binary HEAD` (null for a clean tree,
so that a change measured before its commit names the diff it measured),
every pair's end-to-end values with its correct/attempted/failed record,
each metric's median and quartiles per side with the pairs each side won
(the direction is BENCHMARK.json's `better`; ties count for neither), the
median and quartiles of each pair's change/base ratio, whether that shows a
gain, and both sides' environment records. Ten pairs at 25 s take about ten
minutes.

A metric's `gain_shown` is true when at least ten pairs ran, the change won
at least nine tenths of them, and its median is better than the base's by
more than the distance between the base side's quartiles.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def git(*args: str, raw: bool = False):
    """git's stdout, decoded, or its bytes as they are when raw."""
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: git {' '.join(args)} failed: {proc.stderr.decode(errors='replace').strip()}")
    return proc.stdout if raw else proc.stdout.decode()


def run_once(tree: Path, side: str, workload: str, seed: int, seconds: float) -> tuple:
    """One `perfbench/run.py` run in `tree`: (its end-to-end record, its
    environment record), or exit 1 naming the run."""
    result_path = tree / ".perfbench_out" / f"result-{workload}-trace0.json"
    result_path.unlink(missing_ok=True)  # never read an earlier run's file
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), *argv], cwd=tree, capture_output=True, text=True
    )
    name = f"the {side} run at seed {seed} ({tree})"
    if proc.returncode != 0:
        tail = "\n".join((proc.stdout + proc.stderr).splitlines()[-10:])
        raise SystemExit(f"bench_pairs: {name} exited {proc.returncode}:\n{tail}")
    result = json.loads(result_path.read_text())
    if not result["correct"]:
        raise SystemExit(f"bench_pairs: {name} was not correct: {result['problems']}")
    record = {"metrics": {metric: m["value"] for metric, m in result["metrics"].items()}}
    record.update((key, result[key]) for key in ("correct", "attempted", "failed"))
    return record, result["environment"]


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def compare(pairs: list, end_to_end: list) -> dict:
    """Per metric: each side's median and quartiles, the pairs each side won,
    the median and quartiles of the per-pair change/base ratio, and whether
    the pairs show a gain (the module docstring's rule)."""
    out = {}
    for metric in end_to_end:
        name, sign = metric["name"], (1 if metric["better"] == "higher" else -1)
        values = {side: [pair[side]["metrics"][name] for pair in pairs] for side in SIDES}
        deltas = [sign * (c - b) for b, c in zip(values["base"], values["change"])]
        base, change = summary(values["base"]), summary(values["change"])
        change_wins = sum(d > 0 for d in deltas)
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "base": base,
            "change": change,
            "change_wins": change_wins,
            "base_wins": sum(d < 0 for d in deltas),
            "pairs": len(pairs),
            "ratio": summary([c / b for b, c in zip(values["base"], values["change"])]),
            "gain_shown": len(pairs) >= 10
            and 10 * change_wins >= 9 * len(pairs)
            and sign * (change["median"] - base["median"]) > base["q3"] - base["q1"],
        }
    return out


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="paired perfbench runs of the working tree against a revision")
    parser.add_argument("--base", required=True, help="git revision of the base side")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--out", type=Path, default=None, help="default: BENCH_<workload>.json at the root")
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs must be at least 1 and --seconds positive")

    revisions = {
        "base": git("rev-parse", "--verify", f"{args.base}^{{commit}}").strip(),
        "change": git("rev-parse", "HEAD").strip(),
    }
    status, diff = git("status", "--porcelain"), git("diff", "--binary", "HEAD", raw=True)
    pairs, environments = [], {}
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so that the worktree is still removed
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {"base": Path(tmp) / "base", "change": ROOT}
        git("worktree", "add", "--detach", str(trees["base"]), revisions["base"])
        try:
            for i in range(args.pairs):
                seed, order = i + 1, SIDES if i % 2 == 0 else SIDES[::-1]
                runs = {side: run_once(trees[side], side, args.workload, seed, args.seconds) for side in order}
                pairs.append({"seed": seed, "first": order[0], **{side: runs[side][0] for side in SIDES}})
                environments = environments or {side: runs[side][1] for side in SIDES}
                p50 = {side: runs[side][0]["metrics"]["op_ms_p50"] for side in SIDES}
                print(f"pair {i + 1}/{args.pairs} seed {seed}: op_ms_p50 base {p50['base']:.3f} "
                      f"change {p50['change']:.3f}", file=sys.stderr)
        finally:
            git("worktree", "remove", "--force", str(trees["base"]))

    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "revisions": revisions,
        "change_status_porcelain_sha256": hashlib.sha256(status.encode()).hexdigest(),
        "change_diff_sha256": hashlib.sha256(diff).hexdigest() if diff else None,
        "pairs": pairs,
        "metrics": compare(pairs, benchmark["end_to_end"]),
        "environment": environments,
    }
    out = args.out or ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
