"""The paired-run tool: its per-metric summary, and the tool end to end on
its smallest run, one pair of 1 s runs of the working tree against HEAD."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def in_git_checkout() -> bool:
    if shutil.which("git") is None:
        return False
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True).returncode == 0


@pytest.mark.skipif(not in_git_checkout(), reason="needs a git checkout with a HEAD")
def test_one_pair_against_head(tmp_path):
    out = tmp_path / "BENCH.json"
    argv = ["--base", "HEAD", "--workload", "infer-oracle-x3", "--pairs", "1", "--seconds", "1", "--out", str(out)]
    subprocess.run([sys.executable, str(ROOT / "tools" / "bench_pairs.py"), *argv], check=True, capture_output=True)
    report = json.loads(out.read_text())
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    assert report["revisions"] == {"base": head, "change": head}
    keys = {"workload", "seconds", "revisions", "change_status_porcelain_sha256"}
    assert keys | {"pairs", "metrics", "environment"} == set(report)
    (pair,) = report["pairs"]
    assert pair["base"]["correct"] and pair["change"]["correct"]
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert sorted(report["metrics"]) == sorted(names) == sorted(pair["base"]["metrics"])
    for summary in report["metrics"].values():
        assert summary["pairs"] == 1 and summary["change_wins"] + summary["base_wins"] <= 1
        assert summary["base"]["q1"] <= summary["base"]["median"] <= summary["base"]["q3"]
        assert summary["ratio"]["q1"] == summary["ratio"]["median"] == summary["ratio"]["q3"] > 0.0
    assert set(report["environment"]) == {"base", "change"}


def test_summary_follows_each_metrics_direction():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    values = [(1.0, 2.0), (3.0, 3.0), (5.0, 4.0), (7.0, 6.0), (9.0, 10.0), (11.0, 8.0)]  # (base, change)
    pairs = [{side: {"metrics": {"t": v, "r": v}} for side, v in zip(("base", "change"), pair)} for pair in values]
    end_to_end = [{"name": "t", "unit": "ms", "better": "lower"}, {"name": "r", "unit": "/s", "better": "higher"}]
    out = bench_pairs.compare(pairs, end_to_end)
    assert out["t"]["base"] == {"median": 6.0, "q1": 3.5, "q3": 8.5}
    assert out["t"]["change"] == {"median": 5.0, "q1": 3.25, "q3": 7.5}
    assert (out["t"]["change_wins"], out["t"]["base_wins"]) == (3, 2)  # the tie counts for neither
    assert (out["r"]["change_wins"], out["r"]["base_wins"]) == (2, 3)
    assert out["t"]["pairs"] == 6
    # change/base per pair: 2, 1, 0.8, 6/7, 10/9, 8/11, whatever the direction
    ratio = {"median": (6 / 7 + 1.0) / 2, "q1": 0.8 + 0.25 * (6 / 7 - 0.8), "q3": 1.0 + 0.75 * (10 / 9 - 1.0)}
    assert out["t"]["ratio"] == pytest.approx(ratio, rel=1e-15)
    assert out["r"]["ratio"] == out["t"]["ratio"]
