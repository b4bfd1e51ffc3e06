"""The benchmark traces equipose functions and methods by name; its self-test
fails when a refactor renames or re-signatures one of them."""

import inspect
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from equipose import pipeline

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


@pytest.mark.parametrize(
    "x, k",
    [
        (np.random.default_rng(0).normal(0.0, 0.005, size=(30, 3)), 1),
        (np.vstack([np.zeros((20, 3)), np.ones((10, 3))]), 2),
        (np.zeros((0, 3)), 0),
    ],
    ids=["one_mode", "two_modes", "empty"],
)
def test_mean_shift_modes_keeps_the_traced_contract(x, k):
    # the tracer binds the call's arguments by name, reads x and max_seeds,
    # and counts the modes as len(result[0]): the fast form of the self-test's check
    signature = inspect.signature(pipeline.mean_shift_modes)
    assert list(signature.parameters) == ["x", "bandwidth", "max_iter", "max_seeds"]
    bound = signature.bind(x, 0.02)
    bound.apply_defaults()
    assert bound.arguments["x"] is x and isinstance(bound.arguments["max_seeds"], int)
    result = pipeline.mean_shift_modes(x, 0.02)
    assert isinstance(result, tuple) and len(result) == 2
    modes, counts = result
    assert modes.dtype == np.float64 and modes.shape == (k, 3)
    assert np.issubdtype(counts.dtype, np.integer) and counts.shape == (k,)

