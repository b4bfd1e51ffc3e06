"""The malloc policy that importing equipose sets, checked by its effect: freed
arrays are reused instead of being faulted in again, and a threshold the
user set in the environment is left alone."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from equipose import _allocator

SRC = Path(__file__).resolve().parent.parent / "src"

# Minor page faults per iteration while four 1.6 MB arrays are allocated,
# written and freed. Under glibc's dynamic thresholds the freed heap top is
# trimmed and the next iteration faults all of it in again (≈1,500 faults);
# with the policy it stays mapped (≈4).
FAULTS_PER_ITERATION = """
import resource, sys
if sys.argv[1] == "import":
    import equipose
import numpy as np

def loop(n):
    for _ in range(n):
        arrays = [np.ones(200_000) for _ in range(4)]
        del arrays

loop(3)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
loop(100)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 100)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc only")
@pytest.mark.parametrize(
    "imported, env, reused",
    [
        ("import", {}, True),
        ("no-import", {}, False),
        ("import", {"MALLOC_TRIM_THRESHOLD_": "0"}, False),
        ("import", {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=0"}, False),
    ],
    ids=["equipose", "glibc_default", "user_trim_threshold", "user_tunable"],
)
def test_freed_arrays_are_reused_unless_the_user_set_a_threshold(imported, env, reused):
    base = {
        k: v
        for k, v in os.environ.items()
        if k != "GLIBC_TUNABLES" and not k.startswith("MALLOC_")
    }
    base["PYTHONPATH"] = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", FAULTS_PER_ITERATION, imported],
        env={**base, **env},
        capture_output=True,
        text=True,
        check=True,
    )
    faults = float(proc.stdout)
    assert faults < 40 if reused else faults > 1000


@pytest.mark.parametrize(
    "env, user_set",
    [
        ({}, False),
        ({"MALLOC_MMAP_THRESHOLD_": "131072"}, True),
        ({"GLIBC_TUNABLES": "glibc.malloc.check=0:glibc.malloc.mmap_threshold=1"}, True),
        ({"GLIBC_TUNABLES": "glibc.malloc.check=0"}, False),
        ({"MALLOC_ARENA_MAX": "2"}, False),
    ],
)
def test_user_set_threshold_reads_both_spellings(env, user_set):
    assert _allocator.user_set_threshold(env) is user_set
