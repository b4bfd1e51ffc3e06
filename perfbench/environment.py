"""The environment record that goes with every result: CPUs, BLAS and its
thread count, interpreter and library versions, seed and source revision."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform

import numpy as np
import scipy

from common import ROOT, SRC

# Thread-count getters of the OpenBLAS builds numpy and scipy ship with.
_BLAS_THREAD_GETTERS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
)


def blas_threads() -> dict:
    """Loaded BLAS library file name -> its thread count (None when unreadable)."""
    out = {}
    with open("/proc/self/maps") as f:
        paths = {line.split()[-1] for line in f if "openblas" in line.lower() and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        getter = next((getattr(lib, g) for g in _BLAS_THREAD_GETTERS if hasattr(lib, g)), None)
        out[os.path.basename(path)] = int(getter()) if getter is not None else None
    return out


def blas_vendor() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def git_revision() -> str:
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over src/equipose/*.py (names and contents), a revision that
    also exists in a checkout without git metadata."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "equipose").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def record(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_vendor": blas_vendor(),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
    }
