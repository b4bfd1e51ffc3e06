"""The process's glibc malloc policy, set once when equipose is imported.

A training step frees temporaries of about 1 MB each. Under glibc's default,
dynamic thresholds those blocks go back to the OS when freed (by munmap, or
by trimming the top of the heap), and the next step faults the same pages in
again, one minor fault per page. Two fixed thresholds keep them in the heap
for reuse. Setting either threshold also switches off glibc's dynamic mmap
threshold. A user who has set either one through the environment keeps it:
that is the way to opt out (see README, "Notes").
"""

from __future__ import annotations

import ctypes
import os
import platform

# mallopt(3) parameter numbers, from glibc's <malloc.h>.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

# Free memory at the top of the heap stays mapped up to this much, so a step's
# freed temporaries are reused rather than returned and faulted in again.
TRIM_THRESHOLD = 256 << 20
# glibc's own 64-bit DEFAULT_MMAP_THRESHOLD_MAX, the ceiling of its dynamic
# threshold and the largest value mallopt accepts: blocks below it come from
# the heap, larger ones still get a mapping of their own.
MMAP_THRESHOLD = 32 << 20

_ENV_SETTINGS = ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_")
_TUNABLES = ("glibc.malloc.trim_threshold", "glibc.malloc.mmap_threshold")


def user_set_threshold(environ) -> bool:
    """Whether the environment already sets a trim or mmap threshold."""
    if any(name in environ for name in _ENV_SETTINGS):
        return True
    entries = environ.get("GLIBC_TUNABLES", "").split(":")  # name=value:name=value
    return any(entry.partition("=")[0] in _TUNABLES for entry in entries)


def apply() -> None:
    """Set both thresholds, on glibc, unless the user has set either one."""
    if platform.libc_ver()[0] != "glibc" or user_set_threshold(os.environ):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
