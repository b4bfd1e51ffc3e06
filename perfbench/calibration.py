"""Host-speed calibration for the timed loop.

On a shared two-core machine the same op on the same input was measured
anywhere from 290 to 440 ms within a few minutes, and CPU time tracked wall
time, so the host itself ran slower, not the process waiting. A fixed
reference kernel run between ops slows down with it: the op/reference ratio
stayed within about 5% over the same period. The benchmark therefore
reports times scaled to a host on which the reference kernel takes
REFERENCE_MS, and keeps the raw times in its detailed result.

The kernel is benchmark code, never equipose code, so no change to the
library can move it. It mixes what the library's ops spend their time on:
broadcast elementwise arithmetic, a boolean-matrix product, a KD-tree
query, batched small matmuls, a tensordot and interpreter work.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.spatial import cKDTree

# Median kernel time, one BLAS thread, on the machine the bounds were set on:
# a 2-vCPU "Intel(R) Xeon(R) Processor" with OpenBLAS 0.3.31.
REFERENCE_MS = 7.0
# A scale factor is the median over this many of the latest kernel timings.
WINDOW = 5


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._points = rng.normal(size=(600, 3))
        self._seeds = self._points[::4].copy()
        self._vectors = rng.normal(size=(430, 32, 3))
        self._weights = rng.normal(size=(32, 32))
        self.samples_ms: list = []
        self.last = -float("inf")
        for _ in range(3):  # first calls pay for page faults and lazy set-up
            self._kernel()

    def _kernel(self):
        d2 = ((self._seeds[:, None, :] - self._points[None, :, :]) ** 2).sum(axis=-1)
        within = d2 <= 1.0
        modes = (within @ self._points) / np.maximum(within.sum(axis=1), 1)[:, None]
        _, neighbours = cKDTree(self._points).query(self._points, k=17)
        q = np.matmul(self._weights, self._vectors)
        k = np.matmul(self._weights.T, self._vectors)
        dots = np.sum(q * k, axis=-1)
        grad = np.tensordot(q, self._vectors, axes=[(0, 2), (0, 2)])
        total = 0.0
        for i in range(3000):
            total += i * 0.5
        return modes, neighbours, dots, grad, total

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            started = time.perf_counter()
            self._kernel()
            self.last = time.perf_counter()
            self.samples_ms.append((self.last - started) * 1e3)

    def scale(self) -> float:
        """Factor that turns a time measured now into one at REFERENCE_MS speed."""
        return REFERENCE_MS / statistics.median(self.samples_ms[-WINDOW:])
