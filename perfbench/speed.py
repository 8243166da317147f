"""Machine-speed reference: scale timings to a nominal host speed.

On a shared host, neighbours slow every CPU-bound step of the program
together, by up to 40% and within seconds.  A short fixed numpy/scipy
kernel shaped like the pipeline's hot path (binary morphology,
labelling, filtering, percentiles, a float32 matmul) is timed before and
after every timed operation, and the operation's wall time is multiplied
by ``REFERENCE_S`` over the mean of the two kernel times: the time the
operation would take on a host where the kernel takes ``REFERENCE_S``.
The kernel never calls the program, so a faster program cannot speed it
up; raw wall times stay in the detail report.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import ndimage

# Kernel time on a quiet 2-CPU x86 sandbox.  Fixed, so scaled times compare
# across runs and commits.
REFERENCE_S = 0.03
REPEATS = 4


class ReferenceKernel:
    """Times the reference kernel on fixed, seed-independent inputs."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.image = ndimage.gaussian_filter(rng.random((256, 256)), 3).astype(np.float32)
        self.mask = self.image > np.percentile(self.image, 70)
        self.a = rng.random((256, 128)).astype(np.float32)
        self.b = rng.random((128, 128)).astype(np.float32)

    def __call__(self) -> float:
        """Seconds one run of the kernel took."""
        start = time.perf_counter()
        for _ in range(REPEATS):
            ndimage.binary_erosion(self.mask, iterations=2)
            ndimage.binary_dilation(self.mask, iterations=3)
            ndimage.binary_opening(self.mask)
            ndimage.label(self.mask)
            ndimage.gaussian_filter(self.image, 1.5)
            np.percentile(self.image[self.mask], [10, 50, 90])
            self.a @ self.b
        return time.perf_counter() - start


def scaled(wall_s: float, kernel_before: float, kernel_after: float) -> float:
    """``wall_s`` at reference speed, from the kernel times around it."""
    return wall_s * REFERENCE_S / ((kernel_before + kernel_after) / 2)
