"""Machine-speed calibration for the timed runs.

On a shared machine the speed of one core drifts by 20-40 % within seconds
as other tenants come and go; raw wall times then say more about the
neighbours than about pptgeo.  The timed run therefore times a fixed loop of
small NumPy work, which does not touch pptgeo, between ops (at most every
CALIBRATE_EVERY_S).  Each op's wall time is divided by the
machine's relative speed while it ran: the median loop time of the samples
taken from WINDOW_S before the op started to WINDOW_S after it ended, over
REFERENCE_S.  Reported times thus read as on a machine where the loop takes
REFERENCE_S.  The raw figures are printed too.
"""
from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

CALIBRATE_EVERY_S = 0.1
WINDOW_S = 0.15
REFERENCE_S = 1.75e-3    # loop time defining the reported time scale


class Calibration:
    """The loop mixes what the workloads spend their time on: one SVD of a
    162 x 81 matrix, and small hermitian-matrix arithmetic, einsum and 3 x 3
    eigensolves called from Python.  Measured on the shared VM the benchmark
    was built on, over a 150-s window, the log-log slope of the workloads'
    op time against this loop's time was 0.9-1.1 (correlation above 0.99 on
    25-sample averages); a pure eigh-and-Python loop gave slopes of 1.2-1.3."""

    def __init__(self):
        rng = np.random.default_rng(0)
        M = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        self._A = (M + M.conj().T) / 2
        self._S = rng.normal(size=(162, 81))
        self._T = rng.normal(size=(3, 3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3, 3))
        self._e = rng.normal(size=3) + 0j
        self._iu = np.triu_indices(9, k=1)
        self.times: list[float] = []        # sample end times, increasing
        self.loop_s: list[float] = []

    def _loop(self) -> None:
        A, iu = self._A, self._iu
        np.linalg.svd(self._S, compute_uv=False)
        for _ in range(30):
            H = np.zeros((9, 9), dtype=complex)
            H[iu] = 1.0
            Z = A @ H @ A - H
            np.concatenate([np.diag(Z).real, Z[iu].real, Z[iu].imag])
            np.linalg.eigh(np.einsum("j,ijkl,l->ik", self._e, self._T, self._e))

    def sample(self) -> None:
        # The first pass refills caches that the op before it (in cli_cold,
        # a whole child process) evicted; only the second is timed.
        self._loop()
        start = time.perf_counter()
        self._loop()
        end = time.perf_counter()
        self.times.append(end)
        self.loop_s.append(end - start)

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= CALIBRATE_EVERY_S:
            self.sample()

    def slowdown(self, start: float, end: float) -> float:
        """Median loop time over REFERENCE_S for the samples within WINDOW_S
        of [start, end]; the nearest sample when none is."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:
            lo, hi = max(0, lo - 1), max(1, lo)
        return statistics.median(self.loop_s[lo:hi]) / REFERENCE_S
