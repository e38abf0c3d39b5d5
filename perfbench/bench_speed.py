"""Host-speed reference for the benchmark's timing metrics.

The shared 2-core host the benchmark was tuned on changes speed by 10-40 %
over tens of seconds for identical work, in CPU time as well as wall time.
A fixed kernel that does not touch ``rotalign`` (small numpy operations and
Python object churn, like the program's hot paths) runs in short batches
between the measured operations and the set-ups.  Each time is scaled by
NOMINAL_S over the median time of one kernel call within WINDOW_S of it, so
it reads as a time on a host where the kernel takes NOMINAL_S.  A change to
the program changes the metrics; a change of the host's speed mostly does
not.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

import bench_inputs as bi

NOMINAL_S = 1e-3    # about the kernel's time on the tuning host
EVERY_S = 0.25      # probe at most this often
BATCH = 10          # kernel calls per probe
WINDOW_S = 2.5      # probes this close to a time set its scale


def kernel() -> float:
    rng = np.random.default_rng(0)
    weights = np.ones(9)
    total = 0.0
    for _ in range(24):
        rotation = bi.rodrigues(rng.standard_normal(3), 1.0)
        values = rng.uniform(-1.0, 1.0, (9, 3))
        total += bi.relative_misfit(values, values, rotation, weights)
        total += sum({i: 1.5 * i for i in range(30)}.values())
    return total


class HostSpeed:
    """Kernel timings taken through a run."""

    def __init__(self):
        self.times: list[float] = []     # perf_counter at the end of a probe
        self.samples: list[float] = []   # seconds per kernel call

    def probe(self) -> None:
        start = time.perf_counter()
        for _ in range(BATCH):
            kernel()
        end = time.perf_counter()
        self.times.append(end)
        self.samples.append((end - start) / BATCH)

    def maybe_probe(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= EVERY_S:
            self.probe()

    def scale(self, at: float | None = None) -> float:
        """Factor that turns a time taken at perf_counter ``at`` into a
        nominal-host time; over the whole run when ``at`` is None."""
        near = self.samples
        if at is not None:
            lo = bisect.bisect_left(self.times, at - WINDOW_S)
            hi = bisect.bisect_right(self.times, at + WINDOW_S)
            near = self.samples[lo:hi] or self.samples
        return NOMINAL_S / statistics.median(near)
