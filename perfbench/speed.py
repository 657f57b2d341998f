"""Machine-speed probe: time metrics are reported at a nominal machine speed.

On a shared 2-vCPU VM the same benchmark work ran up to 1.65x slower for
minutes at a time, switching between a fast and a slow state mid-set (an
``optimize_models`` pass took 8.5-9.9 s for four runs, then 14-15.7 s for
the next six).  Every workload therefore samples a fixed probe between its
operations: dict, tuple, object and small-numpy work in plain Python that
calls no project code, so a change to the program cannot move it.  The
end-to-end time metrics are scaled by ``NOMINAL_SECONDS`` over the probe's
interquartile mean, that is, reported as seconds on a machine where the
probe takes ``NOMINAL_SECONDS``.  Raw wall times are printed next to them and
kept in the run details.

The interquartile mean ignores single probes hit by an interruption, as a
median would.  Like a mean, it also follows a machine that alternates
between its states during a run.  On two ten-run scratch sets per workload,
it kept every ``op_s`` spread (quartile distance over median) at or below
0.16.  There, raw wall time reached 0.32 and the probe median 0.255.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Probe seconds on the 2-vCPU x86 VM the benchmark was calibrated on, in
#: its slower (common) state.
NOMINAL_SECONDS = 0.018


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value: int, following: "_Node | None"):
        self.value = value
        self.next = following


def probe_once() -> float:
    """Seconds one fixed round of interpreter and small-numpy work takes."""
    start = time.perf_counter()
    for _ in range(3):
        table: dict[tuple, int] = {}
        node = None
        for i in range(5000):
            key = (i % 61, i % 7, "k")
            table[key] = table.get(key, 0) + 1
            node = _Node(i, node)
        total = 0
        while node is not None:
            total += node.value
            node = node.next
        array = np.arange(32.0)
        for _ in range(300):
            array = np.maximum(array * 0.5, 1.0) + float(array.sum()) * 1e-6
    return time.perf_counter() - start


class SpeedProbe:
    """Probe samples of one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(probe_once())

    def seconds(self) -> float:
        """Wall seconds spent probing so far."""
        return sum(self.samples)

    def slowdown(self) -> float:
        """Interquartile mean of the probe times over the nominal: above 1
        on a slower machine."""
        ordered = sorted(self.samples)
        quarter = len(ordered) // 4
        middle = ordered[quarter : len(ordered) - quarter]
        return statistics.fmean(middle) / NOMINAL_SECONDS
