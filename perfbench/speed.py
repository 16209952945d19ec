"""Timings at a reference CPU speed.

On a shared host the speed of one CPU drifts by 15-20%, at times by 2x,
over seconds to minutes, and each CPU drifts on its own. Measured on a
2-vCPU x86_64 VM (CPython 3.11), 20 s runs of one unchanged command spread
by 11-19% between runs, which would hide any change to the program.

So each measured child runs pinned to one CPU, between two runs of a fixed
calibration loop on that CPU (the benchmark itself waits on the other CPUs), and its times are multiplied by
``CALIBRATION_REF_S`` over the mean of the two calibrations. Successive
rounds take turns over the CPUs. The loop is pure Python in the style of
the gap-constrained containment test (frozenset subset tests, list
frontiers); a loop that mixed in dict counting and projection lists tracked
the workloads no better. It is part of the benchmark, so no change to
seqmine can move it. The raw times and the calibrations are kept in the
results file.
"""

from __future__ import annotations

import os
import random
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator

# what one calibration takes at the reference speed (about the median on a
# 2-vCPU x86_64 VM with CPython 3.11)
CALIBRATION_REF_S = 0.25


def _calibration_data():
    rng = random.Random(5)
    sequences = [
        tuple(frozenset(rng.sample(range(8), rng.randint(1, 3))) for _ in range(rng.randint(2, 10)))
        for _ in range(400)
    ]
    patterns = [tuple(frozenset([rng.randrange(8)]) for _ in range(3)) for _ in range(180)]
    return sequences, patterns


def _calibration_loop(sequences, patterns) -> int:
    hits = 0
    for pattern in patterns:
        for seq in sequences:
            frontier = [i for i in range(len(seq)) if pattern[0] <= seq[i]]
            for element in pattern[1:]:
                frontier = [
                    j for j in range(frontier[0] + 1, len(seq))
                    if element <= seq[j] and any(j - i <= 3 for i in frontier)
                ] if frontier else []
            hits += bool(frontier)
    return hits


class SpeedScale:
    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self.cpu: int | None = None
        self.calibrations: list[float] = []
        self._turn = 0
        self._data = _calibration_data()

    def next_cpu(self) -> int | None:
        """Pin this process to the next CPU in turn and return it; the next
        measured child is to run there too."""
        if self.cpus:
            self.cpu = self.cpus[self._turn % len(self.cpus)]
            os.sched_setaffinity(0, {self.cpu})
        self._turn += 1
        return self.cpu

    @contextmanager
    def elsewhere(self) -> Iterator[None]:
        """Keep this process off the measured CPU while the child runs, so
        that reading the child's output does not take the child's CPU."""
        others = {c for c in self.cpus if c != self.cpu}
        if others:
            os.sched_setaffinity(0, others)
        try:
            yield
        finally:
            if self.cpu is not None:
                os.sched_setaffinity(0, {self.cpu})

    def calibrate(self) -> float:
        started = perf_counter()
        _calibration_loop(*self._data)
        self.calibrations.append(perf_counter() - started)
        return self.calibrations[-1]

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Multiplier that takes a time measured between two calibrations to
        the reference speed."""
        return CALIBRATION_REF_S / ((before + after) / 2)
