"""The machine's speed at this moment, from fixed work that does not touch firebreak.

On a shared virtual machine the CPU's throughput moves between levels up to
2x apart, for seconds to minutes at a time, and a pass or a set-up takes
longer in a slow stretch for no reason in the program.  The benchmark times
this kernel right before and right after each pass and each set-up, and
rescales that pass or set-up to a machine on which the kernel takes
``REFERENCE_S`` seconds.  The whole run is pinned to one CPU, so that the
kernel measures the CPU the work ran on.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction

import numpy as np

# the kernel's time on a 2-vCPU x86-64 VM in its faster stretches; it only
# sets the scale of the rescaled figures
REFERENCE_S = 0.02

_SOURCE = np.zeros((800, 800), dtype=bool)
_SOURCE[0, 0] = True
_OPEN = np.ones((800, 800), dtype=bool)


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def kernel_seconds() -> float:
    """Wall time of the kernel: the two kinds of work the workloads do, in fixed amounts.

    Fraction and dict arithmetic in the interpreter (as in the exact
    simulation), then whole-grid boolean numpy steps (as in the oracle BFS).
    """
    start = time.perf_counter()
    x, table = Fraction(1, 3), {}
    for i in range(3000):
        x = x * Fraction(3, 2) if i % 3 else x / 7 + 1
        table[i % 97] = table.get(i % 97, 0) + i * i
    frontier = _SOURCE
    for _ in range(20):
        step = np.zeros_like(frontier)
        step[1:] |= frontier[:-1]
        step[:-1] |= frontier[1:]
        step[:, 1:] |= frontier[:, :-1]
        step[:, :-1] |= frontier[:, 1:]
        step &= _OPEN
        frontier = step
    return time.perf_counter() - start


def rescale(seconds: float, before: float, after: float) -> float:
    """``seconds`` of work between two kernel timings, at the reference speed."""
    return seconds * REFERENCE_S / ((before + after) / 2)
