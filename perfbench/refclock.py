"""A reference kernel, timed next to every op, that gives the host's speed.

On a shared host the same op's wall time drifts by 20-30% from one
half-minute to the next, and CPU time drifts with it: the process is not
descheduled, the core just runs slower.  A fixed kernel timed right before
and right after an op slows down with it, so an op's wall time divided by
the kernel's time there is steady to a few percent.

The kernel is pure Python and shares no code with xsat: a Fraction
Gauss-Jordan reduction of a fixed 0/1 matrix with three ones per row, and
an integer Gray-code loop, the two kinds of work the workloads' ops do.  A
change to xsat cannot make it faster or slower.

An op's time in reference milliseconds (``ref-ms``) is its wall time times
``REF_MS`` over the mean of the kernel times around it.  ``REF_MS`` is
about the kernel's median wall time on a 2-vCPU Intel Xeon host with
CPython 3.11, so reference ms read close to wall ms there.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

REF_MS = 40.0

_SIZE = 30
_GRAY_STEPS = 40_000


def _matrix() -> list[list[int]]:
    rng = random.Random("perfbench-refclock")
    rows = []
    for _ in range(_SIZE):
        row = [0] * _SIZE
        for v in rng.sample(range(_SIZE), 3):
            row[v] = 1
        rows.append(row)
    return rows


_MATRIX = _matrix()


def _eliminate() -> int:
    m = [[Fraction(x) for x in row] for row in _MATRIX]
    rank = 0
    for col in range(_SIZE):
        pivot = next((i for i in range(rank, _SIZE) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(_SIZE):
            if i != rank and m[i][col]:
                g = m[i][col]
                m[i] = [a - g * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _gray_walk() -> int:
    acc = state = 0
    for i in range(1, _GRAY_STEPS):
        state ^= 1 << ((i & -i).bit_length() - 1)
        acc += (state * 2654435761) & 0xFF
    return acc


def kernel_s() -> float:
    """Wall time of one run of the reference kernel, in seconds."""
    t0 = time.perf_counter()
    _eliminate()
    _gray_walk()
    return time.perf_counter() - t0
