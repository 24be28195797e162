"""A fixed pure-Python reference loop that tracks the speed of a shared machine.

The benchmark runs on a few cores of a shared host, whose speed for the same
code drifts by tens of percent over seconds to minutes as other tenants load
it.  A timed run therefore interleaves short bursts of this loop with its
cases and scales each time it reports by ``REF_BURST_S`` over the burst time
measured around it (``child.py``): a reported time is the time the work would
have taken on the machine as fast as when ``REF_BURST_S`` was fixed.  Raw
times are printed beside the scaled ones.

The loop imports nothing from esos, so no change to the library can move it,
and it does the kinds of work the library does: integer and bitmask
arithmetic, a depth-first search over bitmask adjacency, and dict, set and
tuple churn.  The garbage collector is off during a burst, so a burst never
pays for collecting the heap the benchmark has built, and what it allocates
is freed before it returns.
"""

from __future__ import annotations

import gc
import statistics
import time

# A typical burst time on a 2-core Intel Xeon (Sapphire Rapids) KVM guest
# under Python 3.11.7, where one-second medians of the burst ranged from 1.3
# to 2.4 ms.  Scaled times are in seconds or ms of that machine at that speed.
REF_BURST_S = 2.0e-3

_ADJ = (
    0b00101001010, 0b10010100100, 0b01001010001, 0b10100001010,
    0b01010010101, 0b00101100010, 0b11000010100, 0b01011000001,
    0b00100101010, 0b10011000100, 0b01100011000,
)  # fmt: skip


def _arith() -> int:
    s = 0
    for i in range(5_000):
        s += i * i % 7 ^ (i >> 3)
    return s


def _dfs() -> int:
    best = steps = 0
    stack = [(0, 1, 0)]
    while stack and steps < 1_500:
        v, seen, length = stack.pop()
        steps += 1
        best = max(best, length)
        free = _ADJ[v] & ~seen
        while free:
            low = free & -free
            free ^= low
            stack.append((low.bit_length() - 1, seen | low, length + 1))
    return best


def _churn() -> int:
    counts: dict[int, int] = {}
    pairs = set()
    for i in range(1_000):
        k = i * 7_919 % 1_013
        counts[k] = counts.get(k, 0) + 1
        pairs.add((k, i & 7))
    return len(counts) + len(pairs)


def burst() -> float:
    """Run the reference loop once; return its wall time in seconds."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _arith()
        _dfs()
        _churn()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def speed(samples: int) -> float:
    """Run ``samples`` bursts back to back and return the scale factor,
    ``REF_BURST_S`` over their median: multiply a time measured just before
    by it to express it on the reference machine."""
    return REF_BURST_S / statistics.median(burst() for _ in range(samples))
