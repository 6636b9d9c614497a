"""The machine's speed over a run, read from a fixed reference loop.

The virtual machines this benchmark runs on change speed by a third or
more for tens of seconds to minutes at a time, with process CPU time
equal to wall time: the processor itself runs slower, so no own-process
timer can tell it apart from a slower engine.  The benchmark therefore
times a fixed piece of pure-Python work (``chunk``) between the
operations it measures, and scales every time it reports by the run's
``factor``: ``REFERENCE_CHUNK_S`` over the chunk's mean time during the
run, each chunk weighted by the time of the operation it followed.  A
reported time is thus "seconds at the reference speed".  The reference
loop is the benchmark's own code, so a change to the engine moves the
reported times in full.

On the machine described in perfbench/README.md, over eight minutes of
2-s product_planar passes with one chunk after each operation, 30-s
means of the pass time spread 0.13 (interquartile range over median)
and followed the chunk with a correlation of 0.98; the scaled means
spread 0.034.  A loop of random reads in a 2-million-item list tracked
worse (0.097).  Over one operation the two do not move together, only
over a run, which is why a run has one factor.

The loop does the kind of work the engine does: tuple-keyed dicts,
sorting, exact fractions, and canonical rotations of small words.  It
runs with the cyclic collector off: it makes no cycles, and a
collection it triggered would scan the engine's heap.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

# The chunk's median time on the machine described in perfbench/README.md.
# Any constant would do: it only fixes the unit of the scaled times.
REFERENCE_CHUNK_S = 0.0150


def chunk() -> int:
    """One fixed piece of work, about 15 ms on the reference machine."""
    counts: dict[tuple, int] = {}
    for i in range(6000):
        key = (i % 97, i % 89, "m")
        counts[key] = counts.get(key, 0) + i * i
    ranked = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    total = Fraction(0)
    for i in range(1, 700):
        total += Fraction(i % 13 + 1, i % 50 + 1)
    rotations: dict[tuple, int] = {}
    for i in range(1500):
        word = tuple((i * j) % 7 for j in range(6))
        canon = min(word[k:] + word[:k] for k in range(len(word)))
        rotations[canon] = rotations.get(canon, 0) + 1
    return len(ranked) + total.denominator + len(rotations)


def timed_chunk() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        chunk()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def current_factor(count: int = 8) -> float:
    """The scale factor at this moment, from a median over ``count`` chunks."""
    timed_chunk()
    return REFERENCE_CHUNK_S / statistics.median(timed_chunk() for _ in range(count))


class Meter:
    """Reference chunks run after each measured operation.

    After an operation of ``seconds``, ``after`` runs chunks for about
    ``share`` of that time, at least one, and keeps their mean weighted
    by ``seconds``.
    """

    def __init__(self, share: float) -> None:
        self.share = share
        self.chunks: list[float] = [timed_chunk()]
        self.weighted = self.weight = 0.0

    def after(self, seconds: float) -> None:
        count = max(1, round(self.share * seconds / self.chunks[-1]))
        now = [timed_chunk() for _ in range(count)]
        self.chunks += now
        self.weighted += seconds * statistics.fmean(now)
        self.weight += seconds

    def factor(self) -> float:
        """Reference chunk time over the run's time-weighted chunk time."""
        return REFERENCE_CHUNK_S * self.weight / self.weighted
