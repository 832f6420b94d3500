"""Host-speed reference clock.

The host this benchmark runs on changes speed under it: a fixed
pure-Python loop can take 1.1-1.9x as long from one moment to the next,
with CPU time equal to wall time and no steal.  Longer runs alone do not
average that away, so every gated timing is expressed on a reference
clock instead of in raw wall seconds.

Between two measured intervals the benchmark runs one fixed reference
loop in two halves: a bound-method call plus a pseudo-random byte read
over a 32 MiB buffer per iteration (the buffer is larger than any
last-level cache, so this half follows memory-bus speed), then
small-object allocation churn (this half follows the allocator and the
cyclic collector, which the emulator's per-event objects lean on).

The halves were chosen against a fixed, repeated unit of work from two
workloads (the same 40 programs from the fork-server snapshot, timed in
blocks of about 0.4 s for several minutes).  Blocks moved by 17% (Linux
model) and 12% (VxWorks blob) raw; divided by the read half alone they
still moved by 4.2% and 4.0%, by the allocation half alone by 3.2% and
5.2%, and by both halves by 2.6% and 4.0%.  An arithmetic-only loop did
worst on the Linux model (4.9%).

An interval's reference time is its wall time divided by the mean of
the two reference loops on either side of it, times
:data:`NOMINAL_LOOP_S`.  The unit is "reference seconds": seconds as
they would read on a host where one reference loop takes exactly
``NOMINAL_LOOP_S``.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Callable, List, Tuple, TypeVar

T = TypeVar("T")

#: size of the buffer the reference loop reads from (power of two)
BUFFER_BYTES = 32 << 20
#: read iterations of one reference loop (the allocation half runs 2/3
#: as many)
LOOP_ITERS = 60_000
#: wall seconds one reference loop is defined to take: about its median
#: on the 2-core x86-64 host the benchmark was calibrated on
NOMINAL_LOOP_S = 0.040


class _Reader:
    """Holder of the bound method the reference loop calls."""

    def byte(self, buf: bytearray, index: int) -> int:
        return buf[index]


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b


def reference_loop(buf: bytearray, iters: int) -> int:
    """The fixed reference workload; returns a checksum."""
    read = _Reader().byte
    mask = len(buf) - 1
    state = 12345
    acc = 0
    for _ in range(iters):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        acc += read(buf, state & mask)
    for i in range(iters * 2 // 3):
        pair = _Pair(i, acc)
        acc += len([pair, i, i]) + len({"k": i, "p": pair})
    return acc & 0xFFFFFFFF


def make_buffer(size: int = BUFFER_BYTES) -> bytearray:
    """A buffer of pseudo-random bytes.

    Written in full so every page is resident: reads from a fresh
    zeroed allocation would all hit the kernel's shared zero page and
    never leave the cache.
    """
    if size <= 0 or size & (size - 1):
        raise ValueError("reference buffer size must be a power of two")
    return bytearray(random.Random(0).randbytes(size))


def to_reference(wall_s: float, ref_before: float, ref_after: float) -> float:
    """Wall seconds of one interval, expressed in reference seconds."""
    mean = (ref_before + ref_after) / 2.0
    if mean <= 0:
        raise ValueError("reference loop times must be positive")
    return wall_s / mean * NOMINAL_LOOP_S


class RefClock:
    """Times intervals against the reference loop run between them.

    Every call to :meth:`interval` closes the previous reference
    sample's right side: consecutive intervals share the loop between
    them, so N intervals cost N + 1 loops.
    """

    def __init__(self, buffer_bytes: int = BUFFER_BYTES,
                 iters: int = LOOP_ITERS):
        self.buffer = make_buffer(buffer_bytes)
        self.iters = iters
        #: every reference loop's wall time, in order
        self.loops: List[float] = []
        self._last = self._loop()

    def _loop(self) -> float:
        started = time.perf_counter()
        reference_loop(self.buffer, self.iters)
        elapsed = time.perf_counter() - started
        self.loops.append(elapsed)
        return elapsed

    def interval(self, fn: Callable[[], T]) -> Tuple[T, float, float]:
        """Run ``fn``; returns (result, reference seconds, wall seconds)."""
        started = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - started
        before = self._last
        self._last = self._loop()
        return result, to_reference(wall, before, self._last), wall

    def loop_stats(self) -> dict:
        """Min / median / max reference-loop wall seconds (noise view)."""
        return {
            "n": len(self.loops),
            "min_s": min(self.loops),
            "median_s": statistics.median(self.loops),
            "max_s": max(self.loops),
        }
