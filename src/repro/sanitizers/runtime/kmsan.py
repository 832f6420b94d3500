"""KMSAN-functionality engine: uninitialized-memory tracking.

The paper's §5 argues that "adapting new sanitizer functionalities to
EMBSAN is simple, requiring developers to write runtime code accordingly
and designate which instructions to instrument and what interfaces
should be called".  This module is that exercise, done: a third
sanitizer functionality (modeled on the Kernel Memory Sanitizer the
paper cites as related work) that plugs into the same event stream —
loads, stores, ranges, allocator events — with zero changes to the
interception machinery.

Semantics (byte precise, tracked per live heap object):

* a fresh allocation is wholly uninitialized (``kzalloc``-style zeroing
  shows up as the memset that follows and initializes it);
* stores initialize the bytes they cover;
* loads of any uninitialized byte report ``uninit-read``;
* freeing drops the object's tracking.

Tracking only live heap objects keeps the shadow proportional to the
live heap, the same trick the unified shadow memory plays for KASAN.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.mem.access import Access, AccessKind
from repro.sanitizers.runtime.reports import BugType, ReportSink, SanitizerReport

#: allocator cache ids whose objects are NOT tracked (whole pages:
#: the kernel treats page-level buffers as externally initialized)
_UNTRACKED_CACHES = frozenset({0xFFFF})
#: access kinds KMSAN validates: CPU data, bulk ranges and device DMA
_TRACKED_KINDS = (AccessKind.DATA, AccessKind.RANGE, AccessKind.DMA)


class KmsanEngine:
    """Uninitialized-memory tracking over allocator-carved objects."""

    tool = "kmsan"

    def __init__(self, sink: ReportSink):
        self.sink = sink
        #: object base -> bytearray of per-byte init flags
        self._objects: Dict[int, bytearray] = {}
        #: sorted-ish index is unnecessary: lookups walk a small dict
        self.suppress_depth = 0
        self.checks = 0
        #: bumped by every transition that may change ``_objects``
        #: (allocs, frees, initializing stores); the runtime's snapshot
        #: epoch compares it to skip reloads of unchanged state
        self.mutations = 0

    # ------------------------------------------------------------------
    # allocator state transitions
    # ------------------------------------------------------------------
    def on_alloc(self, addr: int, size: int, cache: int, pc: int = 0,
                 task: int = 0) -> None:
        """A fresh object: every byte starts uninitialized."""
        if addr == 0 or size <= 0 or cache in _UNTRACKED_CACHES:
            return
        self._objects[addr] = bytearray(size)
        self.mutations += 1

    def on_free(self, addr: int, pc: int = 0, task: int = 0) -> None:
        """Tracking ends with the object's life (KASAN owns UAF)."""
        if self._objects.pop(addr, None) is not None:
            self.mutations += 1

    # ------------------------------------------------------------------
    # access validation
    # ------------------------------------------------------------------
    def _find(self, addr: int, size: int):
        for base, flags in self._objects.items():
            if base <= addr and addr + size <= base + len(flags):
                return base, flags
        return None

    def check(self, access: Access) -> Optional[SanitizerReport]:
        """Feed one access: stores initialize, loads are validated."""
        if self.suppress_depth:
            return None
        # DMA counts: a device reading an uninitialized heap buffer
        # leaks its contents just like a CPU load, and a device write
        # (ring write-back, rx payload) initializes the span it covers
        if access.kind not in _TRACKED_KINDS:
            return None
        size = access.size
        hit = self._find(access.addr, size)
        if hit is None:
            return None
        base, flags = hit
        start = access.addr - base
        self.checks += 1
        if access.is_write:
            flags[start:start + size] = b"\x01" * size
            self.mutations += 1
            return None
        bad = flags.find(0, start, start + size)
        if bad < 0:
            return None
        return self.sink.emit(SanitizerReport(
            self.tool, BugType.UNINIT_READ, base + bad, access.size,
            False, access.pc, access.task,
            detail=f"byte {bad} of the object at {base:#010x} was never written",
        ))

    def mark_initialized(self, addr: int, size: int) -> None:
        """Externally initialized span (copy_from_user family)."""
        hit = self._find(addr, max(size, 1))
        if hit is None:
            return
        base, flags = hit
        start = addr - base
        end = min(start + size, len(flags))
        flags[start:end] = b"\x01" * (end - start)
        self.mutations += 1

    def tracked_objects(self) -> int:
        """Number of live tracked objects (diagnostic)."""
        return len(self._objects)
