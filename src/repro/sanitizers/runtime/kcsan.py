"""KCSAN-functionality engine: data-race detection.

Models the kernel concurrency sanitizer's watchpoint scheme on a
deterministic cooperative scheduler: every scalar data access opens a
soft watchpoint for a bounded window of subsequent events; a second
access to the same granule from a *different task* races when at least
one side writes and not both sides are marked (atomic).  This mirrors
KCSAN's report rule (``KCSAN_ACCESS_ATOMIC`` suppression included)
while replacing wall-clock watchpoint delays with an event-count
window, which the cooperative interleaving makes exact.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from repro.mem.access import Access, AccessKind
from repro.sanitizers.runtime.reports import BugType, ReportSink, SanitizerReport

#: how many subsequent events a watchpoint stays armed for
DEFAULT_WINDOW = 256
#: watchpoints remembered per granule
PER_GRANULE = 4
_GRANULE_SHIFT = 3
#: the access kinds KCSAN watches
_RACY_KINDS = (AccessKind.DATA, AccessKind.RANGE)


class _Watch(NamedTuple):
    seq: int
    task: int
    is_write: bool
    atomic: bool
    pc: int
    addr: int
    size: int


class KcsanEngine:
    """Watchpoint-based data-race detection."""

    tool = "kcsan"

    def __init__(self, sink: ReportSink, window: int = DEFAULT_WINDOW):
        self.sink = sink
        self.window = window
        self._seq = 0
        self._watches: Dict[int, List[_Watch]] = {}
        self.suppress_depth = 0
        self.checks = 0
        self.races_seen = 0

    # ------------------------------------------------------------------
    def check(self, access: Access) -> Optional[SanitizerReport]:
        """Feed one access; returns a data-race report when one fires.

        The runtime's inline shadow fast path never filters KCSAN traffic
        — races live on perfectly addressable memory — so this sees every
        DATA access regardless of the KASAN granule test's outcome.
        """
        if self.suppress_depth:
            return None
        if access.kind not in _RACY_KINDS:
            return None
        if access.task == 0:
            return None  # boot-time accesses cannot race
        self.checks += 1
        self._seq += 1
        seq = self._seq
        granule = access.addr >> _GRANULE_SHIFT
        report = None
        end_granule = (access.addr + access.size - 1) >> _GRANULE_SHIFT
        end_granule = min(end_granule, granule + 63)  # bound range walks
        for g in range(granule, end_granule + 1):
            hit = self._match(g, access, seq)
            if hit is not None and report is None:
                report = hit
        self._record(granule, access, seq)
        return report

    def _match(self, granule: int, access: Access, seq: int):
        watches = self._watches.get(granule)
        if not watches:
            return None
        for watch in reversed(watches):
            if seq - watch.seq > self.window:
                continue
            if watch.task == access.task:
                continue
            if not (watch.is_write or access.is_write):
                continue
            if watch.atomic and access.atomic:
                continue
            if not _overlap(watch, access):
                continue
            self.races_seen += 1
            return self.sink.emit(
                SanitizerReport(
                    self.tool, BugType.DATA_RACE, access.addr, access.size,
                    access.is_write, access.pc, access.task,
                    second_pc=watch.pc,
                    detail=(
                        f"race between task {access.task} and task "
                        f"{watch.task} on {access.addr:#010x}"
                    ),
                )
            )
        return None

    def _record(self, granule: int, access: Access, seq: int) -> None:
        watches = self._watches.setdefault(granule, [])
        watches.append(
            _Watch(seq, access.task, access.is_write, access.atomic,
                   access.pc, access.addr, access.size)
        )
        if len(watches) > PER_GRANULE:
            del watches[0]

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop all armed watchpoints (used between fuzz inputs)."""
        self._watches.clear()


def _overlap(watch: _Watch, access: Access) -> bool:
    return (
        watch.addr < access.addr + access.size
        and access.addr < watch.addr + watch.size
    )
