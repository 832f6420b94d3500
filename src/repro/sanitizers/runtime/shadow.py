"""Unified shadow memory.

One byte of shadow describes one 8-byte granule of guest memory, using
KASAN's encoding: ``0`` means fully addressable, ``1..7`` means only the
first N bytes of the granule are addressable, and values >= 0x80 are
poison codes identifying *why* the granule is off limits.

"Unified" (§3.3) means a single shadow map serves every sanitizer
functionality in the runtime: KASAN consumes the poison codes, KCSAN
uses addressability to skip uninteresting traffic, and the quarantine
bookkeeping reuses the FREE code.  The map is host-side: the guest
never sees it, which is the core trick that lets EMBSAN sanitize
firmware whose platform could not host shadow memory at all.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Tuple

from repro.mem.bus import MemoryBus
from repro.mem.regions import MmioRegion

#: Bytes of guest memory per shadow byte.
GRANULE = 8


class ShadowCode(enum.IntEnum):
    """Poison codes (>= 0x80) stored in shadow bytes."""

    ADDRESSABLE = 0x00
    FREED = 0xFF  #: object freed (KASAN use-after-free)
    REDZONE_HEAP = 0xFA  #: pad after a slab object
    REDZONE_GLOBAL = 0xF9  #: pad after an instrumented global
    REDZONE_STACK = 0xF2  #: pad around an instrumented stack variable
    PAGE_FREE = 0xFE  #: whole page returned to the buddy allocator
    UNALLOCATED = 0xFC  #: slab page space never handed out


#: shadow-byte pages tracked for delta restore (4 KiB of shadow bytes
#: covers 32 KiB of guest memory at GRANULE=8)
_SHADOW_PAGE_SHIFT = 12
_SHADOW_PAGE_SIZE = 1 << _SHADOW_PAGE_SHIFT


class _RegionShadow:
    """Shadow bytes for one guest memory region."""

    __slots__ = ("base", "size", "bytes", "dirty")

    def __init__(self, base: int, size: int, fill: int):
        self.base = base
        self.size = size
        granules = (size + GRANULE - 1) // GRANULE
        # calloc-backed zero fill avoids touching every page up front
        self.bytes = (bytearray(granules) if fill == 0
                      else bytearray([fill]) * granules)
        #: shadow pages written since the last clear (delta restore)
        self.dirty: set = set()

    def mark_dirty(self, first_granule: int, last_granule: int) -> None:
        """Record the shadow pages covering ``[first, last]`` granules."""
        first_page = first_granule >> _SHADOW_PAGE_SHIFT
        last_page = last_granule >> _SHADOW_PAGE_SHIFT
        if first_page == last_page:
            self.dirty.add(first_page)
        else:
            self.dirty.update(range(first_page, last_page + 1))


class ShadowMemory:
    """Host-side shadow map over a machine's RAM regions.

    Device (MMIO) regions deliberately get no shadow: KASAN never maps
    shadow for device apertures, and the runtime skips checks there.
    """

    def __init__(self, bus: MemoryBus):
        self._shadows: List[_RegionShadow] = []
        self._bases: List[int] = []
        for region in bus.regions:
            if isinstance(region, MmioRegion) or region.kind == "device":
                continue
            shadow = _RegionShadow(region.base, region.size, 0)
            self._shadows.append(shadow)
            self._bases.append(region.base)
        self._shadows.sort(key=lambda s: s.base)
        self._bases.sort()
        self.poison_ops = 0
        self.check_ops = 0
        #: clean accesses proven addressable by :meth:`clear_for` alone
        #: (the runtime's compiled access check), a subset of ``check_ops``
        self.fastpath_hits = 0

    # ------------------------------------------------------------------
    # state-provider support
    # ------------------------------------------------------------------
    def save_state(self) -> List[bytes]:
        """Copy every region's shadow bytes (state-provider protocol)."""
        return [bytes(shadow.bytes) for shadow in self._shadows]

    def load_state(self, saved: List[bytes]) -> None:
        """Restore shadow bytes captured by :meth:`save_state` in place."""
        for shadow, data in zip(self._shadows, saved):
            shadow.bytes[:] = data
            shadow.dirty.clear()

    def load_state_delta(self, saved: List[bytes]) -> int:
        """Restore only the shadow pages poisoned since the capture.

        ``saved`` must be the blob :meth:`save_state` returned for the
        state being restored to (the fork server's golden state): dirty
        page tracking began at that same point, so copying back just the
        dirty pages reproduces the full image.  Returns pages copied.
        """
        pages = 0
        for shadow, data in zip(self._shadows, saved):
            table = shadow.bytes
            limit = len(table)
            for page in shadow.dirty:
                lo = page << _SHADOW_PAGE_SHIFT
                if lo >= limit:
                    continue
                hi = min(lo + _SHADOW_PAGE_SIZE, limit)
                table[lo:hi] = data[lo:hi]
                pages += 1
            shadow.dirty.clear()
        return pages

    def clear_dirty(self) -> None:
        """Reset dirty-page accounting (at golden capture time)."""
        for shadow in self._shadows:
            shadow.dirty.clear()

    # ------------------------------------------------------------------
    def _find(self, addr: int) -> Optional[_RegionShadow]:
        # linear scan: machines map < 8 RAM regions
        for shadow in self._shadows:
            if shadow.base <= addr < shadow.base + shadow.size:
                return shadow
        return None

    # ------------------------------------------------------------------
    # state transitions
    # ------------------------------------------------------------------
    def poison(self, start: int, size: int, code: ShadowCode) -> None:
        """Mark ``[start, start+size)`` poisoned with ``code``.

        Partial granules at the edges stay addressable up to the object
        boundary (KASAN's first-N-bytes encoding), so only the fully
        covered granules take the poison code; a leading partial granule
        records how many of its bytes remain valid.
        """
        if size <= 0:
            return
        shadow = self._find(start)
        if shadow is None:
            return
        self.poison_ops += 1
        end = min(start + size, shadow.base + shadow.size)
        first = (start - shadow.base) // GRANULE
        valid_prefix = start % GRANULE
        if valid_prefix:
            # the object sharing this granule keeps its first bytes
            shadow.bytes[first] = valid_prefix
            first += 1
        last = (end - shadow.base + GRANULE - 1) // GRANULE
        for idx in range(first, last):
            shadow.bytes[idx] = int(code)
        shadow.mark_dirty(first - (1 if valid_prefix else 0), max(last - 1, first))

    def unpoison(self, start: int, size: int) -> None:
        """Mark ``[start, start+size)`` addressable (partial tail encoded)."""
        if size <= 0:
            return
        shadow = self._find(start)
        if shadow is None:
            return
        self.poison_ops += 1
        end = min(start + size, shadow.base + shadow.size)
        first = (start - shadow.base) // GRANULE
        full_last = (end - shadow.base) // GRANULE
        for idx in range(first, full_last):
            shadow.bytes[idx] = 0
        tail = end % GRANULE
        if tail and full_last < len(shadow.bytes):
            shadow.bytes[full_last] = tail
        shadow.mark_dirty(first, max(full_last, first))

    # ------------------------------------------------------------------
    # checking
    # ------------------------------------------------------------------
    def check(self, addr: int, size: int) -> Optional[Tuple[int, int]]:
        """Validate an access; returns ``(bad_addr, code)`` or None.

        A device-region or out-of-shadow access returns None — the bus
        permission model, not the sanitizer, polices those.
        """
        if size <= 0:
            return None
        shadow = self._find(addr)
        if shadow is None:
            return None
        self.check_ops += 1
        end = addr + size
        idx = (addr - shadow.base) // GRANULE
        granule_start = shadow.base + idx * GRANULE
        table = shadow.bytes
        limit = len(table)
        while granule_start < end and idx < limit:
            value = table[idx]
            if value:
                if value >= 0x80:
                    bad = max(addr, granule_start)
                    return bad, value
                # partial granule: first `value` bytes valid
                access_end_in_granule = min(end, granule_start + GRANULE)
                if access_end_in_granule - granule_start > value:
                    # classify by the poison that follows the object, the
                    # way KASAN inspects the next shadow byte
                    if idx + 1 < limit and table[idx + 1] >= 0x80:
                        code = table[idx + 1]
                    else:
                        code = int(ShadowCode.REDZONE_HEAP)
                    return granule_start + value, code
            idx += 1
            granule_start += GRANULE
        return None

    def clear_for(self, addr: int, size: int) -> bool:
        """Fast path: True when every granule the access touches is 0.

        The inline counterpart of :meth:`check` used by the runtime's
        compiled access check: an all-addressable answer needs no poison-code
        classification, no partial-granule arithmetic and no report
        machinery, which covers the overwhelming majority of traffic.  A
        False return says nothing about *why* — the caller falls back to
        the full :meth:`check` walk, which also re-validates partial
        granules the fast path conservatively rejects.

        Counter parity with :meth:`check`: a clean access counts one
        ``check_ops`` here; a dirty access counts nothing (the full check
        the caller then runs contributes the one count); an unshadowed
        access counts nothing on either path.
        """
        if size <= 0:
            return True
        shadow = self._find(addr)
        if shadow is None:
            # device/out-of-shadow traffic: the bus polices it, not us
            return True
        base = shadow.base
        table = shadow.bytes
        first = (addr - base) >> 3
        last = (addr + size - 1 - base) >> 3
        if first == last:
            # addr is inside the region, so ``first`` always indexes the
            # table; a multi-granule slice clamps at the region end just
            # like check()'s ``idx < limit`` walk
            if table[first]:
                return False
        elif any(table[first:last + 1]):
            return False
        self.check_ops += 1
        self.fastpath_hits += 1
        return True

    def code_at(self, addr: int) -> int:
        """Raw shadow byte covering ``addr`` (0 when unshadowed)."""
        shadow = self._find(addr)
        if shadow is None:
            return 0
        return shadow.bytes[(addr - shadow.base) // GRANULE]

    # ------------------------------------------------------------------
    def poisoned_bytes(self) -> int:
        """Granule count currently carrying any poison code (diagnostic)."""
        return sum(
            1
            for shadow in self._shadows
            for value in shadow.bytes
            if value >= 0x80
        )

    def stats(self) -> Dict[str, int]:
        """Operation counters used by overhead analysis."""
        return {
            "poison_ops": self.poison_ops,
            "check_ops": self.check_ops,
            "fastpath_hits": self.fastpath_hits,
        }

    def capture(self, addr: int, rows: int = 2) -> Optional["ShadowCapture"]:
        """Copy the shadow rows a dump around ``addr`` shows (None when
        ``addr`` is unshadowed): up to ``rows`` rows of 16 shadow bytes
        either side of the row holding ``addr``, clipped at the region."""
        shadow = self._find(addr)
        if shadow is None:
            return None
        granule = (addr - shadow.base) // GRANULE
        row_of = granule // 16
        lo = max(row_of - rows, 0) * 16
        hi = min((row_of + rows + 1) * 16, len(shadow.bytes))
        return ShadowCapture(shadow.base + lo * GRANULE,
                             bytes(shadow.bytes[lo:hi]), granule - lo)

    def dump_around(self, addr: int, rows: int = 2) -> str:
        """Render the shadow bytes around ``addr``, dmesg-KASAN style."""
        capture = self.capture(addr, rows)
        return "" if capture is None else capture.render()


class ShadowCapture:
    """Shadow bytes around a bad address, copied when a report is made.

    KASAN reports carry one of these instead of text: most reports are
    deduplicated away unread, so the dump is rendered (:meth:`render`)
    only when someone reads it.  The copy keeps later poisoning and
    snapshot restores from changing what the report shows.
    """

    __slots__ = ("origin", "data", "offset")

    def __init__(self, origin: int, data: bytes, offset: int):
        #: guest address of the granule ``data[0]`` describes
        self.origin = origin
        #: whole rows of 16 shadow bytes (the last may be clipped)
        self.data = data
        #: index in ``data`` of the offending granule
        self.offset = offset

    def render(self) -> str:
        """16 shadow bytes (128 guest bytes) per row, the row holding the
        bad address marked ``>`` and ``^^`` under the offending granule."""
        data = self.data
        bad_first = self.offset - self.offset % 16
        lines = ["Memory state around the buggy address:"]
        for first in range(0, len(data), 16):
            rendered = " ".join(f"{value:02x}" for value in data[first:first + 16])
            marker = ">" if first == bad_first else " "
            lines.append(f"{marker}{self.origin + first * GRANULE:#010x}: {rendered}")
            if first == bad_first:
                lines.append(" " * 12 + "   " * (self.offset - first) + " ^^")
        return "\n".join(lines)
