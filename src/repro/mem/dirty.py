"""Dirty-page tracking and the golden image it saves on first write.

A :class:`DirtySet` records, per memory region, which pages have been
written since the last restore.  The bus marks pages on every store
path (scalar stores, silent stores, bulk writes, DMA) *before* it
writes them, so the first mark of a page after capture can save the
page's 4 KiB pre-image.  Those pre-images are the fork server's golden
image of guest RAM (:class:`repro.emulator.snapshot.ForkServer`): a
restore copies them back for the pages dirtied since the last restore.
Capture therefore costs nothing per byte of RAM, and the golden image
grows only with the pages a campaign ever writes.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

#: bytes per tracked page; matches the mmap granularity of large regions
PAGE_SIZE = 4096
PAGE_SHIFT = 12


class DirtySet:
    """Per-region dirty page indices plus their golden pre-images.

    Keys are region *names* (stable across restores).  ``_pages`` holds
    the pages written since the last :meth:`rewind`; ``_golden`` holds,
    for every page written since capture, its bytes at capture time.
    Every dirty page has a golden copy, so a rewind never reads RAM it
    did not save.  The hot path is :meth:`mark`, called on every guest
    store; a page already dirty costs one set lookup.
    """

    __slots__ = ("_pages", "_golden")

    def __init__(self) -> None:
        self._pages: Dict[str, Set[int]] = {}
        self._golden: Dict[str, Dict[int, bytes]] = {}

    # ------------------------------------------------------------------
    # marking (hot path)
    # ------------------------------------------------------------------
    def mark(self, region, off: int, size: int) -> None:
        """Mark the pages covering ``[off, off+size)`` of ``region`` dirty.

        Must run before the write lands: a page's first mark since
        capture saves its pre-image as the golden copy.
        """
        first = off >> PAGE_SHIFT
        last = (off + size - 1) >> PAGE_SHIFT
        pages = self._pages.get(region.name)
        if pages is None:
            pages = self._pages[region.name] = set()
            self._golden[region.name] = {}
        if first == last:
            if first not in pages:
                self._first_write(region, pages, first)
            return
        for page in range(first, last + 1):
            if page not in pages:
                self._first_write(region, pages, page)

    def _first_write(self, region, pages: Set[int], page: int) -> None:
        """First write to ``page`` since the last rewind."""
        pages.add(page)
        golden = self._golden[region.name]
        if page not in golden:
            lo = page << PAGE_SHIFT
            golden[page] = bytes(region.data[lo : lo + PAGE_SIZE])

    # ------------------------------------------------------------------
    # consumption
    # ------------------------------------------------------------------
    def pages(self, region_name: str) -> Set[int]:
        """The dirty page indices of one region (empty set when clean)."""
        return self._pages.get(region_name, set())

    def spans(self, region_name: str) -> List[Tuple[int, int]]:
        """Merged ``(lo, hi)`` byte ranges covering the dirty pages.

        Contiguous dirty pages coalesce into one span, so a rewind
        invalidates translations in as few ranges as possible.
        """
        pages = self._pages.get(region_name)
        if not pages:
            return []
        spans: List[Tuple[int, int]] = []
        start = prev = None
        for page in sorted(pages):
            if prev is not None and page == prev + 1:
                prev = page
                continue
            if start is not None:
                spans.append((start << PAGE_SHIFT, (prev + 1) << PAGE_SHIFT))
            start = prev = page
        spans.append((start << PAGE_SHIFT, (prev + 1) << PAGE_SHIFT))
        return spans

    def rewind(self, region) -> List[Tuple[int, int]]:
        """Copy the golden pre-image of every dirty page of ``region``
        back into it and mark the region clean.

        Returns the rewritten byte spans (region-relative, clipped to
        the region end), for translation-cache invalidation.
        """
        pages = self._pages.get(region.name)
        if not pages:
            return []
        spans = self.spans(region.name)
        data = region.data
        golden = self._golden[region.name]
        for page in pages:
            image = golden[page]
            lo = page << PAGE_SHIFT
            data[lo : lo + len(image)] = image
        pages.clear()
        size = region.size
        return [(lo, min(hi, size)) for lo, hi in spans]

    def page_count(self) -> int:
        """Total dirty pages across all regions."""
        return sum(len(pages) for pages in self._pages.values())

    def region_names(self) -> Iterator[str]:
        """Regions with at least one dirty page."""
        return (name for name, pages in self._pages.items() if pages)

    def golden_bytes(self) -> int:
        """Bytes of golden pre-image saved so far."""
        return sum(
            len(image)
            for images in self._golden.values()
            for image in images.values()
        )

    def clear(self) -> None:
        """Forget the dirty pages; the golden copies stay."""
        for pages in self._pages.values():
            pages.clear()
