"""Unit tests: the KASAN-functionality engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.access import Access, AccessKind
from repro.mem.bus import MemoryBus
from repro.mem.regions import MemoryRegion, Perm
from repro.sanitizers.runtime.kasan import HEAP_REDZONE, KasanEngine
from repro.sanitizers.runtime.reports import BugType, ReportSink
from repro.sanitizers.runtime.shadow import ShadowMemory

BASE = 0x10000


@pytest.fixture
def engine():
    bus = MemoryBus()
    bus.map(MemoryRegion("ram", BASE, 0x10000, Perm.RW, "ram"))
    return KasanEngine(ShadowMemory(bus), ReportSink())


def read(addr, size=4, pc=0x100):
    return Access(addr, size, False, pc=pc, task=1)


def write(addr, size=4, pc=0x100):
    return Access(addr, size, True, pc=pc, task=1)


class TestHeapLifecycle:
    def test_in_bounds_ok(self, engine):
        engine.on_alloc(BASE, 64, cache=1)
        assert engine.check(read(BASE)) is None
        assert engine.check(write(BASE + 60)) is None

    def test_oob_after_object(self, engine):
        engine.on_alloc(BASE, 64, cache=1)
        report = engine.check(read(BASE + 64))
        assert report.bug_type is BugType.SLAB_OOB
        assert report.alloc_pc == 0  # allocated with default pc

    def test_oob_partial_granule(self, engine):
        engine.on_alloc(BASE, 13, cache=1)
        assert engine.check(read(BASE + 12, 1)) is None
        report = engine.check(read(BASE + 13, 1))
        assert report.bug_type is BugType.SLAB_OOB

    def test_uaf(self, engine):
        engine.on_alloc(BASE, 64, cache=1, pc=0x11)
        engine.on_free(BASE, pc=0x22)
        report = engine.check(read(BASE + 8))
        assert report.bug_type is BugType.UAF
        assert report.alloc_pc == 0x11
        assert report.free_pc == 0x22

    def test_double_free(self, engine):
        engine.on_alloc(BASE, 64, cache=1)
        engine.on_free(BASE)
        engine.on_free(BASE)
        assert engine.sink.has(BugType.DOUBLE_FREE)

    def test_invalid_free(self, engine):
        engine.on_free(BASE + 0x100)
        assert engine.sink.has(BugType.INVALID_FREE)

    def test_realloc_clears_poison(self, engine):
        engine.on_alloc(BASE, 64, cache=1)
        engine.on_free(BASE)
        engine.on_alloc(BASE, 32, cache=1)
        assert engine.check(read(BASE)) is None
        assert engine.check(read(BASE + 32)) is not None

    def test_redzone_clamps_at_live_neighbor(self, engine):
        # heap_4-style packing: neighbour starts 8 bytes past the object
        engine.on_alloc(BASE + 72, 24, cache=0)
        engine.on_alloc(BASE, 64, cache=0)  # redzone would reach BASE+80
        assert engine.check(read(BASE + 72)) is None  # neighbour survives
        assert engine.check(read(BASE + 64)) is not None

    def test_page_alloc_no_redzone(self, engine):
        engine.on_alloc(BASE, 4096, cache=0xFFFF)
        assert engine.check(read(BASE + 4096)) is None

    def test_page_free_poisons(self, engine):
        engine.on_alloc(BASE, 4096, cache=0xFFFF)
        engine.on_free(BASE)
        report = engine.check(read(BASE + 100))
        assert report.bug_type is BugType.UAF

    def test_slab_page_poisons_unallocated(self, engine):
        engine.on_slab_page(BASE, 4096)
        report = engine.check(read(BASE + 128))
        assert report.bug_type is BugType.SLAB_OOB
        engine.on_alloc(BASE + 128, 32, cache=2)
        assert engine.check(read(BASE + 128)) is None


class TestCompileTimeObjects:
    def test_global_redzone(self, engine):
        engine.register_global(BASE + 0x100, 26, 32)
        assert engine.check(read(BASE + 0x100, 4)) is None
        report = engine.check(read(BASE + 0x100 + 26, 1))
        assert report.bug_type is BugType.GLOBAL_OOB

    def test_stack_var_redzones(self, engine):
        addr = BASE + 0x200
        engine.stack_var(addr, 16)
        assert engine.check(write(addr)) is None
        assert engine.check(write(addr - 4)).bug_type is BugType.STACK_OOB
        assert engine.check(write(addr + 16)).bug_type is BugType.STACK_OOB

    def test_stack_clear(self, engine):
        addr = BASE + 0x200
        engine.stack_var(addr, 16)
        engine.stack_clear(addr - 64, 128)
        assert engine.check(write(addr + 16)) is None


class TestSuppression:
    def test_suppressed_checks_skipped(self, engine):
        engine.on_alloc(BASE, 16, cache=1)
        engine.suppress_depth = 1
        assert engine.check(read(BASE + 16)) is None
        engine.suppress_depth = 0
        assert engine.check(read(BASE + 16)) is not None

    def test_fetch_not_checked(self, engine):
        engine.on_alloc(BASE, 16, cache=1)
        fetch = Access(BASE + 16, 4, False, kind=AccessKind.FETCH)
        assert engine.check(fetch) is None

    def test_range_check(self, engine):
        engine.on_alloc(BASE, 64, cache=1)
        assert engine.check_range(BASE, 64, True) is None
        assert engine.check_range(BASE, 65, True) is not None

    def test_null_alloc_ignored(self, engine):
        engine.on_alloc(0, 64, cache=1)
        engine.on_free(0)
        assert engine.sink.count() == 0
        assert engine.live_count() == 0


def _scan_object_before(live, addr):
    """The former linear scan over every live object: the oracle."""
    best = None
    best_base = -1
    for base, info in live.items():
        if base + info.size <= addr <= base + info.size + HEAP_REDZONE:
            if base > best_base:
                best, best_base = info, base
    return best


_heap_ops = st.lists(
    st.one_of(
        # bases on a coarse grid and small sizes, so objects overlap,
        # share end addresses and sit inside each other's redzones
        st.tuples(st.just("alloc"), st.integers(0, 40), st.integers(1, 40),
                  st.sampled_from([1, 0xFFFF])),
        st.tuples(st.just("free"), st.integers(0, 40)),
        st.tuples(st.just("restore")),
    ),
    max_size=60,
)


class TestOwnerLookup:
    """``_object_before`` probes an end-address index instead of
    scanning ``live``; it must answer exactly what the scan answers."""

    @settings(max_examples=200, deadline=None)
    @given(ops=_heap_ops)
    def test_matches_linear_scan(self, ops):
        bus = MemoryBus()
        bus.map(MemoryRegion("ram", BASE, 0x10000, Perm.RW, "ram"))
        engine = KasanEngine(ShadowMemory(bus), ReportSink())
        for op in ops:
            if op[0] == "alloc":
                engine.on_alloc(BASE + 4 * op[1], op[2], op[3], pc=op[1] + 1)
            elif op[0] == "free":
                engine.on_free(BASE + 4 * op[1])
            else:
                # what a snapshot restore does: replace live, reindex
                engine.live = dict(engine.live)
                engine.reindex()
        for addr in range(BASE - 20, BASE + 4 * 40 + 40 + HEAP_REDZONE + 4):
            assert engine._object_before(addr) is \
                _scan_object_before(engine.live, addr), hex(addr)

    def test_largest_base_wins_a_tie(self, engine):
        engine.on_alloc(BASE, 64, cache=1, pc=0x1)
        engine.on_alloc(BASE + 32, 32, cache=1, pc=0x2)  # same end
        engine.on_alloc(BASE + 8, 60, cache=1, pc=0x3)  # ends 4 later
        assert engine._object_before(BASE + 70).alloc_pc == 0x2
        engine.on_free(BASE + 32)
        assert engine._object_before(BASE + 70).alloc_pc == 0x3
        assert engine._object_before(BASE + 64 + HEAP_REDZONE + 5) is None
