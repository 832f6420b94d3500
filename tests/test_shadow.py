"""Unit + property tests: the unified shadow memory."""

from hypothesis import given, settings, strategies as st

from repro.mem.bus import MemoryBus
from repro.mem.regions import MemoryRegion, MmioRegion, Perm
from repro.sanitizers.runtime.shadow import GRANULE, ShadowCode, ShadowMemory

BASE = 0x1000
SIZE = 0x2000


def make_shadow():
    bus = MemoryBus()
    bus.map(MemoryRegion("ram", BASE, SIZE, Perm.RW, "ram"))
    bus.map(MmioRegion("dev", 0x8000, 0x100))
    return ShadowMemory(bus)


class TestBasics:
    def test_default_addressable(self):
        shadow = make_shadow()
        assert shadow.check(BASE, 8) is None
        assert shadow.check(BASE + SIZE - 8, 8) is None

    def test_device_regions_unshadowed(self):
        shadow = make_shadow()
        shadow.poison(0x8000, 0x10, ShadowCode.FREED)
        assert shadow.check(0x8000, 4) is None

    def test_poison_detects(self):
        shadow = make_shadow()
        shadow.poison(BASE + 64, 32, ShadowCode.FREED)
        bad = shadow.check(BASE + 64, 4)
        assert bad == (BASE + 64, int(ShadowCode.FREED))

    def test_unpoison_clears(self):
        shadow = make_shadow()
        shadow.poison(BASE, 64, ShadowCode.REDZONE_HEAP)
        shadow.unpoison(BASE, 64)
        assert shadow.check(BASE, 64) is None

    def test_partial_granule_tail(self):
        shadow = make_shadow()
        # object of 13 bytes: granule 1 has only 5 valid bytes
        shadow.poison(BASE, 64, ShadowCode.FREED)
        shadow.unpoison(BASE, 13)
        assert shadow.check(BASE, 13) is None
        assert shadow.check(BASE + 12, 1) is None
        assert shadow.check(BASE + 13, 1) is not None
        assert shadow.check(BASE + 8, 8) is not None

    def test_partial_prefix_on_poison(self):
        shadow = make_shadow()
        # poison starting mid-granule keeps the object prefix valid
        shadow.poison(BASE + 5, 16, ShadowCode.REDZONE_HEAP)
        assert shadow.check(BASE, 5) is None
        assert shadow.check(BASE + 5, 1) is not None

    def test_access_spanning_boundary(self):
        shadow = make_shadow()
        shadow.poison(BASE + 8, 8, ShadowCode.REDZONE_GLOBAL)
        bad = shadow.check(BASE + 4, 8)
        assert bad is not None
        assert bad[0] == BASE + 8

    def test_zero_size_noops(self):
        shadow = make_shadow()
        shadow.poison(BASE, 0, ShadowCode.FREED)
        shadow.unpoison(BASE, 0)
        assert shadow.check(BASE, 0) is None

    def test_code_at(self):
        shadow = make_shadow()
        shadow.poison(BASE + 16, 8, ShadowCode.REDZONE_STACK)
        assert shadow.code_at(BASE + 16) == int(ShadowCode.REDZONE_STACK)
        assert shadow.code_at(BASE) == 0

    def test_partial_violation_classified_by_next_granule(self):
        shadow = make_shadow()
        shadow.poison(BASE, 64, ShadowCode.UNALLOCATED)
        shadow.unpoison(BASE, 12)
        bad = shadow.check(BASE + 8, 8)
        assert bad[1] == int(ShadowCode.UNALLOCATED)

    def test_poisoned_bytes_counter(self):
        shadow = make_shadow()
        assert shadow.poisoned_bytes() == 0
        shadow.poison(BASE, 80, ShadowCode.FREED)
        assert shadow.poisoned_bytes() == 10


aligned_offsets = st.integers(0, (SIZE - 256) // GRANULE).map(
    lambda g: g * GRANULE
)
sizes = st.integers(1, 128)


class TestProperties:
    @settings(max_examples=120, deadline=None)
    @given(offset=aligned_offsets, size=sizes)
    def test_alloc_shape_roundtrip(self, offset, size):
        """unpoison(size) over poison leaves exactly [0, size) valid."""
        shadow = make_shadow()
        addr = BASE + offset
        shadow.poison(addr, 256, ShadowCode.UNALLOCATED)
        shadow.unpoison(addr, size)
        assert shadow.check(addr, size) is None
        assert shadow.check(addr + size, 1) is not None

    @settings(max_examples=100, deadline=None)
    @given(
        offset=aligned_offsets,
        size=sizes,
        probe=st.integers(0, 255),
        probe_size=st.sampled_from([1, 2, 4, 8]),
    )
    def test_check_agrees_with_byte_model(self, offset, size, probe, probe_size):
        """check() must match a naive per-byte validity model."""
        shadow = make_shadow()
        addr = BASE + offset
        shadow.poison(addr, 256, ShadowCode.FREED)
        shadow.unpoison(addr, size)
        start = addr + probe
        valid = all(
            addr <= byte < addr + size or byte >= addr + 256
            for byte in range(start, start + probe_size)
        )
        verdict = shadow.check(start, probe_size)
        assert (verdict is None) == valid

    @settings(max_examples=60, deadline=None)
    @given(
        spans=st.lists(
            st.tuples(aligned_offsets, st.integers(1, 64)), min_size=1,
            max_size=6,
        )
    )
    def test_unpoison_everything_restores(self, spans):
        shadow = make_shadow()
        for offset, size in spans:
            shadow.poison(BASE + offset, size, ShadowCode.REDZONE_HEAP)
        for offset, size in spans:
            shadow.unpoison(BASE + offset,
                            (size + GRANULE - 1) // GRANULE * GRANULE)
        assert shadow.poisoned_bytes() == 0


def _reference_dump(shadow, addr, rows=2):
    """The former eager renderer, reading live shadow bytes: the oracle
    for ``capture(addr).render()``."""
    region = shadow._find(addr)
    if region is None:
        return ""
    granule = (addr - region.base) // GRANULE
    row_of = granule // 16
    lines = ["Memory state around the buggy address:"]
    for row in range(row_of - rows, row_of + rows + 1):
        first = row * 16
        if first < 0 or first >= len(region.bytes):
            continue
        cells = region.bytes[first:first + 16]
        rendered = " ".join(f"{value:02x}" for value in cells)
        marker = ">" if row == row_of else " "
        lines.append(f"{marker}{region.base + first * GRANULE:#010x}: {rendered}")
        if row == row_of:
            lines.append(" " * 12 + "   " * (granule - first) + " ^^")
    return "\n".join(lines)


class TestShadowDump:
    @settings(max_examples=150, deadline=None)
    @given(
        offset=st.integers(-8, SIZE + 8),
        rows=st.integers(0, 3),
        spans=st.lists(st.tuples(st.integers(0, SIZE - 1), st.integers(1, 300)),
                       max_size=5),
    )
    def test_render_of_capture_matches_reference(self, offset, rows, spans):
        shadow = make_shadow()
        for start, size in spans:
            shadow.poison(BASE + start, size, ShadowCode.FREED)
        addr = BASE + offset
        capture = shadow.capture(addr, rows)
        expected = _reference_dump(shadow, addr, rows)
        assert shadow.dump_around(addr, rows) == expected
        if capture is None:
            assert expected == ""
        else:
            assert capture.render() == expected
            assert len(capture.data) <= (2 * rows + 1) * 16

    def test_capture_is_a_copy(self):
        shadow = make_shadow()
        shadow.poison(BASE + 64, 32, ShadowCode.REDZONE_HEAP)
        capture = shadow.capture(BASE + 64)
        before = shadow.dump_around(BASE + 64)
        shadow.unpoison(BASE, 256)
        shadow.poison(BASE + 8, 16, ShadowCode.FREED)
        assert capture.render() == before != shadow.dump_around(BASE + 64)

    def test_unshadowed_address_has_no_dump(self):
        shadow = make_shadow()
        assert shadow.capture(0x8000) is None
        assert shadow.dump_around(0x8000) == ""
