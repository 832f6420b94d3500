"""Tests: the KMSAN-functionality extension (§5 adaptability exercise)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DslError
from repro.firmware.builder import build_with_embsan
from repro.firmware.instrument import InstrumentationMode
from repro.mem.access import Access, AccessKind
from repro.os.embedded_linux.syscalls import Syscall as S
from repro.sanitizers.runtime.kmsan import KmsanEngine
from repro.sanitizers.runtime.reports import (
    BugType,
    ReportSink,
    SanitizerReport,
)
from repro.sanitizers.runtime.runtime import RuntimeConfig
from tests.conftest import small_linux_factory

ADDR = 0x4000_0000


def access(addr, size=4, write=False):
    return Access(addr, size, write, pc=0x10, task=1)


class TestEngine:
    def make(self):
        return KmsanEngine(ReportSink())

    def test_fresh_object_uninitialized(self):
        engine = self.make()
        engine.on_alloc(ADDR, 32, cache=1)
        report = engine.check(access(ADDR))
        assert report is not None
        assert report.bug_type is BugType.UNINIT_READ

    def test_store_then_load_ok(self):
        engine = self.make()
        engine.on_alloc(ADDR, 32, cache=1)
        engine.check(access(ADDR, write=True))
        assert engine.check(access(ADDR)) is None
        # the neighbouring word is still uninitialized
        assert engine.check(access(ADDR + 4)) is not None

    def test_partial_initialization(self):
        engine = self.make()
        engine.on_alloc(ADDR, 16, cache=1)
        engine.check(access(ADDR, size=2, write=True))
        report = engine.check(access(ADDR, size=4))
        assert report is not None
        assert report.addr == ADDR + 2  # first uninit byte

    def test_mark_initialized(self):
        engine = self.make()
        engine.on_alloc(ADDR, 64, cache=1)
        engine.mark_initialized(ADDR, 64)
        assert engine.check(access(ADDR + 32, size=8)) is None

    def test_free_ends_tracking(self):
        engine = self.make()
        engine.on_alloc(ADDR, 16, cache=1)
        engine.on_free(ADDR)
        assert engine.check(access(ADDR)) is None  # KASAN's territory now
        assert engine.tracked_objects() == 0

    def test_untracked_memory_ignored(self):
        engine = self.make()
        assert engine.check(access(0x999)) is None

    def test_page_allocations_untracked(self):
        engine = self.make()
        engine.on_alloc(ADDR, 4096, cache=0xFFFF)
        assert engine.check(access(ADDR)) is None


class _LoopKmsan(KmsanEngine):
    """The engine's byte-at-a-time loops, frozen as the oracle for the
    slice store and ``bytearray.find`` load check."""

    def check(self, access):
        if self.suppress_depth:
            return None
        if access.kind not in (AccessKind.DATA, AccessKind.RANGE,
                               AccessKind.DMA):
            return None
        hit = self._find(access.addr, access.size)
        if hit is None:
            return None
        base, flags = hit
        start = access.addr - base
        self.checks += 1
        if access.is_write:
            for idx in range(start, start + access.size):
                flags[idx] = 1
            return None
        bad = next(
            (idx for idx in range(start, start + access.size)
             if not flags[idx]),
            None,
        )
        if bad is None:
            return None
        return self.sink.emit(SanitizerReport(
            self.tool, BugType.UNINIT_READ, base + bad, access.size,
            False, access.pc, access.task,
            detail=f"byte {bad} of the object at {base:#010x} was never written",
        ))

    def mark_initialized(self, addr, size):
        hit = self._find(addr, max(size, 1))
        if hit is None:
            return
        base, flags = hit
        start = addr - base
        for idx in range(start, min(start + size, len(flags))):
            flags[idx] = 1


_SLOT = 40  #: slot stride; objects of up to 48 bytes overlap the next slot
engine_ops = st.one_of(
    st.tuples(st.just("alloc"), st.integers(0, 5), st.integers(1, 48),
              st.sampled_from([1, 0xFFFF])),
    st.tuples(st.just("free"), st.integers(0, 5)),
    st.tuples(st.just("access"), st.integers(-8, 6 * _SLOT),
              st.integers(1, 24), st.booleans(),
              st.sampled_from([AccessKind.DATA, AccessKind.RANGE,
                               AccessKind.DMA, AccessKind.FETCH])),
    st.tuples(st.just("init"), st.integers(-8, 6 * _SLOT),
              st.integers(0, 64)),
)


@settings(max_examples=200, deadline=None)
@given(sequence=st.lists(engine_ops, min_size=1, max_size=40))
def test_engine_matches_byte_loops(sequence):
    engines = [KmsanEngine(ReportSink()), _LoopKmsan(ReportSink())]
    for pc, op in enumerate(sequence):
        for engine in engines:
            if op[0] == "alloc":
                engine.on_alloc(ADDR + op[1] * _SLOT, op[2], op[3])
            elif op[0] == "free":
                engine.on_free(ADDR + op[1] * _SLOT)
            elif op[0] == "access":
                _, offset, size, write, kind = op
                engine.check(Access(ADDR + offset, size, write, pc=pc,
                                    task=1, kind=kind))
            else:
                engine.mark_initialized(ADDR + op[1], op[2])
    fast, loops = engines
    assert fast.checks == loops.checks
    assert list(fast._objects.items()) == list(loops._objects.items())
    def reports(engine):
        return [(r.bug_type, r.addr, r.size, r.pc, r.detail)
                for r in engine.sink.reports]

    assert reports(fast) == reports(loops)


class TestRuntimeIntegration:
    def test_kmsan_requires_mode_c(self):
        with pytest.raises(DslError):
            RuntimeConfig(sanitizers=("kmsan",), mode="d").validate()

    def build(self):
        return build_with_embsan(
            "kmsan-test", "x86", small_linux_factory,
            InstrumentationMode.EMBSAN_C, sanitizers=("kasan", "kmsan"),
        )

    def test_uninit_read_detected(self):
        image, runtime = self.build()
        k, ctx = image.kernel, image.ctx
        # ringbuf maps are kmalloc'd: the data area is never written
        map_id = k.do_syscall(ctx, S.BPF, 1, 0x40, 0, 0)
        k.do_syscall(ctx, S.BPF, 5, map_id, 2, 0)  # lookup reads a slot
        assert runtime.sink.has(BugType.UNINIT_READ, "bpf_map_lookup")

    def test_zeroed_allocations_clean(self):
        image, runtime = self.build()
        k, ctx = image.kernel, image.ctx
        # watch queues are kzalloc'd: reads of fresh state are fine
        qid = k.do_syscall(ctx, S.WATCHQ, 1, 0, 0, 0)
        k.do_syscall(ctx, S.WATCHQ, 3, 5, 0, 0)  # broadcast reads headers
        assert not runtime.sink.has(BugType.UNINIT_READ)

    def test_kasan_still_works_alongside(self):
        image, runtime = self.build()
        image.kernel.bugs.enable("t2_07_watch_queue_set_filter")
        k, ctx = image.kernel, image.ctx
        qid = k.do_syscall(ctx, S.WATCHQ, 1, 0, 0, 0)
        k.do_syscall(ctx, S.WATCHQ, 4, qid, 4, 0)
        assert runtime.sink.has(BugType.SLAB_OOB)


class TestDistillation:
    def test_kmsan_reference_distills(self):
        from repro.sanitizers.distiller import distill_reference

        spec = distill_reference("kmsan")
        events = spec.events()
        assert events["load"] == ("addr", "size")
        assert events["mark-init"] == ("addr", "size")
        assert "alloc" in events and "free" in events

    def test_three_way_merge(self):
        from repro.sanitizers.distiller import distill_reference
        from repro.sanitizers.dsl.compiler import merge_sanitizers

        merged = merge_sanitizers([
            distill_reference("kasan"),
            distill_reference("kcsan"),
            distill_reference("kmsan"),
        ])
        assert merged.sanitizers == ("kasan", "kcsan", "kmsan")
        load = [n for n in merged.intercepts if n.event == "load"][0]
        notes = dict(load.annotations)
        assert notes["addr"] == "kasan,kcsan,kmsan"
