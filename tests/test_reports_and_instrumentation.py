"""Unit tests: report sink semantics and compile-time instrumentation."""

import json

import pytest

from repro.emulator.events import EventKind
from repro.emulator.hypercalls import DUMMY_SANITIZER_CALLS, Hypercall
from repro.errors import SanitizerViolation
from repro.firmware.instrument import CompileTimeInstrumentation
from repro.guest.module import GuestModule, guestfn
from repro.sanitizers.runtime.reports import BugType, ReportSink, SanitizerReport


def report(bug=BugType.UAF, loc="fn_a", addr=0x100):
    return SanitizerReport("kasan", bug, addr, 4, False, 0x10, 1, location=loc)


class TestReportSink:
    def test_dedup(self):
        sink = ReportSink()
        sink.emit(report())
        sink.emit(report())
        sink.emit(report(loc="fn_b"))
        assert sink.count() == 3
        assert sink.unique_count() == 2

    def test_symbolizer_applied(self):
        sink = ReportSink(symbolizer=lambda pc: f"sym_{pc:#x}")
        out = sink.emit(SanitizerReport(
            "kasan", BugType.SLAB_OOB, 0x100, 4, True, 0x40, 1))
        assert out.location == "sym_0x40"

    def test_panic_mode(self):
        sink = ReportSink(panic_on_report=True)
        with pytest.raises(SanitizerViolation):
            sink.emit(report())

    def test_listeners(self):
        sink = ReportSink()
        seen = []
        sink.listeners.append(seen.append)
        sink.emit(report())
        sink.emit(report())
        assert len(seen) == 2  # pre-dedup stream

    def test_census_classes(self):
        assert BugType.SLAB_OOB.census_class == "OOB Access"
        assert BugType.GLOBAL_OOB.census_class == "OOB Access"
        assert BugType.NULL_DEREF.census_class == "OOB Access"
        assert BugType.UAF.census_class == "UAF"
        assert BugType.DOUBLE_FREE.census_class == "Double Free"
        assert BugType.DATA_RACE.census_class == "Race"

    def test_report_text_format(self):
        text = str(report())
        assert text.startswith("BUG: KASAN: use-after-free in fn_a")
        assert "read of size 4" in text

    def test_clear(self):
        sink = ReportSink()
        sink.emit(report())
        sink.clear()
        assert sink.count() == 0 and sink.unique_count() == 0


class Toucher(GuestModule):
    @guestfn(name="touch")
    def touch(self, ctx, addr):
        ctx.st32(addr, 1)
        ctx.ld32(addr)
        ctx.memcpy(addr + 8, addr, 4)
        return 0


class TestCompileTimeInstrumentation:
    def test_hypercalls_emitted(self, machine, ctx):
        hooks = CompileTimeInstrumentation()
        ctx.add_san_hooks(hooks)
        seen = []
        machine.hooks.add(EventKind.VMCALL, seen.append)
        module = Toucher(name="touch").install(ctx)
        sram = machine.arch.region("sram")
        module.touch(ctx, sram.base)
        numbers = [event.number for event in seen]
        assert Hypercall.SAN_STORE in numbers
        assert Hypercall.SAN_LOAD in numbers
        assert Hypercall.SAN_RANGE_READ in numbers
        assert Hypercall.SAN_RANGE_WRITE in numbers
        assert hooks.emitted == len(seen)

    def test_read_only_knob(self, machine, ctx):
        hooks = CompileTimeInstrumentation(check_writes=False)
        ctx.add_san_hooks(hooks)
        seen = []
        machine.hooks.add(EventKind.VMCALL, seen.append)
        module = Toucher(name="touch2").install(ctx)
        sram = machine.arch.region("sram")
        module.touch(ctx, sram.base)
        numbers = {event.number for event in seen}
        assert Hypercall.SAN_STORE not in numbers
        assert Hypercall.SAN_LOAD in numbers

    def test_dummy_library_call_set(self):
        # every instrumentation hypercall belongs to the dummy library
        emitted = {
            Hypercall.SAN_LOAD, Hypercall.SAN_STORE, Hypercall.SAN_ALLOC,
            Hypercall.SAN_FREE, Hypercall.SAN_SLAB_PAGE,
            Hypercall.SAN_GLOBAL_REG, Hypercall.SAN_STACK_VAR,
            Hypercall.SAN_STACK_LEAVE, Hypercall.SAN_RANGE_READ,
            Hypercall.SAN_RANGE_WRITE,
        }
        assert emitted <= DUMMY_SANITIZER_CALLS


class TestLazyShadowDump:
    """KASAN captures the shadow bytes at report time and renders the
    dump text on first read; what a report shows must not change."""

    @staticmethod
    def _report_with_text(image, runtime):
        """Trigger one KASAN report; returns it with the dump text
        rendered from live shadow at report time."""
        from repro.os.embedded_linux.syscalls import Syscall as S

        texts = []
        runtime.sink.listeners.append(
            lambda r: texts.append(runtime.shadow.dump_around(r.addr)))
        image.kernel.bugs.enable("t2_07_watch_queue_set_filter")
        k, ctx = image.kernel, image.ctx
        qid = k.do_syscall(ctx, S.WATCHQ, 1, 0, 0, 0)
        k.do_syscall(ctx, S.WATCHQ, 4, qid, 4, 0)
        report = runtime.sink.reports[0]
        assert report.tool == "kasan" and texts[0]
        return report, texts[0]

    def test_dump_survives_later_poisoning(self, linux_c):
        image, runtime = linux_c
        report, text = self._report_with_text(image, runtime)
        assert not isinstance(report._shadow_dump, str)  # not yet rendered
        runtime.shadow.unpoison(report.addr - 64, 128)
        runtime.shadow.poison(report.addr - 32, 16, 0xFF)
        assert runtime.shadow.dump_around(report.addr) != text
        assert report.shadow_dump == text
        assert text in str(report)

    def test_dump_survives_fork_server_restore(self, linux_c):
        from repro.emulator.snapshot import ForkServer

        image, runtime = linux_c
        fork = ForkServer(image.machine)
        report, text = self._report_with_text(image, runtime)
        fork.restore()
        assert runtime.sink.count() == 0
        assert report.shadow_dump == text

    def test_checkpoint_codec_round_trips_byte_identically(self, linux_c):
        from repro.fuzz.checkpoint import _report_from_json, _report_to_json

        image, runtime = linux_c
        report, text = self._report_with_text(image, runtime)
        encoded = json.dumps(_report_to_json(report), sort_keys=True)
        decoded = _report_from_json(json.loads(encoded))
        assert decoded.shadow_dump == text
        assert json.dumps(_report_to_json(decoded), sort_keys=True) == encoded
        assert str(decoded) == str(report)
