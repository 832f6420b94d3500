"""Events are built and routed only for subscribers.

The machine attaches its bus observer exactly while MEM_ACCESS has
subscribers, and builds hypercall/call/return payloads only when their
kind has one.  These tests pin that down and check that an observer
that subscribes to everything (the Prober's dry-run recorder) still
sees every event, in order.
"""

import pytest

import repro.emulator.machine as machine_module
from repro.emulator.events import EventKind
from repro.emulator.hypercalls import Hypercall
from repro.firmware.builder import build_image
from repro.firmware.instrument import InstrumentationMode
from repro.os.embedded_linux.syscalls import Syscall as S
from repro.sanitizers.prober.recorder import DryRunRecorder
from repro.sanitizers.runtime.runtime import (
    CommonSanitizerRuntime,
    RuntimeConfig,
)
from tests.conftest import small_linux_factory


def _attached(machine) -> bool:
    return any(o is machine._bus_observer for o in machine.bus._observers)


class TestBusObserverGating:
    def test_unsubscribed_machine_has_no_bus_observer(self, machine):
        assert machine.bus._observers == ()
        machine.hooks.add(EventKind.VMCALL, lambda e: None)
        assert machine.bus._observers == ()

    def test_follows_add_and_remove(self, machine):
        first, second = (lambda a: None), (lambda a: None)
        machine.hooks.add(EventKind.MEM_ACCESS, first)
        assert _attached(machine)
        machine.hooks.add(EventKind.MEM_ACCESS, second)
        assert machine.bus._observers == (machine._bus_observer,)
        machine.hooks.remove(EventKind.MEM_ACCESS, first)
        assert _attached(machine)
        machine.hooks.remove(EventKind.MEM_ACCESS, second)
        assert not _attached(machine)
        # removing a handler that is not there changes nothing
        machine.hooks.remove(EventKind.MEM_ACCESS, first)
        assert not _attached(machine)

    @pytest.mark.parametrize("scope", ["kind", "all"])
    def test_follows_clear(self, machine, scope):
        machine.hooks.add(EventKind.MEM_ACCESS, lambda a: None)
        machine.hooks.add(EventKind.VMCALL, lambda e: None)
        machine.hooks.clear(EventKind.MEM_ACCESS if scope == "kind" else None)
        assert not _attached(machine)
        machine.hooks.add(EventKind.MEM_ACCESS, lambda a: None)
        assert _attached(machine)

    def test_other_observers_are_left_alone(self, machine):
        raw = []
        machine.bus.add_observer(raw.append)
        handler = machine.hooks.add(EventKind.MEM_ACCESS, lambda a: None)
        machine.hooks.remove(EventKind.MEM_ACCESS, handler)
        assert machine.bus._observers == (raw.append,)
        dram = next(r for r in machine.bus.regions if r.kind == "dram")
        machine.bus.load(dram.base, 4)
        assert len(raw) == 1

    @pytest.mark.parametrize("mode", ["c", "d"])
    def test_runtime_subscribes_bus_accesses_only_in_mode_d(self, machine, mode):
        runtime = CommonSanitizerRuntime(machine, RuntimeConfig(mode=mode))
        runtime.attach()
        assert _attached(machine) is (mode == "d")
        runtime.detach()
        assert not _attached(machine)


class TestPayloadsOnlyForSubscribers:
    @pytest.fixture
    def no_payloads(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("event built with no subscriber")

        for name in ("VmcallEvent", "CallEvent", "RetEvent"):
            monkeypatch.setattr(machine_module, name, refuse)

    def test_nothing_built_without_subscribers(self, machine, no_payloads):
        machine.vmcall(Hypercall.SAN_LOAD, [0, 4, 0])
        machine.emit_call(0x10, 0x20, [1, 2], "fn")
        machine.emit_ret(0x20, 0, "fn")
        machine._on_isa_call(0x10, 0x20, [1], 0x14)
        machine._on_isa_ret(0x20, 0)

    def test_vmcall_dispatch_in_registration_order(self, machine):
        seen = []
        machine.hooks.add(EventKind.VMCALL, lambda e: seen.append(("a", e)))
        machine.hooks.add(EventKind.VMCALL, lambda e: seen.append(("b", e)))
        args = [1, 2, 3]
        machine.vmcall(Hypercall.COV_TRACE_PC, args, pc=0x40, task=3)
        assert [tag for tag, _ in seen] == ["a", "b"]
        event = seen[0][1]
        assert event is seen[1][1]
        assert (event.number, event.args, event.pc, event.task) == \
            (Hypercall.COV_TRACE_PC, [1, 2, 3], 0x40, 3)
        assert event.args is not args  # subscribers get a copy


class TestJitMemFlags:
    """Compiled traces may bypass the bus exactly as before: while no
    one but the machine's (MEM_ACCESS-less) fan-out would observe."""

    @staticmethod
    def _reference(machine):
        bus = machine.bus
        quiet = (not bus._silent_depth
                 and all(o is machine._bus_observer for o in bus._observers)
                 and not machine.hooks.has_handlers(EventKind.MEM_ACCESS))
        no_fault = bus.fault_plan is None
        no_wlog = bus._dirty is None
        return quiet and no_fault, quiet and no_wlog, no_fault, no_wlog

    @pytest.mark.parametrize("mode,expected", [
        (None, (True, True, True, True)),
        ("c", (True, True, True, True)),
        ("d", (False, False, True, True)),
    ])
    def test_flags(self, machine, mode, expected):
        core = machine.add_cpu()
        if mode is not None:
            CommonSanitizerRuntime(machine, RuntimeConfig(mode=mode)).attach()
        assert core._jit_mem_flags() == expected
        assert core._jit_mem_flags() == self._reference(machine)


class TestRecorderSeesEverything:
    def test_every_event_in_sequence_order(self):
        image = build_image("gating", "x86", small_linux_factory,
                            mode=InstrumentationMode.EMBSAN_C, boot=False)
        machine = image.machine
        recorder = DryRunRecorder(machine)
        # registered after the recorder: each event's recorder sequence
        log = []
        for kind in (EventKind.CALL, EventKind.RET, EventKind.MEM_ACCESS,
                     EventKind.VMCALL, EventKind.CONSOLE):
            machine.hooks.add(
                kind, lambda e, kind=kind: log.append((kind, e, recorder._seq)))
        raw = []
        machine.bus.add_observer(raw.append)
        image.boot()
        kernel, ctx = image.kernel, image.ctx
        qid = kernel.do_syscall(ctx, S.WATCHQ, 1, 0, 0, 0)
        kernel.do_syscall(ctx, S.WATCHQ, 4, qid, 4, 0)

        assert [seq for _, _, seq in log] == list(range(1, len(log) + 1))

        def of(kind):
            return [e for k, e, _ in log if k is kind]

        accesses = of(EventKind.MEM_ACCESS)
        assert accesses and len(accesses) == len(raw)
        assert all(a is b for a, b in zip(accesses, raw))
        assert all(a is b for a, b in zip(recorder.accesses, accesses))
        vmcalls = of(EventKind.VMCALL)
        assert vmcalls and recorder.vmcalls == vmcalls
        assert {e.number for e in vmcalls} >= {
            Hypercall.SAN_STORE, Hypercall.SAN_ALLOC, Hypercall.READY}
        call_seqs = [seq for k, _, seq in log if k is EventKind.CALL]
        rets = of(EventKind.RET)
        assert call_seqs and len(rets) == len(call_seqs)
        assert sorted(r.seq for r in recorder.calls) == call_seqs
