"""Per-layer self time, measured from outside the program.

:class:`SpanStack` keeps the stack of open spans: a span's *self* time
is its duration minus the time its child spans cover, so nested layers
never double count and the self times of all spans plus the root's add
up to the traced wall time.  Aggregates (calls, self seconds) stay in
memory; only the coarse per-exec spans are kept one by one, keyed by
the exec index as request id.

:func:`install` wraps the public entry points of each layer at class
level and returns a function that restores them.  ``HookRegistry.add``
and ``TcgEngine.add_mem_probe`` are wrapped so that subscribers get
timed by the module they come from; their ``remove`` counterparts map
an original handler back to its wrapper, so ``remove(kind, handler)``
keeps working with the handler the caller registered.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: subscriber module prefix -> span name, for hook and probe handlers
HANDLER_LAYERS = (
    ("repro.sanitizers", "sanitizers.handler"),
    ("repro.fuzz.coverage", "fuzz.coverage"),
    ("repro.os", "os.isr"),
)


class SpanStack:
    """Nested span accounting with a root span covering the trace."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: integer tallies recorded by result hooks (insns, pages, ...)
        self.counts: Dict[str, int] = defaultdict(int)
        #: (exec index, wall seconds) of every fuzz-engine step
        self.execs: List[Tuple[int, float]] = []
        #: open frames: [start, child seconds]
        self._stack: List[list] = []
        #: reproduce_findings calls in progress
        self.replaying = 0
        self.wall_s = 0.0

    def start(self) -> None:
        """Open the root span (wrappers hold the stack list itself, so
        it is reset in place, never rebound)."""
        self._stack[:] = [[self.clock(), 0.0]]

    def stop(self) -> None:
        """Close the root span; its self time becomes ``harness``."""
        end = self.clock()
        start, child = self._stack.pop()
        if self._stack:
            raise RuntimeError("span stack not balanced at stop()")
        self.wall_s = end - start
        self.self_s["harness"] += self.wall_s - child

    def timed(self, name: str, fn: Callable,
              on_result: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span named ``name``.

        ``on_result(counts, result)`` runs after the call, inside the
        span, to tally a count from the return value.
        """
        stack = self._stack
        clock = self.clock
        self_s = self.self_s
        calls = self.calls
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(counts, result)
                return result
            finally:
                duration = clock() - frame[0]
                stack.pop()
                self_s[name] += duration - frame[1]
                calls[name] += 1
                stack[-1][1] += duration

        return wrapper

    def timed_step(self, fn: Callable) -> Callable:
        """``FuzzerEngine.step`` wrapped: span ``fuzz.engine`` plus one
        per-exec record keyed by the exec index."""
        inner = self.timed("fuzz.engine", fn)
        execs = self.execs
        clock = self.clock

        @functools.wraps(fn)
        def step(engine, *args, **kwargs):
            started = clock()
            try:
                return inner(engine, *args, **kwargs)
            finally:
                execs.append((engine.execs, clock() - started))

        return step


def _patch(patches: list, owner, attr: str, value) -> None:
    patches.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, value)


def install(spans: SpanStack) -> Callable[[], None]:
    """Wrap every layer's entry points; returns the undo function."""
    from repro.emulator.hooks import HookRegistry
    from repro.emulator.machine import Machine
    from repro.emulator.snapshot import ForkServer
    from repro.fuzz.engine import FuzzerEngine, FuzzTarget
    from repro.fuzz.ifspec import InterfaceSpec
    from repro.fuzz.program import Mutator
    from repro.isa.cpu import Cpu
    from repro.isa.tcg import TcgEngine
    from repro.mem.bus import MemoryBus
    from repro.os.common import KernelBase
    from repro.os.embedded_linux.kernel import EmbeddedLinuxKernel
    from repro.os.freertos.kernel import FreeRtosKernel
    from repro.os.liteos.kernel import LiteOsKernel
    from repro.os.vxworks.kernel import VxWorksKernel
    from repro.periph.irq import IrqSource
    from repro.periph.ring import DescriptorRing
    from repro.sanitizers.runtime.reports import ReportSink

    patches: list = []

    def wrap(owner, attr: str, name: str, on_result=None) -> None:
        _patch(patches, owner, attr,
               spans.timed(name, owner.__dict__[attr], on_result))

    # fuzz: engine bookkeeping, glue, input generation, reproduction
    _patch(patches, FuzzerEngine, "step",
           spans.timed_step(FuzzerEngine.__dict__["step"]))
    reproduce = FuzzerEngine.__dict__["reproduce_findings"]
    timed_reproduce = spans.timed("fuzz.reproduce", reproduce)

    @functools.wraps(reproduce)
    def reproducing(engine, *args, **kwargs):
        spans.replaying += 1
        try:
            return timed_reproduce(engine, *args, **kwargs)
        finally:
            spans.replaying -= 1

    _patch(patches, FuzzerEngine, "reproduce_findings", reproducing)
    wrap(Mutator, "mutate", "fuzz.mutate")
    wrap(InterfaceSpec, "generate_call", "fuzz.generate")

    execute = FuzzTarget.__dict__["execute"]
    timed_execute = spans.timed("fuzz.execute", execute)

    @functools.wraps(execute)
    def counted_execute(target, *args, **kwargs):
        if spans.replaying:
            spans.counts["replay_execs"] += 1
        return timed_execute(target, *args, **kwargs)

    _patch(patches, FuzzTarget, "execute", counted_execute)

    # firmware build (inside setup and every rebuild) and reset
    target_init = FuzzTarget.__dict__["__init__"]

    @functools.wraps(target_init)
    def init(target, make, *args, **kwargs):
        target_init(target, spans.timed("firmware.build", make),
                    *args, **kwargs)

    _patch(patches, FuzzTarget, "__init__", init)
    wrap(FuzzTarget, "reset", "reset")

    def restored(counts, stats) -> None:
        counts["restores"] += 1
        counts["restore_pages"] += stats.pages

    wrap(ForkServer, "restore", "reset", restored)

    # os: the kernel model's entry points
    wrap(EmbeddedLinuxKernel, "do_syscall", "os")
    wrap(KernelBase, "driver_invoke", "os")
    for kernel in (VxWorksKernel, FreeRtosKernel, LiteOsKernel):
        wrap(kernel, "invoke", "os")

    # emulator: hypercalls, hook fan-out, call/ret events
    wrap(Machine, "vmcall", "emulator.vmcall")
    wrap(HookRegistry, "emit", "emulator.hook")
    for attr in ("emit_call", "emit_ret", "_on_isa_call", "_on_isa_ret"):
        wrap(Machine, attr, "emulator.call_ret")

    # subscribers, timed by the module they come from
    add = HookRegistry.__dict__["add"]
    remove = HookRegistry.__dict__["remove"]

    def hook_add(registry, kind, handler):
        timed = _timed_handler(spans, handler)
        if timed is not handler:
            registry.__dict__.setdefault("_timed_handlers", []).append(
                (kind, handler, timed))
        add(registry, kind, timed)
        return handler

    def hook_remove(registry, kind, handler):
        remove(registry, kind, _unmap(registry, kind, handler))

    _patch(patches, HookRegistry, "add", hook_add)
    _patch(patches, HookRegistry, "remove", hook_remove)

    add_probe = TcgEngine.__dict__["add_mem_probe"]
    remove_probe = TcgEngine.__dict__["remove_mem_probe"]

    def probe_add(engine, probe):
        timed = _timed_handler(spans, probe, probe=True)
        if timed is not probe:
            engine.__dict__.setdefault("_timed_handlers", []).append(
                (None, probe, timed))
        add_probe(engine, timed)

    def probe_remove(engine, probe):
        remove_probe(engine, _unmap(engine, None, probe))

    _patch(patches, TcgEngine, "add_mem_probe", probe_add)
    _patch(patches, TcgEngine, "remove_mem_probe", probe_remove)

    wrap(ReportSink, "emit", "sanitizers.report")

    # mem: scalar and bulk bus traffic
    for attr in ("load", "load_silent"):
        wrap(MemoryBus, attr, "mem.load")
    for attr in ("store", "store_silent"):
        wrap(MemoryBus, attr, "mem.store")
    for attr in ("read_bytes", "write_bytes"):
        wrap(MemoryBus, attr, "mem.bulk")

    # isa: the EVM32 engines
    def ran(counts, steps) -> None:
        counts["isa_insns"] += steps

    wrap(TcgEngine, "run", "isa", ran)
    wrap(Cpu, "run", "isa", ran)

    # periph: descriptor rings and interrupt lines
    def retired(counts, done) -> None:
        counts["dma_descriptors"] += done

    def fired(counts, delivered) -> None:
        counts["irqs_delivered"] += int(bool(delivered))

    wrap(DescriptorRing, "process", "periph.ring", retired)
    wrap(IrqSource, "fire", "periph.irq", fired)

    def undo() -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        patches.clear()

    return undo


def _timed_handler(spans: SpanStack, handler, probe: bool = False):
    """The handler wrapped in its module's span, or itself.

    Sanitizer probes compiled into ISA translation templates get their
    own span, ``sanitizers.probe``: they are called directly by the
    engine, not dispatched through the hook registry.
    """
    module = getattr(handler, "__module__", None) or ""
    for prefix, name in HANDLER_LAYERS:
        if module.startswith(prefix):
            if probe:
                name = name.replace(".handler", ".probe")
            return spans.timed(name, handler)
    return handler


def _unmap(owner, kind, handler):
    """The wrapper registered for ``handler`` (by identity), or itself."""
    entries = owner.__dict__.get("_timed_handlers", [])
    for index, (k, original, timed) in enumerate(entries):
        if k == kind and original is handler:
            del entries[index]
            return timed
    return handler
