"""The Common Sanitizer Runtime (§3.3).

Accepts the distilled sanitizer specification and the probed platform
configuration (both arrive as plain config objects, normally compiled
from the SanSpec DSL), then wires the KASAN/KCSAN engines to the
machine:

* **EMBSAN-C** — subscribes to the dummy-sanitizer-library hypercalls
  (``SAN_LOAD``/``SAN_STORE``/``SAN_ALLOC``/...) that instrumented
  firmware issues; the hypercall fast path of the paper.
* **EMBSAN-D** — subscribes to raw bus accesses, injects probes into
  every attached TCG engine's translation templates, and reconstructs
  allocator semantics from CALL/RET events at the entry points the
  Prober identified.

State-maintenance events (allocations, globals, stack frames) are
processed from the moment of attachment; *validation* begins at the
firmware's ready-to-run point, detected by hypercall or by the probed
console banner.  Alternatively :meth:`apply_init_routine` replays a
Prober-recorded initialization sequence onto a started machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.costmodel import CostModel, DEFAULT_COSTS
from repro.emulator.events import (
    CallEvent,
    ConsoleEvent,
    EventKind,
    RetEvent,
    VmcallEvent,
)
from repro.emulator.hypercalls import Hypercall
from repro.emulator.machine import Machine
from repro.errors import DslError
from repro.mem.access import Access, AccessKind
from repro.sanitizers.runtime.kasan import KasanEngine
from repro.sanitizers.runtime.kcsan import KcsanEngine
from repro.sanitizers.runtime.reports import ReportSink
from repro.sanitizers.runtime.shadow import ShadowMemory

from repro.os.embedded_linux.buddy import PAGE_SIZE

_SAN_LOAD = int(Hypercall.SAN_LOAD)
_SAN_STORE = int(Hypercall.SAN_STORE)
_DATA = AccessKind.DATA
_FETCH = AccessKind.FETCH
_RANGE = AccessKind.RANGE


@dataclass(frozen=True)
class AllocFnSpec:
    """One allocator entry point, as identified by the Prober."""

    addr: int
    kind: str  #: "alloc" or "free"
    name: str = ""
    size_arg: int = 0  #: which ABI argument carries the size (alloc)
    size_kind: str = "bytes"  #: "bytes" or "page_order"
    addr_arg: int = 0  #: which ABI argument carries the pointer (free)
    cache_hint: int = 0

    def size_from(self, args: List[int]) -> int:
        """Derive the allocation size from call arguments."""
        raw = args[self.size_arg] if self.size_arg < len(args) else 0
        if self.size_kind == "page_order":
            return PAGE_SIZE << min(raw, 16)
        return raw


@dataclass(frozen=True)
class ReadySpec:
    """How the runtime recognizes the firmware's ready-to-run state."""

    kind: str = "hypercall"  #: "hypercall" or "banner"
    banner: bytes = b""


@dataclass
class RuntimeConfig:
    """Everything the Common Sanitizer Runtime needs to start."""

    sanitizers: Tuple[str, ...] = ("kasan",)
    mode: str = "c"  #: "c" (hypercall fast path) or "d" (dynamic probes)
    alloc_fns: Tuple[AllocFnSpec, ...] = ()
    ready: ReadySpec = field(default_factory=ReadySpec)
    panic_on_report: bool = False
    costs: CostModel = DEFAULT_COSTS

    def validate(self) -> None:
        """Reject configurations the runtime cannot honor."""
        if self.mode not in ("c", "d"):
            raise DslError(f"unknown runtime mode {self.mode!r}")
        unknown = set(self.sanitizers) - {"kasan", "kcsan", "kmsan"}
        if unknown:
            raise DslError(f"unknown sanitizers {sorted(unknown)}")
        if "kmsan" in self.sanitizers and self.mode != "c":
            # like the real KMSAN, uninit tracking needs compile-time
            # instrumentation: there is no binary-only variant
            raise DslError("kmsan functionality requires mode 'c' "
                           "(compile-time instrumentation)")
        if self.mode == "d" and self.ready.kind == "banner" and not self.ready.banner:
            raise DslError("banner ready-detection requires banner bytes")


class CommonSanitizerRuntime:
    """Attach sanitizer engines to one machine."""

    def __init__(
        self,
        machine: Machine,
        config: RuntimeConfig,
        symbolizer: Optional[Callable[[int], str]] = None,
    ):
        config.validate()
        self.machine = machine
        self.config = config
        self.costs = config.costs
        self.shadow = ShadowMemory(machine.bus)
        self.sink = ReportSink(
            panic_on_report=config.panic_on_report, symbolizer=symbolizer
        )
        self.kasan: Optional[KasanEngine] = None
        self.kcsan: Optional[KcsanEngine] = None
        self.kmsan = None
        if "kasan" in config.sanitizers:
            self.kasan = KasanEngine(self.shadow, self.sink)
        if "kcsan" in config.sanitizers:
            self.kcsan = KcsanEngine(self.sink)
        if "kmsan" in config.sanitizers:
            from repro.sanitizers.runtime.kmsan import KmsanEngine

            self.kmsan = KmsanEngine(self.sink)
        self.enabled = False
        self.attached = False
        self._alloc_map: Dict[int, AllocFnSpec] = {
            spec.addr: spec for spec in config.alloc_fns
        }
        #: per-task stacks of in-flight allocator calls
        self._pending: Dict[int, List[Tuple[AllocFnSpec, int]]] = {}
        self._suppress = 0
        self._console_tail = b""
        self._handlers: List[Tuple[EventKind, Callable]] = []
        self.events_handled = 0
        #: §4.3 composition: where the added cycles go
        self.breakdown: Dict[str, float] = {
            "interception": 0.0, "checks": 0.0, "allocator": 0.0,
            "range": 0.0,
        }
        #: the scalar access check, compiled once for the configured mode
        self._check: Callable[[Access], None] = self._compile_check(config.mode)
        #: EMBSAN-D probe injected into TCG templates and subscribed to
        #: MEM_ACCESS, bound once so removal by identity works
        self._probe_cb: Callable[[Access], None] = self._on_access
        #: hypercall number -> handler for every SAN_* call other than
        #: SAN_LOAD/SAN_STORE (which :meth:`_on_vmcall` tests first)
        self._vmcall_table: Dict[int, Callable[[VmcallEvent], None]] = (
            self._build_vmcall_table()
        )

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------
    def attach(self) -> "CommonSanitizerRuntime":
        """Subscribe to machine events according to the configured mode."""
        if self.attached:
            return self
        hooks = self.machine.hooks
        self._subscribe(hooks, EventKind.READY, self._on_ready)
        if self.config.mode == "c":
            self._subscribe(hooks, EventKind.VMCALL, self._on_vmcall)
        else:
            self._subscribe(hooks, EventKind.MEM_ACCESS, self._probe_cb)
            self._subscribe(hooks, EventKind.CALL, self._on_call)
            self._subscribe(hooks, EventKind.RET, self._on_ret)
            if self.config.ready.kind == "banner":
                self._subscribe(hooks, EventKind.CONSOLE, self._on_console)
            # patch probes into every TCG engine's translation templates,
            # including engines attached after us (created at guest boot)
            for engine in self.machine.engines:
                self._inject_probe(engine)
            self.machine.engine_listeners.append(self._inject_probe)
        # register as a state provider so a fork-server restore keeps
        # shadow memory and allocator maps coherent with guest memory
        self.machine.state_providers.append(self)
        self.attached = True
        return self

    def _inject_probe(self, engine) -> None:
        add_probe = getattr(engine, "add_mem_probe", None)
        if add_probe is not None:
            add_probe(self._probe_cb)

    def detach(self) -> None:
        """Unsubscribe everything (end of a testing campaign)."""
        for kind, handler in self._handlers:
            self.machine.hooks.remove(kind, handler)
        for engine in self.machine.engines:
            remove_probe = getattr(engine, "remove_mem_probe", None)
            if remove_probe is not None:
                remove_probe(self._probe_cb)
        if self._inject_probe in self.machine.engine_listeners:
            self.machine.engine_listeners.remove(self._inject_probe)
        if self in self.machine.state_providers:
            self.machine.state_providers.remove(self)
        self._handlers.clear()
        self.attached = False

    # ------------------------------------------------------------------
    # state-provider protocol
    # ------------------------------------------------------------------
    def save_state(self) -> dict:
        """Capture semantic sanitizer state for the fork server.

        Diagnostic counters (checks, events_handled, cycle breakdown) are
        deliberately excluded: they are monotonic telemetry, not guest
        state, and restoring them would hide work the machine really did.
        """
        state = {
            "enabled": self.enabled,
            "shadow": self.shadow.save_state(),
            "suppress": self._suppress,
            "pending": {task: list(stack) for task, stack in self._pending.items()},
            "console_tail": self._console_tail,
        }
        if self.kasan is not None:
            state["kasan_live"] = dict(self.kasan.live)
            state["kasan_freed"] = self.kasan.freed.save_state()
            state["kasan_suppress"] = self.kasan.suppress_depth
        if self.kcsan is not None:
            state["kcsan_seq"] = self.kcsan._seq
            state["kcsan_watches"] = {
                addr: list(watches)
                for addr, watches in self.kcsan._watches.items()
            }
            state["kcsan_suppress"] = self.kcsan.suppress_depth
        if self.kmsan is not None:
            state["kmsan_objects"] = {
                base: bytes(flags)
                for base, flags in self.kmsan._objects.items()
            }
            state["kmsan_mutations"] = self.kmsan.mutations
        return state

    def load_state(self, state: dict) -> None:
        """Restore state captured by :meth:`save_state`."""
        self.shadow.load_state(state["shadow"])
        self._load_semantic(state)

    def load_state_delta(self, state: dict) -> None:
        """Restore :meth:`save_state` output copying only dirty shadow pages.

        The fork server's fast path: shadow pages untouched since the
        golden capture already hold the golden bytes, so only the pages
        the session poisoned copy back.  Everything else save_state
        carries (allocator maps, pending stacks, watchpoints) is small
        and restores in full.
        """
        self.shadow.load_state_delta(state["shadow"])
        self._load_semantic(state)

    def _load_semantic(self, state: dict) -> None:
        self.enabled = state["enabled"]
        self._suppress = state["suppress"]
        self._pending = {
            task: list(stack) for task, stack in state["pending"].items()
        }
        self._console_tail = state["console_tail"]
        if self.kasan is not None and "kasan_live" in state:
            self.kasan.live = dict(state["kasan_live"])
            self.kasan.reindex()
            self.kasan.freed.load_state(state["kasan_freed"])
            self.kasan.suppress_depth = state["kasan_suppress"]
        if self.kcsan is not None and "kcsan_seq" in state:
            self.kcsan._seq = state["kcsan_seq"]
            self.kcsan._watches = {
                addr: list(watches)
                for addr, watches in state["kcsan_watches"].items()
            }
            self.kcsan.suppress_depth = state["kcsan_suppress"]
        if self.kmsan is not None and "kmsan_objects" in state:
            # insertion order is lookup order (KmsanEngine._find)
            self.kmsan._objects = {
                base: bytearray(flags)
                for base, flags in state["kmsan_objects"].items()
            }
            self.kmsan.mutations = state["kmsan_mutations"]

    def state_epoch(self) -> tuple:
        """Cheap fingerprint of the semantic state :meth:`save_state` covers.

        Every mutation of that state moves at least one component:
        shadow/allocator transitions bump ``shadow.poison_ops`` (each
        live-map or quarantine change is paired with a poison or
        unpoison), KCSAN watchpoint recording bumps ``_seq``, KMSAN bumps
        ``mutations`` on every alloc, free and initializing store, and
        in-flight allocator bookkeeping shows up in the suppress depth
        and pending stacks.  Equal epochs therefore mean the semantic
        state is byte-identical, letting a delta restore skip the reload
        entirely.  Pure telemetry (check counters, the cycle breakdown)
        deliberately moves nothing here.
        """
        pending = tuple(
            (task, tuple(stack))
            for task, stack in self._pending.items()
            if stack
        )
        epoch: tuple = (
            self.enabled,
            self._suppress,
            pending,
            self._console_tail,
            self.shadow.poison_ops,
        )
        if self.kasan is not None:
            epoch += (
                self.kasan.allocs,
                self.kasan.frees,
                self.kasan.suppress_depth,
            )
        if self.kcsan is not None:
            epoch += (self.kcsan._seq, self.kcsan.suppress_depth)
        if self.kmsan is not None:
            epoch += (self.kmsan.mutations,)
        return epoch

    # ------------------------------------------------------------------
    # telemetry capture (fork-server restore ≡ rebuild contract)
    # ------------------------------------------------------------------
    def save_telemetry(self) -> dict:
        """Capture the diagnostic counters :meth:`save_state` excludes.

        A rebuild-per-refresh run starts each session from the fresh
        post-boot counter values; a fork-server restore reproduces that
        by rewinding the counters (and the report sink) to their golden
        values, so harvested metrics read golden-base + session-delta in
        both execution modes.
        """
        telemetry = {
            "events_handled": self.events_handled,
            "breakdown": dict(self.breakdown),
            "shadow": (
                self.shadow.poison_ops,
                self.shadow.check_ops,
                self.shadow.fastpath_hits,
            ),
            "reports": list(self.sink.reports),
            "unique": dict(self.sink.unique),
            "listeners": list(self.sink.listeners),
        }
        if self.kasan is not None:
            telemetry["kasan"] = (
                self.kasan.checks,
                self.kasan.allocs,
                self.kasan.frees,
                self.kasan.freed.pushes,
                self.kasan.freed.evictions,
            )
        if self.kcsan is not None:
            telemetry["kcsan"] = (self.kcsan.checks, self.kcsan.races_seen)
        if self.kmsan is not None:
            telemetry["kmsan"] = self.kmsan.checks
        return telemetry

    def load_telemetry(self, telemetry: dict) -> None:
        """Rewind counters and the report sink to a captured state."""
        self.events_handled = telemetry["events_handled"]
        self.breakdown = dict(telemetry["breakdown"])
        (
            self.shadow.poison_ops,
            self.shadow.check_ops,
            self.shadow.fastpath_hits,
        ) = telemetry["shadow"]
        self.sink.reports[:] = telemetry["reports"]
        self.sink.unique.clear()
        self.sink.unique.update(telemetry["unique"])
        self.sink.listeners[:] = telemetry["listeners"]
        if self.kasan is not None and "kasan" in telemetry:
            (
                self.kasan.checks,
                self.kasan.allocs,
                self.kasan.frees,
                self.kasan.freed.pushes,
                self.kasan.freed.evictions,
            ) = telemetry["kasan"]
        if self.kcsan is not None and "kcsan" in telemetry:
            self.kcsan.checks, self.kcsan.races_seen = telemetry["kcsan"]
        if self.kmsan is not None and "kmsan" in telemetry:
            self.kmsan.checks = telemetry["kmsan"]

    def _subscribe(self, hooks, kind: EventKind, handler: Callable) -> None:
        hooks.add(kind, handler)
        self._handlers.append((kind, handler))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _on_ready(self, _payload) -> None:
        self.enabled = True

    def _on_console(self, event: ConsoleEvent) -> None:
        if self.enabled:
            return
        banner = self.config.ready.banner
        self._console_tail = (self._console_tail + bytes([event.byte]))[-len(banner):]
        if self._console_tail == banner:
            self.enabled = True
            self.machine.mark_ready()

    def apply_init_routine(self, routine) -> None:
        """Replay a Prober-recorded initialization sequence (DSL ops).

        ``routine`` is an iterable of ``(op, args)`` pairs as produced by
        :mod:`repro.sanitizers.prober`; it seeds engine state so the
        runtime can attach to an already-booted snapshot.
        """
        for op, args in routine:
            if op == "alloc" and self.kasan is not None:
                self.kasan.on_alloc(*args)
            elif op == "free" and self.kasan is not None:
                self.kasan.on_free(*args)
            elif op == "global" and self.kasan is not None:
                self.kasan.register_global(*args)
            elif op == "ready":
                self.enabled = True
            else:  # pragma: no cover - defensive
                raise DslError(f"unknown init-routine op {op!r}")

    # ------------------------------------------------------------------
    # EMBSAN-C: hypercall fast path
    # ------------------------------------------------------------------
    def _on_vmcall(self, event: VmcallEvent) -> None:
        number = event.number
        self.events_handled += 1
        if number == _SAN_LOAD or number == _SAN_STORE:
            if self.enabled:
                args = event.args
                self._check(Access(
                    args[0], args[1] or 1, number == _SAN_STORE,
                    event.pc, event.task, _DATA,
                    bool(args[2]) if len(args) > 2 else False,
                ))
            return
        handler = self._vmcall_table.get(number)
        if handler is not None:
            handler(event)

    def _build_vmcall_table(self) -> Dict[int, Callable[[VmcallEvent], None]]:
        """Bind each remaining dummy-library hypercall to its handler;
        calls no configured engine consumes get no entry."""
        table: Dict[int, Callable[[VmcallEvent], None]] = {
            Hypercall.SAN_RANGE_READ: self._vm_range,
            Hypercall.SAN_RANGE_WRITE: self._vm_range,
        }
        if self.kasan is not None or self.kmsan is not None:
            table[Hypercall.SAN_ALLOC] = self._vm_alloc
            table[Hypercall.SAN_FREE] = self._vm_free
        if self.kasan is not None:
            table[Hypercall.SAN_SLAB_PAGE] = self._vm_slab_page
            table[Hypercall.SAN_GLOBAL_REG] = self._vm_global_reg
            table[Hypercall.SAN_STACK_VAR] = self._vm_stack_var
            table[Hypercall.SAN_STACK_LEAVE] = self._vm_stack_leave
        if self.kmsan is not None:
            table[Hypercall.SAN_MARK_INIT] = self._vm_mark_init
        # SAN_STACK_ENTER needs no handler: frame extent bookkeeping is
        # carried by the stack vars.  Hypercall is an IntEnum, so plain
        # int numbers from ISA traps find the same entries.
        return table

    def _vm_alloc(self, event: VmcallEvent) -> None:
        args = event.args
        if self.kasan is not None:
            self.kasan.on_alloc(args[0], args[1], args[2], event.pc, event.task)
            self._charge(self.costs.alloc_cost("c"), "allocator")
        if self.kmsan is not None:
            self.kmsan.on_alloc(args[0], args[1], args[2], event.pc, event.task)
            self._charge(self.costs.kmsan_c_alloc, "allocator")

    def _vm_free(self, event: VmcallEvent) -> None:
        if self.kasan is not None:
            self.kasan.on_free(event.args[0], event.pc, event.task)
            self._charge(self.costs.alloc_cost("c"), "allocator")
        if self.kmsan is not None:
            self.kmsan.on_free(event.args[0], event.pc, event.task)

    def _vm_mark_init(self, event: VmcallEvent) -> None:
        self.kmsan.mark_initialized(event.args[0], event.args[1])

    def _vm_slab_page(self, event: VmcallEvent) -> None:
        self.kasan.on_slab_page(event.args[0], event.args[1])

    def _vm_global_reg(self, event: VmcallEvent) -> None:
        args = event.args
        self.kasan.register_global(args[0], args[1], args[2])

    def _vm_stack_var(self, event: VmcallEvent) -> None:
        self.kasan.stack_var(event.args[0], event.args[1])

    def _vm_stack_leave(self, event: VmcallEvent) -> None:
        self.kasan.stack_clear(event.args[0], event.args[1])

    def _vm_range(self, event: VmcallEvent) -> None:
        if self.enabled:
            args = event.args
            self._check_range(
                args[0], args[1], event.number == Hypercall.SAN_RANGE_WRITE,
                event.pc, event.task, mode="c",
            )

    # ------------------------------------------------------------------
    # EMBSAN-D: dynamic interception
    # ------------------------------------------------------------------
    def _on_access(self, access: Access) -> None:
        if not self.enabled or self._suppress:
            return
        kind = access.kind
        if kind is _FETCH:
            return
        self.events_handled += 1
        if kind is _RANGE:
            self._check_range(access.addr, access.size, access.is_write,
                              access.pc, access.task, mode="d")
            return
        self._check(access)

    def _on_call(self, event: CallEvent) -> None:
        spec = self._alloc_map.get(event.target)
        if spec is None:
            return
        self.events_handled += 1
        self._suppress += 1
        stack = self._pending.setdefault(event.task, [])
        nested = bool(stack)
        if spec.kind == "alloc":
            stack.append((spec, spec.size_from(event.args)))
        else:
            addr = event.args[spec.addr_arg] if event.args else 0
            stack.append((spec, addr))
            # a free issued from inside another allocator call is that
            # allocator releasing backing store, not an object lifetime
            # event (e.g. kfree of a large object forwarding to the buddy)
            if not nested and self.kasan is not None:
                self.kasan.on_free(addr, event.pc, event.task)
                self._charge(self.costs.alloc_cost("d"), "allocator")

    def _on_ret(self, event: RetEvent) -> None:
        spec = self._alloc_map.get(event.target)
        if spec is None:
            return
        stack = self._pending.get(event.task)
        if not stack:
            return
        pending_spec, value = stack.pop()
        self._suppress = max(0, self._suppress - 1)
        if pending_spec.kind == "alloc" and self.kasan is not None:
            if event.retval:
                if stack and stack[-1][0].kind == "alloc":
                    # a page allocation nested inside another allocator is
                    # slab backing store: poison it like kasan_poison_slab
                    self.kasan.on_slab_page(event.retval, value)
                else:
                    self.kasan.on_alloc(
                        event.retval, value, pending_spec.cache_hint,
                        event.target, event.task,
                    )
                self._charge(self.costs.alloc_cost("d"), "allocator")

    # ------------------------------------------------------------------
    def _check_range(self, addr: int, size: int, is_write: bool,
                     pc: int, task: int, mode: str) -> None:
        access = Access(addr, size, is_write, pc, task, kind=AccessKind.RANGE)
        if self.kasan is not None:
            self._charge(self.costs.range_cost(size, mode, "kasan"), "range")
            self.kasan.check(access)
        if self.kcsan is not None:
            self._charge(self.costs.range_cost(size, mode, "kcsan"), "range")
            self.kcsan.check(access)
        if self.kmsan is not None:
            self._charge(self.costs.kmsan_c_check, "range")
            self.kmsan.check(access)

    def _compile_check(self, mode: str) -> Callable[[Access], None]:
        """Build the scalar access check for ``mode`` ("c" or "d").

        The returned closure is what an instrumented access costs, for
        every sanitizer set (a new engine's scalar check goes here: there
        is no generic fallback).  With KASAN on, an inlined
        addressable-granule test against the unified shadow proves the
        common clean access without the full validation walk; only
        non-zero shadow bytes fall into :meth:`KasanEngine.check` (report
        classification, partial granules, quarantine lookups).  KCSAN and
        KMSAN still observe *every* access (races and uninitialized bytes
        live on perfectly addressable memory).  Each engine charges its
        trap and then its check, as separate float additions onto
        ``overhead_cycles`` and ``breakdown`` in engine order (KASAN,
        KCSAN, KMSAN), so modeled cycles are bit-identical to charging
        them one :meth:`_charge` at a time.
        """
        machine = self.machine
        kasan = self.kasan
        kcsan = self.kcsan
        kmsan = self.kmsan
        clear_for = self.shadow.clear_for
        costs = self.costs
        if mode == "c":
            kasan_trap, kasan_check = costs.kasan_c_trap, costs.kasan_c_check
            kcsan_trap, kcsan_check = costs.kcsan_c_trap, costs.kcsan_c_check
        else:
            kasan_trap = costs.kasan_d_intercept
            kasan_check = costs.kasan_d_check
            kcsan_trap = costs.kcsan_d_intercept
            kcsan_check = costs.kcsan_d_check
        # KMSAN exists only in mode "c" (RuntimeConfig.validate)
        kmsan_trap, kmsan_check = costs.kmsan_c_trap, costs.kmsan_c_check

        def check(access: Access) -> None:
            # read at call time: load_telemetry rebinds the dict
            breakdown = self.breakdown
            if kasan is not None:
                machine.overhead_cycles += kasan_trap
                breakdown["interception"] += kasan_trap
                machine.overhead_cycles += kasan_check
                breakdown["checks"] += kasan_check
                if kasan.suppress_depth:
                    pass
                elif clear_for(access.addr, access.size):
                    kasan.checks += 1
                else:
                    kasan.check(access)
            if kcsan is not None:
                machine.overhead_cycles += kcsan_trap
                breakdown["interception"] += kcsan_trap
                machine.overhead_cycles += kcsan_check
                breakdown["checks"] += kcsan_check
                kcsan.check(access)
            if kmsan is not None:
                machine.overhead_cycles += kmsan_trap
                breakdown["interception"] += kmsan_trap
                machine.overhead_cycles += kmsan_check
                breakdown["checks"] += kmsan_check
                kmsan.check(access)

        return check

    def _charge(self, cycles: float, category: str) -> None:
        self.machine.charge_overhead(cycles)
        self.breakdown[category] += cycles

    def profile(self) -> Dict[str, float]:
        """The §4.3 composition analysis: fraction of added cycles per
        category (interception / checks / allocator / range)."""
        total = sum(self.breakdown.values())
        if total == 0:
            return {key: 0.0 for key in self.breakdown}
        return {key: value / total for key, value in self.breakdown.items()}

    # ------------------------------------------------------------------
    @property
    def reports(self) -> ReportSink:
        """The runtime's report sink."""
        return self.sink

    def stats(self) -> Dict[str, int]:
        """Diagnostic counters."""
        out = {
            "events_handled": self.events_handled,
            "shadow_checks": self.shadow.check_ops,
            "shadow_fastpath_hits": self.shadow.fastpath_hits,
            "shadow_poisons": self.shadow.poison_ops,
            "reports": self.sink.count(),
            "unique_reports": self.sink.unique_count(),
        }
        if self.kasan is not None:
            out["kasan_checks"] = self.kasan.checks
            out["kasan_live"] = self.kasan.live_count()
            out["kasan_allocs"] = self.kasan.allocs
            out["kasan_frees"] = self.kasan.frees
            out["quarantine_pushes"] = self.kasan.freed.pushes
            out["quarantine_evictions"] = self.kasan.freed.evictions
            out["quarantine_len"] = len(self.kasan.freed)
        if self.kcsan is not None:
            out["kcsan_checks"] = self.kcsan.checks
            out["kcsan_races"] = self.kcsan.races_seen
        if self.kmsan is not None:
            out["kmsan_checks"] = self.kmsan.checks
            out["kmsan_tracked_objects"] = self.kmsan.tracked_objects()
        return out
