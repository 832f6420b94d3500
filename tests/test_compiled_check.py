"""Differential tests: the runtime's compiled access check.

``CommonSanitizerRuntime._compile_check`` builds the one scalar check an
instrumented access pays for (EMBSAN-C hypercalls and EMBSAN-D probes
alike, every sanitizer set).  ``_run_checks`` below is its reference,
frozen as the runtime's full validation walk was before the check was
compiled: two twin runtimes see the same allocator history and the same
accesses, one through the production entry point (``Machine.vmcall`` in
mode C, the injected probe in mode D), the other through
``_run_checks``, and every modeled cycle, counter, watchpoint, KMSAN
init flag and report must agree.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.costmodel import DEFAULT_COSTS
from repro.emulator.arch import arch_by_name
from repro.emulator.hypercalls import Hypercall
from repro.emulator.machine import Machine
from repro.mem.access import Access
from repro.sanitizers.runtime.runtime import (
    CommonSanitizerRuntime,
    RuntimeConfig,
)

#: (mode, sanitizers) pairs; KMSAN needs mode "c"
CONFIGS = [
    ("c", ("kasan",)),
    ("c", ("kasan", "kcsan")),
    ("c", ("kasan", "kmsan")),
    ("c", ("kasan", "kcsan", "kmsan")),
    ("d", ("kasan",)),
    ("d", ("kasan", "kcsan")),
]

#: per-access costs whose sums round differently when regrouped, so a
#: check that fuses or reorders its float additions shows up as unequal
#: cycles (the defaults are checked too)
AWKWARD_COSTS = DEFAULT_COSTS._replace(
    kasan_c_trap=0.1, kasan_c_check=0.7, kasan_d_intercept=0.3,
    kasan_d_check=1 / 3, kcsan_c_trap=0.2, kcsan_c_check=2 / 3,
    kcsan_d_intercept=0.6, kcsan_d_check=1 / 7, kmsan_c_trap=0.4,
    kmsan_c_check=1 / 9,
)

HEAP = 0x4000_1000  # inside the ARM board's DRAM
SLOT = 48  #: slot stride: objects plus redzones overlap their neighbours
SLOTS = 8
#: accesses reach past the last slot and below the first
SPAN = SLOTS * SLOT + 2 * 16

ops = st.one_of(
    st.tuples(st.just("alloc"), st.integers(0, SLOTS - 1),
              st.integers(1, 64), st.sampled_from([1, 2, 0xFFFF])),
    st.tuples(st.just("free"), st.integers(0, SLOTS - 1)),
    st.tuples(st.just("access"), st.integers(-16, SPAN),
              st.sampled_from([1, 2, 4, 8]), st.booleans(),
              st.integers(0, 3), st.booleans()),
    st.tuples(st.just("suppress"), st.integers(0, 1)),
    st.tuples(st.just("init"), st.integers(0, SLOTS - 1), st.integers(1, 64)),
)


def _run_checks(runtime, access: Access, mode: str) -> None:
    """The reference validation walk: every configured engine's full
    check, charged one ``_charge`` at a time (trap, then check)."""
    costs = runtime.costs
    if runtime.kasan is not None:
        intercept = costs.kasan_c_trap if mode == "c" else costs.kasan_d_intercept
        check = costs.kasan_c_check if mode == "c" else costs.kasan_d_check
        runtime._charge(intercept, "interception")
        runtime._charge(check, "checks")
        runtime.kasan.check(access)
    if runtime.kcsan is not None:
        intercept = costs.kcsan_c_trap if mode == "c" else costs.kcsan_d_intercept
        check = costs.kcsan_c_check if mode == "c" else costs.kcsan_d_check
        runtime._charge(intercept, "interception")
        runtime._charge(check, "checks")
        runtime.kcsan.check(access)
    if runtime.kmsan is not None:
        runtime._charge(costs.kmsan_c_trap, "interception")
        runtime._charge(costs.kmsan_c_check, "checks")
        runtime.kmsan.check(access)


def _runtime(mode, sanitizers, costs=DEFAULT_COSTS):
    machine = Machine(arch_by_name("arm"), name=f"twin-{mode}")
    config = RuntimeConfig(sanitizers=sanitizers, mode=mode, costs=costs)
    runtime = CommonSanitizerRuntime(machine, config).attach()
    runtime.enabled = True
    return machine, runtime


def _apply_state(runtime, op) -> None:
    """Allocator/suppression transitions, applied alike to both twins."""
    kind = op[0]
    if kind == "alloc":
        _, slot, size, cache = op
        runtime.kasan.on_alloc(HEAP + slot * SLOT, size, cache, pc=0x40 + slot)
        if runtime.kmsan is not None:
            runtime.kmsan.on_alloc(HEAP + slot * SLOT, size, cache)
    elif kind == "free":
        runtime.kasan.on_free(HEAP + op[1] * SLOT, pc=0x80)
        if runtime.kmsan is not None:
            runtime.kmsan.on_free(HEAP + op[1] * SLOT)
    elif kind == "suppress":
        runtime.kasan.suppress_depth = op[1]
        if runtime.kcsan is not None:
            runtime.kcsan.suppress_depth = op[1]
    elif kind == "init" and runtime.kmsan is not None:
        runtime.kmsan.mark_initialized(HEAP + op[1] * SLOT, op[2])


def _access(op, pc):
    _, offset, size, is_write, task, atomic = op
    return Access(HEAP + offset, size, is_write, pc, task, atomic=atomic)


def _compiled(machine, runtime, op, pc) -> None:
    """The production entry point for one scalar access."""
    access = _access(op, pc)
    if runtime.config.mode == "c":
        number = Hypercall.SAN_STORE if access.is_write else Hypercall.SAN_LOAD
        machine.vmcall(number, [access.addr, access.size, int(access.atomic)],
                       pc=pc, task=access.task)
    else:
        runtime._probe_cb(access)


def _observed(machine, runtime) -> dict:
    out = {
        "overhead_cycles": machine.overhead_cycles,
        "breakdown": dict(runtime.breakdown),
        "kasan_checks": runtime.kasan.checks,
        "check_ops": runtime.shadow.check_ops,
        "reports": [
            (r.tool, r.bug_type, r.addr, r.size, r.is_write, r.pc, r.task,
             r.location, r.alloc_pc, r.free_pc, r.second_pc, r.detail,
             r.shadow_dump)
            for r in runtime.sink.reports
        ],
    }
    if runtime.kcsan is not None:
        out["kcsan_seq"] = runtime.kcsan._seq
        out["kcsan_watches"] = {
            granule: list(watches)
            for granule, watches in runtime.kcsan._watches.items()
        }
    if runtime.kmsan is not None:
        out["kmsan_checks"] = runtime.kmsan.checks
        out["kmsan_objects"] = {
            base: bytes(flags) for base, flags in runtime.kmsan._objects.items()
        }
    return out


@pytest.mark.parametrize("costs", [DEFAULT_COSTS, AWKWARD_COSTS],
                         ids=["default-costs", "awkward-costs"])
@pytest.mark.parametrize("mode,sanitizers", CONFIGS,
                         ids=["-".join((m,) + s) for m, s in CONFIGS])
@settings(max_examples=40, deadline=None)
@given(sequence=st.lists(ops, min_size=1, max_size=40))
def test_compiled_check_matches_run_checks(mode, sanitizers, costs, sequence):
    machine_a, compiled = _runtime(mode, sanitizers, costs)
    machine_b, reference = _runtime(mode, sanitizers, costs)
    for pc, op in enumerate(sequence, start=0x1000):
        if op[0] == "access":
            _compiled(machine_a, compiled, op, pc)
            _run_checks(reference, _access(op, pc), mode)
        else:
            _apply_state(compiled, op)
            _apply_state(reference, op)
    observed = _observed(machine_a, compiled)
    assert observed == _observed(machine_b, reference)
    # compared with ==, not approx: the same float additions in order
    assert machine_a.overhead_cycles == machine_b.overhead_cycles


@pytest.mark.parametrize("mode", ["c", "d"])
def test_clean_access_takes_the_fast_path(mode):
    machine, runtime = _runtime(mode, ("kasan", "kcsan"))
    runtime.kasan.on_alloc(HEAP, 32, 1)
    _compiled(machine, runtime, ("access", 0, 4, False, 1, False), 0x10)
    assert runtime.shadow.fastpath_hits == 1
    assert runtime.shadow.check_ops == 1
    assert runtime.kasan.checks == 1
    assert runtime.kcsan.checks == 1


def test_kmsan_configuration_takes_the_fast_path():
    """KASAN's granule test serves KMSAN sets too; KMSAN still sees the
    access (the store initializes, the load after it is clean)."""
    machine, runtime = _runtime("c", ("kasan", "kmsan"))
    runtime.kasan.on_alloc(HEAP, 32, 1)
    runtime.kmsan.on_alloc(HEAP, 32, 1)
    _compiled(machine, runtime, ("access", 0, 4, True, 1, False), 0x10)
    _compiled(machine, runtime, ("access", 0, 4, False, 1, False), 0x18)
    assert runtime.shadow.fastpath_hits == 2
    assert runtime.shadow.check_ops == 2
    assert runtime.kasan.checks == 2
    assert runtime.kmsan.checks == 2
    assert bytes(runtime.kmsan._objects[HEAP][:5]) == b"\x01" * 4 + b"\x00"
    assert runtime.sink.count() == 0


def test_check_charges_the_breakdown_load_telemetry_installs():
    """``load_telemetry`` rebinds ``breakdown``; the compiled check must
    charge the new dict, not the one it saw at construction."""
    machine, runtime = _runtime("c", ("kasan",))
    golden = runtime.save_telemetry()
    _compiled(machine, runtime, ("access", 0, 4, False, 1, False), 0x10)
    runtime.load_telemetry(golden)
    rebound = runtime.breakdown
    _compiled(machine, runtime, ("access", 0, 4, False, 1, False), 0x10)
    costs = runtime.costs
    assert rebound["interception"] == costs.kasan_c_trap
    assert rebound["checks"] == costs.kasan_c_check


def test_plain_int_hypercall_numbers_dispatch():
    """ISA traps pass the hypercall number as a plain int."""
    machine, runtime = _runtime("c", ("kasan",))
    machine.vmcall(int(Hypercall.SAN_ALLOC), [HEAP, 16, 1])
    machine.vmcall(int(Hypercall.SAN_LOAD), [HEAP + 16, 4, 0], pc=0x10, task=1)
    assert runtime.kasan.live_count() == 1
    assert [r.addr for r in runtime.sink.reports] == [HEAP + 16]
