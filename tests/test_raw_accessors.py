"""Parity: ``GuestContext.raw_ld32``/``raw_st32`` against untraced bus access.

Allocator metadata walks (slab, heap4, mempool, mempart) read and write
guest words through the context's raw accessor pair.  Those must behave
exactly as ``with bus.untraced(): bus.load/store`` does on a bus with
everything attached that a campaign attaches: a MEM_ACCESS subscriber,
a fork-server ``DirtySet`` (which saves golden pre-images on first
write) and a fault plan that mutates every guest load.  Twin machines
run the same operation sequence, one through each path, and must end
with the same memory, dirty pages, golden pre-images and errors, with
the subscriber silent and the fault plan's RNG untouched.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emulator.arch import arch_by_name
from repro.emulator.events import EventKind
from repro.emulator.faults import FaultPlan, FlipRegion
from repro.emulator.machine import Machine
from repro.errors import BusError
from repro.guest.context import GuestContext
from repro.mem.dirty import DirtySet
from repro.mem.regions import MemoryRegion, Perm

BASE = 0x6000_0000
RAM_SIZE = 0x2000  #: two dirty pages
ROM_SIZE = 0x1000
#: RAM start (unmapped below), a page boundary, the RAM/ROM boundary,
#: the ROM end (unmapped above) and mid-page; each anchor plus a small
#: delta gives clean, straddling and faulting accesses
ANCHORS = (0, 0xFFE, RAM_SIZE - 2, RAM_SIZE + ROM_SIZE - 2, 0x800)

addresses = st.builds(
    lambda anchor, delta: (BASE + anchor + delta) & 0xFFFFFFFF,
    st.sampled_from(ANCHORS), st.integers(-6, 8),
)
ops = st.one_of(
    st.tuples(st.just("ld"), addresses),
    st.tuples(st.just("st"), addresses, st.integers(-(1 << 33), 1 << 33)),
)


def _rig():
    machine = Machine(arch_by_name("arm"), name="raw-parity")
    bus = machine.bus
    bus.map(MemoryRegion("raw-ram", BASE, RAM_SIZE))
    bus.map(MemoryRegion("raw-rom", BASE + RAM_SIZE, ROM_SIZE, perm=Perm.R,
                         kind="rom", fill=0xA5))
    seen = []
    machine.hooks.add(EventKind.MEM_ACCESS, seen.append)
    dirty = DirtySet()
    bus.attach_dirty(dirty)
    plan = FaultPlan(seed=7, flip_regions=(FlipRegion(0, 1 << 32, 1.0),))
    machine.set_fault_plan(plan)
    return GuestContext(machine), seen, dirty, plan


def _raw(ctx, op):
    if op[0] == "ld":
        return ctx.raw_ld32(op[1])
    return ctx.raw_st32(op[1], op[2])


def _untraced(ctx, op):
    bus = ctx.bus
    with bus.untraced():
        if op[0] == "ld":
            return bus.load(op[1], 4)
        return bus.store(op[1], 4, op[2])


def _run(path, sequence):
    ctx, seen, dirty, plan = _rig()
    rng_before = plan.rng.getstate()
    outcomes = []
    for op in sequence:
        try:
            outcomes.append(("ok", path(ctx, op)))
        except BusError as err:
            outcomes.append(("error", str(err), err.addr))
    bus = ctx.bus
    assert seen == []  # the MEM_ACCESS subscriber stays silent
    assert plan.rng.getstate() == rng_before
    assert plan.bit_flips == 0
    return {
        "outcomes": outcomes,
        "memory": {name: bytes(bus.region_named(name).data)
                   for name in ("raw-ram", "raw-rom")},
        "dirty": {name: sorted(dirty.pages(name))
                  for name in dirty.region_names()},
        "golden": {name: sorted(images.items())
                   for name, images in dirty._golden.items()},
    }


@settings(max_examples=150, deadline=None)
@given(sequence=st.lists(ops, min_size=1, max_size=30))
def test_raw_accessors_match_untraced_bus_access(sequence):
    assert _run(_raw, sequence) == _run(_untraced, sequence)


def test_rig_exercises_every_channel():
    """The rig is live: a traced store reaches the subscriber and the
    dirty set (with its golden pre-image), and a traced load is mutated
    by the fault plan."""
    ctx, seen, dirty, plan = _rig()
    ctx.bus.store(BASE, 4, 0x1234)
    assert len(seen) == 1
    assert sorted(dirty.pages("raw-ram")) == [0]
    assert dirty.golden_bytes() == 0x1000
    assert ctx.bus.load(BASE, 4) != 0x1234
    assert plan.bit_flips == 1
    assert ctx.raw_ld32(BASE) == 0x1234
