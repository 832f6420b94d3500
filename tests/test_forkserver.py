"""The fork server: golden image saved on first write, delta restore.

The contract under test is *restore ≡ rebuild*: boot is deterministic,
so rewinding to the golden state must reproduce byte-for-byte what a
fresh build-and-boot produces.  Everything else — census identity
across engines, kill/resume, sharding — follows from that one property,
and each class here attacks it from a different angle.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emulator.arch import arch_by_name
from repro.emulator.devices import DMA_CTRL, DMA_DST, DMA_LEN, DMA_SRC
from repro.emulator.machine import Machine
from repro.emulator.snapshot import ForkServer
from repro.errors import BusError, DmaFault, SnapshotError
from repro.fuzz.campaign import run_campaign
from repro.fuzz.checkpoint import (
    load_checkpoint,
    result_to_json,
    save_checkpoint,
)
from repro.bench.tcg_profile import CORES
from repro.mem.dirty import PAGE_SIZE, DirtySet
from repro.mem.regions import MemoryRegion


def _canon(result) -> str:
    return json.dumps(result_to_json(result), sort_keys=True)


#: engine test id -> the EVM32 core ``Machine.add_cpu`` attaches: the
#: thunk tier alone (``tcg``), the reference interpreter (``tcg-interp``)
#: and the tiered engine as shipped (``jit``)
ISA_CORES = {
    "tcg": CORES["spec"],
    "tcg-interp": CORES["interp"],
    "jit": CORES["jit"],
}


def _ram(name="dram", pages=16, base=0x6000_0000):
    return MemoryRegion(name, base, pages * PAGE_SIZE)


# ----------------------------------------------------------------------
# dirty-set unit behaviour
# ----------------------------------------------------------------------
class TestDirtySet:
    def test_single_page_mark(self):
        dirty = DirtySet()
        dirty.mark(_ram(), 100, 4)
        assert dirty.pages("dram") == {0}
        assert dirty.spans("dram") == [(0, PAGE_SIZE)]

    def test_straddling_mark(self):
        dirty = DirtySet()
        dirty.mark(_ram(), PAGE_SIZE - 2, 4)  # crosses pages 0 -> 1
        assert dirty.pages("dram") == {0, 1}
        assert dirty.spans("dram") == [(0, 2 * PAGE_SIZE)]

    def test_spans_merge_contiguous_runs(self):
        dirty = DirtySet()
        dram = _ram()
        for page in (0, 1, 2, 7, 9, 10):
            dirty.mark(dram, page * PAGE_SIZE, 1)
        assert dirty.spans("dram") == [
            (0, 3 * PAGE_SIZE),
            (7 * PAGE_SIZE, 8 * PAGE_SIZE),
            (9 * PAGE_SIZE, 11 * PAGE_SIZE),
        ]

    def test_mark_all_and_clear(self):
        """A write over a whole region, partial last page included, marks
        every page; clear forgets the marks but keeps the golden copies."""
        dirty = DirtySet()
        sram = MemoryRegion("sram", 0, 3 * PAGE_SIZE + 1)
        dirty.mark(sram, 0, sram.size)
        assert dirty.pages("sram") == {0, 1, 2, 3}
        assert dirty.page_count() == 4
        assert dirty.golden_bytes() == sram.size
        dirty.clear()
        assert dirty.page_count() == 0
        assert dirty.spans("sram") == []
        assert dirty.golden_bytes() == sram.size

    def test_regions_tracked_independently(self):
        dirty = DirtySet()
        dirty.mark(_ram("dram"), 0, 1)
        dirty.mark(_ram("sram", base=0x7000_0000), PAGE_SIZE, 1)
        assert sorted(dirty.region_names()) == ["dram", "sram"]
        assert dirty.pages("flash") == set()

    def test_first_mark_saves_pre_image_once(self):
        dram = _ram(pages=2)
        dram.data[:4] = b"gold"
        dirty = DirtySet()
        dirty.mark(dram, 0, 4)
        dram.data[:4] = b"junk"
        dirty.mark(dram, 0, 4)  # already dirty: no second copy
        assert dirty.rewind(dram) == [(0, PAGE_SIZE)]
        assert bytes(dram.data[:4]) == b"gold"
        dram.data[:4] = b"more"
        dirty.mark(dram, 0, 4)  # dirty again, golden copy kept
        dirty.rewind(dram)
        assert bytes(dram.data[:4]) == b"gold"
        assert dirty.golden_bytes() == PAGE_SIZE


# ----------------------------------------------------------------------
# ForkServer refuses to restore unfaithfully
# ----------------------------------------------------------------------
class TestSnapshotErrors:
    def test_region_mapped_after_snapshot_raises(self, machine):
        """A region unmapped and mapped again under the same name is a
        different region: its golden pages belong to the old one."""
        dram = next(r for r in machine.bus.regions if r.kind == "dram")
        fork = ForkServer(machine)
        machine.bus.unmap(dram.name)
        machine.bus.map(MemoryRegion(dram.name, dram.base, dram.size,
                                     kind="dram"))
        with pytest.raises(SnapshotError, match="remapped"):
            fork.restore()

    def test_size_mismatch_raises(self, machine):
        fork = ForkServer(machine)
        # a region resized between capture and restore
        region = next(r for r in machine.bus.regions if r.kind == "sram")
        region.size -= PAGE_SIZE
        with pytest.raises(SnapshotError, match=region.name):
            fork.restore()

    def test_round_trip_restores_bytes(self, machine):
        dram = next(r for r in machine.bus.regions if r.kind == "dram")
        machine.bus.write_bytes(dram.base, b"golden!!")
        fork = ForkServer(machine)
        machine.bus.write_bytes(dram.base, b"scribble")
        fork.restore()
        assert machine.bus.read_bytes(dram.base, 8) == b"golden!!"
        machine.bus.write_bytes(dram.base + 2, b"again")
        fork.restore()
        assert machine.bus.read_bytes(dram.base, 8) == b"golden!!"


# ----------------------------------------------------------------------
# ForkServer.restore invalidates translations only where it must
# ----------------------------------------------------------------------
class TestCheckpointTbInvalidation:
    PROGRAM = """
        movi t0, 0
        movi t1, 4
    loop:
        addi t0, t0, 1
        blt  t0, t1, loop
        call tail
        hlt
        .space 4096     ; tail on the next page: restores are per page
    tail:
        movi s0, 7
        ret
    """

    def _machine_with_code(self):
        from repro.isa.assembler import assemble

        machine = Machine(arch_by_name("arm"), name="tb-test")
        flash = machine.arch.region("flash")
        sram = machine.arch.region("sram")
        machine.bus.write_bytes(
            flash.base, assemble(self.PROGRAM, base=flash.base).image)
        engine = machine.add_cpu(pc=flash.base, sp=sram.base + sram.size)
        engine.run()
        assert engine.tb_cache  # the loop translated into cached blocks
        return machine, engine

    def test_data_only_rollback_keeps_every_tb(self):
        machine, engine = self._machine_with_code()
        dram = machine.arch.region("dram")
        flushes = engine.tb_flush_count
        invals = engine.tb_invalidations
        cached = len(engine.tb_cache)

        fork = ForkServer(machine)
        machine.bus.store(dram.base + dram.size - 64, 4, 0xDEAD)
        assert fork.restore().tb_dropped == 0

        assert engine.tb_flush_count == flushes
        assert engine.tb_invalidations == invals
        assert len(engine.tb_cache) == cached

    def test_code_rollback_invalidates_without_full_flush(self):
        machine, engine = self._machine_with_code()
        flushes = engine.tb_flush_count
        invals = engine.tb_invalidations
        cached = len(engine.tb_cache)
        code_addr = min(b.pc for b in engine.tb_cache.values())

        fork = ForkServer(machine)
        machine.bus.store(code_addr, 4, 0)
        fork.restore()

        assert engine.tb_flush_count == flushes  # surgical, not a flush
        assert engine.tb_invalidations > invals
        assert 0 < len(engine.tb_cache) < cached

    def test_empty_journal_rollback_is_free(self):
        """A restore with nothing dirty copies and invalidates nothing."""
        machine, engine = self._machine_with_code()
        flushes = engine.tb_flush_count
        fork = ForkServer(machine)
        stats = fork.restore()
        assert (stats.pages, stats.tb_dropped) == (0, 0)
        assert engine.tb_flush_count == flushes


# ----------------------------------------------------------------------
# fork server mechanics on a bare machine
# ----------------------------------------------------------------------
class TestForkServerRestore:
    def test_restore_copies_only_dirty_pages(self, machine):
        dram = next(r for r in machine.bus.regions if r.kind == "dram")
        fork = ForkServer(machine)
        machine.bus.write_bytes(dram.base, b"x" * 10)
        machine.bus.store(dram.base + 5 * PAGE_SIZE, 4, 0xBEEF)
        stats = fork.restore()
        assert stats.pages == 2
        assert machine.bus.read_bytes(dram.base, 10) == b"\x00" * 10
        assert machine.bus.load(dram.base + 5 * PAGE_SIZE, 4) == 0

    def test_clean_restore_is_zero_pages(self, machine):
        fork = ForkServer(machine)
        assert fork.restore().pages == 0

    def test_dirty_set_cleared_after_restore(self, machine):
        dram = next(r for r in machine.bus.regions if r.kind == "dram")
        fork = ForkServer(machine)
        machine.bus.store(dram.base, 4, 1)
        fork.restore()
        assert fork.restore().pages == 0

    def test_region_mapped_after_capture_raises(self, machine):
        fork = ForkServer(machine)
        machine.bus.map(
            MemoryRegion("late-ram", 0x7000_0000, PAGE_SIZE, kind="sram"))
        with pytest.raises(SnapshotError, match="late-ram"):
            fork.restore()

    def test_restore_cost_tracks_dirty_pages_not_ram_size(self):
        """Doubling RAM must not change the per-restore cost profile."""

        def build(scale):
            arch = arch_by_name("arm")
            arch = arch._replace(memory_map=tuple(
                spec._replace(size=spec.size * scale)
                if spec.name == "dram" else spec
                for spec in arch.memory_map
            ))
            return Machine(arch, name=f"scale-{scale}")

        timings = {}
        for scale in (1, 2):
            machine = build(scale)
            dram = next(r for r in machine.bus.regions if r.kind == "dram")
            fork = ForkServer(machine)
            fork.restore()  # warm-up: page in the restore path itself
            samples = []
            for _ in range(5):
                for page in range(8):
                    machine.bus.store(dram.base + page * PAGE_SIZE, 4, 0xAB)
                stats = fork.restore()
                assert stats.pages == 8
                samples.append(stats.us)
            timings[scale] = min(samples)
        # identical dirty work on a machine with twice the RAM: the
        # delta restore must stay within noise, nowhere near 2x.  The
        # bound is generous because the absolute times are tens of
        # microseconds, but a full-copy regression (O(RAM)) would blow
        # past it by orders of magnitude.
        assert timings[2] < timings[1] * 10 + 200


# ----------------------------------------------------------------------
# golden image on first write
# ----------------------------------------------------------------------
#: two small RAM regions, back to back, with partial last pages: the
#: first ends mid-page where the second begins, the second ends mid-page
#: where the bus has nothing mapped
PROP_BASE = 0x6000_0000
PROP_SIZES = (2 * PAGE_SIZE + 0x300, PAGE_SIZE + 0x80)
PROP_END = PROP_BASE + sum(PROP_SIZES)
#: page boundaries, the boundary between the regions and both region
#: ends; each anchor plus a small delta gives clean, straddling and
#: faulting writes
PROP_ANCHORS = (0, PAGE_SIZE, 2 * PAGE_SIZE, PROP_SIZES[0],
                PROP_SIZES[0] + PAGE_SIZE, sum(PROP_SIZES))

prop_addrs = st.builds(lambda anchor, delta: PROP_BASE + anchor + delta,
                       st.sampled_from(PROP_ANCHORS), st.integers(-12, 12))
prop_sizes = st.integers(1, 24)
prop_ops = st.one_of(
    st.tuples(st.just("store"), prop_addrs, st.sampled_from((1, 2, 4, 8)),
              st.integers(0, (1 << 64) - 1)),
    st.tuples(st.just("store_silent"), prop_addrs,
              st.sampled_from((1, 2, 4)), st.integers(0, (1 << 32) - 1)),
    st.tuples(st.just("write_bytes"), prop_addrs, st.binary(min_size=1, max_size=24)),
    st.tuples(st.just("fill"), prop_addrs, prop_sizes, st.integers(0, 255)),
    st.tuples(st.just("copy"), prop_addrs, prop_addrs, prop_sizes),
    st.tuples(st.just("dma"), prop_addrs, prop_addrs, prop_sizes),
    st.just(("restore",)),
)


def _prop_machine():
    machine = Machine(arch_by_name("arm"), name="golden-prop")
    base = PROP_BASE
    for index, size in enumerate(PROP_SIZES):
        region = MemoryRegion(f"prop{index}", base, size, kind="sram")
        region.data[:] = bytes((base + i) * 7 & 0xFF for i in range(size))
        machine.bus.map(region)
        base += size
    return machine


def _apply(machine, op):
    """Perform one write; returns the written ``(addr, size)`` span."""
    bus = machine.bus
    kind = op[0]
    if kind == "store":
        bus.store(op[1], op[2], op[3])
        return op[1], op[2]
    if kind == "store_silent":
        bus.store_silent(op[1], op[2], op[3])
        return op[1], op[2]
    if kind == "write_bytes":
        bus.write_bytes(op[1], op[2])
        return op[1], len(op[2])
    if kind == "fill":
        bus.fill(op[1], op[2], op[3])
    elif kind == "copy":
        bus.copy(op[1], op[2], op[3])
    else:
        dma = machine.dma.base
        bus.store(dma + DMA_SRC, 4, op[2])
        bus.store(dma + DMA_DST, 4, op[1])
        bus.store(dma + DMA_LEN, 4, op[3])
        bus.store(dma + DMA_CTRL, 4, 1)
    return op[1], op[2] if kind == "fill" else op[3]


class TestGoldenOnFirstWrite:
    @settings(max_examples=150, deadline=None)
    @given(cycles=st.lists(st.lists(prop_ops, max_size=12), min_size=1,
                           max_size=4))
    def test_restore_matches_full_copy_taken_at_capture(self, cycles):
        """Every write path, across page boundaries and region ends, over
        several restore cycles: each restore puts back exactly a full
        copy taken at capture, and the golden image holds only the
        device apertures plus the pages written so far."""
        machine = _prop_machine()
        bus = machine.bus
        # the writes land only here, so the oracle need not copy the
        # board's 84 MiB of RAM
        regions = [r for r in bus.regions if r.name.startswith("prop")]
        oracle = {r.name: bytes(r.data) for r in regions}
        devices = sum(r.size for r in bus.regions if r.kind == "device")
        fork = ForkServer(machine)
        assert fork.ram_bytes() == devices
        written = set()  # (region, page) pairs written since capture
        for ops in cycles:
            for op in ops + [("restore",)]:
                if op[0] == "restore":
                    fork.restore()
                    for region in regions:
                        assert bytes(region.data) == oracle[region.name]
                    continue
                try:
                    addr, size = _apply(machine, op)
                except (BusError, DmaFault):
                    continue  # refused before any byte moved
                region = bus.region_at(addr)
                for page in range((addr - region.base) // PAGE_SIZE,
                                  (addr + size - 1 - region.base)
                                  // PAGE_SIZE + 1):
                    written.add((region.name, page))
                    assert page in fork.dirty.pages(region.name)
        assert fork.ram_bytes() == devices + sum(
            min(PAGE_SIZE, bus.region_named(name).size - page * PAGE_SIZE)
            for name, page in written)

    def test_capture_copies_device_apertures_only(self, machine):
        devices = sum(r.size for r in machine.bus.regions
                      if r.kind == "device")
        fork = ForkServer(machine)
        assert fork.ram_bytes() == devices  # 64 MiB of DRAM: not copied
        dram = next(r for r in machine.bus.regions if r.kind == "dram")
        machine.bus.store(dram.base + 10, 4, 1)
        machine.bus.store(dram.base + 20, 4, 1)  # same page
        assert fork.ram_bytes() == devices + PAGE_SIZE
        fork.restore()
        machine.bus.store(dram.base + 30, 4, 1)  # golden copy kept
        assert fork.ram_bytes() == devices + PAGE_SIZE

    def test_golden_image_does_not_scale_with_ram(self):
        """OpenWRT-x86_64 maps the catalog's largest RAM (128 MiB DRAM):
        right after capture its golden image is under 1 MiB."""
        from repro.fuzz.syzkaller import SyzkallerFuzzer

        fuzzer = SyzkallerFuzzer("OpenWRT-x86_64", seed=1)
        machine = fuzzer.target.image.ctx.machine
        assert sum(r.size for r in machine.bus.regions) > 128 << 20
        assert fuzzer.target.fork_server.ram_bytes() < 1 << 20


# ----------------------------------------------------------------------
# FuzzTarget plumbing
# ----------------------------------------------------------------------
class TestFuzzTargetModes:
    def test_restore_failure_falls_back_to_rebuild(self, monkeypatch):
        from repro.fuzz.tardis import TardisFuzzer

        fuzzer = TardisFuzzer("InfiniTime", seed=1)
        target = fuzzer.target
        assert target.fork_server is not None
        first_golden = target._golden_points
        monkeypatch.setattr(
            target.fork_server, "restore",
            lambda: (_ for _ in ()).throw(RuntimeError("region remapped")),
        )
        rebuilds = target.rebuilds
        target.reset()
        # fell back to a full rebuild and captured a fresh golden
        assert target.rebuilds == rebuilds + 1
        assert target.fork_server is not None
        assert target.fork_server.restores == 0
        assert target._golden_points == first_golden  # boot determinism


# ----------------------------------------------------------------------
# restore ≡ rebuild on campaigns: engines, firmware families, shards
# ----------------------------------------------------------------------
class TestExecModeIdentity:
    """A target can be reset two ways: the fork server's delta restore,
    or its fallback, a rebuild from scratch.  Both must give the same
    campaign (``assert_restore_equals_rebuild`` in conftest.py)."""

    @pytest.mark.parametrize("engine", ["tcg", "tcg-interp", "jit"])
    def test_census_identity_small_firmware(
            self, engine, monkeypatch, assert_restore_equals_rebuild):
        """TP-Link's VxWorks service blobs are the catalog's EVM32 code,
        which the VxWorks kernel attaches through ``Machine.core_class``.
        Every core (see ``ISA_CORES``) must produce the reference ``Cpu``'s
        campaign, restoring or rebuilding, and leave every core it
        attached in the same architectural state as ``Cpu`` does."""

        states = []

        def campaign(name):
            attached = []

            def build(*args, **kwargs):
                core = ISA_CORES[name](*args, **kwargs)
                attached.append(core)
                return core

            monkeypatch.setattr(Machine, "core_class", staticmethod(build))
            result = run_campaign("TP-Link WDR-7660", budget=400, seed=1)
            states.append([(tuple(c.state.regs), c.state.pc, c.cycles,
                            c.insn_count) for c in attached])
            return result

        restored = assert_restore_equals_rebuild(lambda: campaign(engine))
        reference = campaign("tcg-interp")
        assert states[0]  # the blobs ran on a core
        assert states[0] == states[-1]
        assert _canon(restored) == _canon(reference)

    def test_census_identity_linux_firmware(
            self, assert_restore_equals_rebuild):
        assert_restore_equals_rebuild(
            lambda: run_campaign("OpenWRT-armvirt", budget=150, seed=2))

    def test_census_identity_rtos_firmware(
            self, assert_restore_equals_rebuild):
        result = assert_restore_equals_rebuild(
            lambda: run_campaign("InfiniTime", budget=400, seed=1))
        assert result.matched

    def test_forkserver_actually_restores(self):
        from repro.fuzz.tardis import TardisFuzzer

        fuzzer = TardisFuzzer("InfiniTime", seed=1)
        fuzzer.run(120)
        assert fuzzer.target.restores > 0
        assert fuzzer.target.rebuilds == 1  # only the initial build

    def test_restore_rewinds_kmsan_state(self):
        """KMSAN's per-object init flags and its check counter are part
        of restore ≡ rebuild: after driver programs have allocated,
        written and freed tracked objects, a restore puts back exactly
        the golden objects (in lookup order) that a fresh build has."""
        from repro.fuzz.syzkaller import SyzkallerFuzzer

        def build():
            return SyzkallerFuzzer(
                "OpenWRT-armvirt", surface="driver", seed=1,
                sanitizers=("kasan", "kmsan"),
            )

        def kmsan_state(target):
            kmsan = target.runtime.kmsan
            objects = [(base, bytes(flags))
                       for base, flags in kmsan._objects.items()]
            return objects, kmsan.checks

        fuzzer = build()
        target = fuzzer.target
        golden = kmsan_state(target)
        assert golden[0]  # boot allocated tracked objects
        fuzzer.run(60)
        assert kmsan_state(target) != golden  # the programs moved it
        target.reset()
        assert target.restores >= 1
        assert kmsan_state(target) == golden
        assert kmsan_state(build().target) == golden

    def test_kmsan_only_change_moves_the_epoch(self):
        """A store that only initializes KMSAN flags (clean for KASAN, no
        alloc or free) must still make the restore reload the runtime."""
        from repro.emulator.hypercalls import Hypercall
        from repro.sanitizers.runtime.runtime import (
            CommonSanitizerRuntime,
            RuntimeConfig,
        )

        heap = 0x4000_1000
        machine = Machine(arch_by_name("arm"), name="kmsan-epoch")
        config = RuntimeConfig(sanitizers=("kasan", "kmsan"))
        runtime = CommonSanitizerRuntime(machine, config).attach()
        runtime.enabled = True
        runtime.kmsan.on_alloc(heap, 16, 1)
        server = ForkServer(machine)
        machine.vmcall(Hypercall.SAN_STORE, [heap, 4, 0], pc=0x10, task=1)
        assert bytes(runtime.kmsan._objects[heap][:4]) == b"\x01" * 4
        assert server.restore().providers_reloaded == 1
        assert bytes(runtime.kmsan._objects[heap]) == bytes(16)
        assert runtime.kmsan.checks == 0

    def test_kill_and_resume_under_forkserver(self, tmp_path, monkeypatch):
        reference = run_campaign(
            "InfiniTime", budget=400, seed=3,
            checkpoint_path=str(tmp_path / "ref.json"), checkpoint_every=200,
        )

        path = str(tmp_path / "cp.json")

        class Killed(Exception):
            pass

        import repro.fuzz.campaign as campaign_mod
        calls = {"n": 0}

        def killing_save(p, fuzzer, firmware, budget):
            save_checkpoint(p, fuzzer, firmware, budget)
            calls["n"] += 1
            if calls["n"] == 1:
                raise Killed()

        monkeypatch.setattr(campaign_mod, "save_checkpoint", killing_save)
        with pytest.raises(Killed):
            run_campaign("InfiniTime", budget=400, seed=3,
                         checkpoint_path=path, checkpoint_every=200)
        monkeypatch.setattr(campaign_mod, "save_checkpoint", save_checkpoint)

        assert load_checkpoint(path)["execs"] == 200  # died mid-budget

        resumed = run_campaign("InfiniTime", budget=400, seed=3,
                               checkpoint_path=path, checkpoint_every=200)
        assert _canon(resumed) == _canon(reference)

    def test_sharded_identity(self, tmp_path, assert_restore_equals_rebuild):
        """A 2-shard fleet (spawned workers, restoring) merges to what the
        same shard jobs give when run here, one after the other, with
        every reset a rebuild."""
        from repro.fuzz.config import CampaignConfig
        from repro.fuzz.supervisor import (
            make_shard_jobs,
            merge_shard_results,
            run_sharded_fleet,
        )

        budget, shards = 400, 2
        per_shard = budget // shards

        def rebuilt():
            config = CampaignConfig("InfiniTime", budget=per_shard, seed=3,
                                    checkpoint_every=per_shard)
            jobs = make_shard_jobs(config, shards,
                                   corpus_dir=str(tmp_path / "corpus"),
                                   checkpoint_dir=str(tmp_path / "ckpt"))
            return merge_shard_results([job.run() for job in jobs])

        assert_restore_equals_rebuild(
            lambda: run_sharded_fleet("InfiniTime", budget=budget,
                                      shards=shards, seed=3).result,
            rebuild=rebuilt,
        )
