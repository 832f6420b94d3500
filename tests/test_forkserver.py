"""Fork-server execution mode: dirty-page delta restore.

The contract under test is *restore ≡ rebuild*: boot is deterministic,
so rewinding to the golden snapshot must reproduce byte-for-byte what a
fresh build-and-boot produces.  Everything else — census identity
across engines, kill/resume, sharding — follows from that one property,
and each class here attacks it from a different angle.
"""

from __future__ import annotations

import json

import pytest

from repro.emulator.arch import arch_by_name
from repro.emulator.machine import Machine
from repro.emulator.snapshot import Checkpoint, ForkServer, take
from repro.errors import FuzzerError, SnapshotError
from repro.fuzz.campaign import run_campaign
from repro.fuzz.checkpoint import (
    load_checkpoint,
    result_to_json,
    save_checkpoint,
)
from repro.fuzz.engine import EXEC_MODES, FuzzTarget
from repro.bench.tcg_profile import CORES
from repro.isa.tcg import TcgEngine
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


# ----------------------------------------------------------------------
# dirty-set unit behaviour
# ----------------------------------------------------------------------
class TestDirtySet:
    def test_single_page_mark(self):
        dirty = DirtySet()
        dirty.mark("dram", 100, 4)
        assert dirty.pages("dram") == {0}
        assert dirty.spans("dram") == [(0, PAGE_SIZE)]

    def test_straddling_mark(self):
        dirty = DirtySet()
        dirty.mark("dram", PAGE_SIZE - 2, 4)  # crosses pages 0 -> 1
        assert dirty.pages("dram") == {0, 1}
        assert dirty.spans("dram") == [(0, 2 * PAGE_SIZE)]

    def test_spans_merge_contiguous_runs(self):
        dirty = DirtySet()
        for page in (0, 1, 2, 7, 9, 10):
            dirty.mark("dram", page * PAGE_SIZE, 1)
        assert dirty.spans("dram") == [
            (0, 3 * PAGE_SIZE),
            (7 * PAGE_SIZE, 8 * PAGE_SIZE),
            (9 * PAGE_SIZE, 11 * PAGE_SIZE),
        ]

    def test_mark_all_and_clear(self):
        dirty = DirtySet()
        dirty.mark_all("sram", 3 * PAGE_SIZE + 1)  # partial 4th page
        assert dirty.pages("sram") == {0, 1, 2, 3}
        assert dirty.page_count() == 4
        dirty.clear()
        assert dirty.page_count() == 0
        assert dirty.spans("sram") == []

    def test_regions_tracked_independently(self):
        dirty = DirtySet()
        dirty.mark("dram", 0, 1)
        dirty.mark("sram", PAGE_SIZE, 1)
        assert sorted(dirty.region_names()) == ["dram", "sram"]
        assert dirty.pages("flash") == set()


# ----------------------------------------------------------------------
# satellite: Snapshot.restore refuses to restore unfaithfully
# ----------------------------------------------------------------------
class TestSnapshotErrors:
    def test_region_mapped_after_snapshot_raises(self, machine):
        snap = take(machine)
        machine.bus.map(
            MemoryRegion("late-ram", 0x7000_0000, PAGE_SIZE, kind="sram"))
        with pytest.raises(SnapshotError, match="late-ram"):
            snap.restore(machine)

    def test_size_mismatch_raises(self, machine):
        snap = take(machine)
        # simulate a region resized between capture and restore
        name = machine.bus.regions[0].name
        snap._regions[name] = snap._regions[name][:-1]
        with pytest.raises(SnapshotError, match=name):
            snap.restore(machine)

    def test_round_trip_restores_bytes(self, machine):
        dram = next(r for r in machine.bus.regions if r.kind == "dram")
        machine.bus.write_bytes(dram.base, b"golden!!")
        snap = take(machine)
        machine.bus.write_bytes(dram.base, b"scribble")
        snap.restore(machine)
        assert machine.bus.read_bytes(dram.base, 8) == b"golden!!"


# ----------------------------------------------------------------------
# satellite: Checkpoint.rollback flushes TBs only when it must
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

        checkpoint = Checkpoint(machine)
        machine.bus.store(dram.base + dram.size - 64, 4, 0xDEAD)
        checkpoint.rollback()

        assert engine.tb_flush_count == flushes
        assert engine.tb_invalidations == invals
        assert len(engine.tb_cache) == cached

    def test_code_rollback_invalidates_without_full_flush(self):
        machine, engine = self._machine_with_code()
        flushes = engine.tb_flush_count
        invals = engine.tb_invalidations
        cached = len(engine.tb_cache)
        code_addr = min(b.pc for b in engine.tb_cache.values())

        checkpoint = Checkpoint(machine)
        machine.bus.store(code_addr, 4, 0)
        checkpoint.rollback()

        assert engine.tb_flush_count == flushes  # surgical, not a flush
        assert engine.tb_invalidations > invals
        assert 0 < len(engine.tb_cache) < cached

    def test_empty_journal_rollback_is_free(self):
        machine, engine = self._machine_with_code()
        flushes = engine.tb_flush_count
        checkpoint = Checkpoint(machine)
        assert checkpoint.rollback() == 0
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
# FuzzTarget plumbing
# ----------------------------------------------------------------------
class TestFuzzTargetModes:
    def test_unknown_mode_rejected(self):
        with pytest.raises(FuzzerError, match="exec mode"):
            FuzzTarget(lambda: None, exec_mode="vmfork")

    def test_modes_registry(self):
        assert EXEC_MODES == ("journal", "forkserver")

    def test_restore_failure_falls_back_to_rebuild(self, monkeypatch):
        from repro.fuzz.tardis import TardisFuzzer

        fuzzer = TardisFuzzer("InfiniTime", seed=1, exec_mode="forkserver")
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
# the identity matrix: journal vs forkserver, engines, resume, shards
# ----------------------------------------------------------------------
class TestExecModeIdentity:
    @pytest.mark.parametrize("engine", ["tcg", "tcg-interp", "jit"])
    def test_census_identity_small_firmware(self, engine, monkeypatch):
        """TP-Link's VxWorks service blobs are the catalog's EVM32 code,
        which the VxWorks kernel attaches through ``Machine.core_class``.
        Every core (see ``ISA_CORES``) must produce the reference ``Cpu``'s
        campaign under both exec modes, and leave every core it attached
        in the same architectural state as ``Cpu`` does in that mode."""
        runs = {}

        def campaign(name, mode):
            if (name, mode) not in runs:
                attached = []

                def build(*args, **kwargs):
                    core = ISA_CORES[name](*args, **kwargs)
                    attached.append(core)
                    return core

                monkeypatch.setattr(Machine, "core_class", staticmethod(build))
                result = run_campaign("TP-Link WDR-7660", budget=400, seed=1,
                                      exec_mode=mode)
                runs[name, mode] = (_canon(result), [
                    (tuple(c.state.regs), c.state.pc, c.cycles, c.insn_count)
                    for c in attached
                ])
            return runs[name, mode]

        reference, _ = campaign("tcg-interp", "journal")
        for mode in ("journal", "forkserver"):
            canon, states = campaign(engine, mode)
            _, reference_states = campaign("tcg-interp", mode)
            assert states  # the blobs ran on a core
            assert canon == reference
            assert states == reference_states

    def test_census_identity_linux_firmware(self):
        journal = run_campaign("OpenWRT-armvirt", budget=150, seed=2)
        fork = run_campaign("OpenWRT-armvirt", budget=150, seed=2,
                            exec_mode="forkserver")
        assert _canon(fork) == _canon(journal)

    def test_forkserver_actually_restores(self):
        from repro.fuzz.tardis import TardisFuzzer

        fuzzer = TardisFuzzer("InfiniTime", seed=1, exec_mode="forkserver")
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
                sanitizers=("kasan", "kmsan"), exec_mode="forkserver",
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
            "InfiniTime", budget=400, seed=3, exec_mode="forkserver",
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
                         exec_mode="forkserver",
                         checkpoint_path=path, checkpoint_every=200)
        monkeypatch.setattr(campaign_mod, "save_checkpoint", save_checkpoint)

        assert load_checkpoint(path)["execs"] == 200  # died mid-budget

        resumed = run_campaign("InfiniTime", budget=400, seed=3,
                               exec_mode="forkserver",
                               checkpoint_path=path, checkpoint_every=200)
        assert _canon(resumed) == _canon(reference)

    def test_sharded_identity(self):
        from repro.fuzz.supervisor import run_sharded_fleet

        runs = {}
        for mode in ("journal", "forkserver"):
            sharded = run_sharded_fleet("InfiniTime", budget=160, shards=2,
                                        seed=3, exec_mode=mode)
            runs[mode] = _canon(sharded.result)
        assert runs["forkserver"] == runs["journal"]
