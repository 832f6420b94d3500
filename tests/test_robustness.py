"""Hardened campaign execution: watchdogs, fault injection, isolation,
checkpoint/resume.

The robustness subsystem's contract: a wedged guest becomes a
structured GuestHang, injected faults are deterministic under a seed,
host-level crashes quarantine instead of killing the campaign, and a
checkpointed campaign resumes to byte-identical results.
"""

import json
import os

import pytest

from repro.emulator.faults import FaultPlan, FaultPlanError, FlipRegion, plan_for
from repro.emulator.snapshot import Checkpoint
from repro.emulator.watchdog import Watchdog
from repro.errors import (
    BusError,
    CheckpointError,
    FuzzerError,
    GuestFault,
    GuestHang,
)
from repro.fuzz.campaign import run_campaign, run_campaign_repeated
from repro.fuzz.checkpoint import (
    engine_state,
    load_checkpoint,
    restore_engine,
    result_to_json,
    save_checkpoint,
)
from repro.fuzz.diagnostics import CampaignDiagnostics, CrashRecord
from repro.fuzz.program import Call, Program
from repro.fuzz.tardis import TardisFuzzer
from repro.isa.assembler import assemble
from repro.isa.cpu import Cpu
from repro.isa.tcg import TcgEngine


def _result_bytes(result) -> str:
    return json.dumps(result_to_json(result), sort_keys=True)


def load_wedged_guest(machine):
    """Assemble an infinite loop into flash and attach an engine to it."""
    flash = machine.arch.region("flash")
    dram = machine.arch.region("dram")
    program = assemble(
        "loop:\n    addi a0, a0, 1\n    xori a1, a0, 3\n    jmp loop",
        base=flash.base,
    )
    with machine.bus.untraced():
        machine.bus.write_bytes(flash.base, program.image)
    return machine.add_cpu(pc=flash.base, sp=dram.base + 0x1000)


class TestWatchdog:
    @pytest.mark.parametrize("core_class", [
        pytest.param(TcgEngine, id="tcg"),
        pytest.param(Cpu, id="interp"),
    ])
    def test_wedged_guest_trips_within_budget(self, machine, core_class):
        machine.core_class = core_class
        core = load_wedged_guest(machine)
        machine.set_watchdog(insn_budget=1_000)
        with pytest.raises(GuestHang) as info:
            core.run(max_steps=10_000_000)
        hang = info.value
        assert hang.kind == "insn"
        assert hang.insns >= 1_000
        # overshoot is bounded by one translation block
        assert hang.insns < 1_000 + 64
        flash = machine.arch.region("flash")
        assert flash.base <= hang.pc < flash.base + 64  # inside the loop
        assert hang.backtrace  # recent block PCs for triage
        assert core.state.halted  # engine is stoppable after the trip

    def test_hang_is_a_guest_fault(self):
        # the crash-oracle path catches GuestFault; hangs must flow there
        assert issubclass(GuestHang, GuestFault)

    def test_cycle_budget_guards_rehosted_kernels(self, machine):
        machine.set_watchdog(cycle_budget=100.0)
        machine.watchdog.reset()
        with pytest.raises(GuestHang) as info:
            for _ in range(1000):
                machine.charge_guest(10)
        assert info.value.kind == "cycle"
        assert info.value.cycles >= 100.0

    def test_reset_rearms_budgets(self, machine):
        machine.set_watchdog(cycle_budget=100.0)
        machine.charge_guest(90)
        machine.watchdog.reset()
        machine.charge_guest(90)  # would trip without the reset

    def test_checks_are_charged_as_overhead(self, machine):
        core = load_wedged_guest(machine)
        machine.set_watchdog(insn_budget=300)
        before = machine.overhead_cycles
        with pytest.raises(GuestHang):
            core.run(max_steps=10_000_000)
        assert machine.overhead_cycles > before

    def test_arms_existing_and_future_engines(self, machine):
        core = machine.add_cpu(pc=0, sp=0)
        machine.set_watchdog(insn_budget=10)
        assert core.watchdog is machine.watchdog
        later = machine.add_cpu(pc=0, sp=0)
        assert later.watchdog is machine.watchdog
        machine.clear_watchdog()
        assert core.watchdog is None and later.watchdog is None

    def test_no_budgets_means_disarmed(self, machine):
        machine.set_watchdog(insn_budget=10)
        machine.set_watchdog()
        assert machine.watchdog is None

    def test_trip_counter_accumulates(self):
        watchdog = Watchdog(insn_budget=5)
        for _ in range(3):
            watchdog.reset()
            with pytest.raises(GuestHang):
                watchdog.consume(10, pc=0x40)
        assert watchdog.trips == 3


class TestFaultPlan:
    def test_alloc_every_nth(self):
        plan = FaultPlan(seed=1, alloc_fail_every=3)
        outcomes = [plan.fail_alloc(16) for _ in range(7)]
        assert outcomes == [False, False, True, False, False, True, False]
        assert plan.alloc_failures == 2
        assert plan.allocs_seen == 7

    def test_alloc_rate_is_seed_deterministic(self):
        a = [FaultPlan(seed=9, alloc_fail_rate=0.5).fail_alloc(8)
             for _ in range(1)]
        runs = []
        for _ in range(2):
            plan = FaultPlan(seed=9, alloc_fail_rate=0.5)
            runs.append([plan.fail_alloc(8) for _ in range(50)])
        assert runs[0] == runs[1]
        assert any(runs[0]) and not all(runs[0])

    def test_bitflip_only_inside_region(self):
        plan = FaultPlan(seed=2, flip_regions=(FlipRegion(0x100, 0x200, 1.0),))
        flipped = plan.mutate_load(0x100, 4, 0)
        assert flipped != 0 and bin(flipped).count("1") == 1
        assert plan.mutate_load(0x300, 4, 0) == 0
        assert plan.bit_flips == 1

    def test_irq_drop_and_delay(self):
        plan = FaultPlan(seed=3, irq_drop_rate=1.0)
        assert plan.irq_action(1)[0] == "drop"
        plan = FaultPlan(seed=3, irq_delay=4, irq_delay_rate=1.0)
        assert plan.irq_action(1) == ("delay", 4)

    def test_rng_state_round_trip(self):
        plan = FaultPlan(seed=5, alloc_fail_rate=0.5)
        [plan.fail_alloc(8) for _ in range(10)]
        state = plan.save_rng_state()
        tail = [plan.fail_alloc(8) for _ in range(20)]
        plan.load_rng_state(state)
        assert [plan.fail_alloc(8) for _ in range(20)] == tail

    def test_parse_full_dsl(self):
        plan = FaultPlan.parse(
            "alloc:every=50;bitflip:0x100-0x200:p=0.01;"
            "irq:drop=0.1,delay=3,p=0.2;seed=7"
        )
        assert plan.alloc_fail_every == 50
        assert plan.flip_regions == (FlipRegion(0x100, 0x200, 0.01),)
        assert plan.irq_drop_rate == 0.1
        assert (plan.irq_delay, plan.irq_delay_rate) == (3, 0.2)
        assert plan.seed == 7
        assert plan.active

    def test_parse_rejects_garbage(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse("alloc:whenever")
        with pytest.raises(FaultPlanError):
            FaultPlan.parse("gremlins:p=1.0")

    def test_describe_round_trips_through_parse(self):
        plan = plan_for("alloc:every=10;irq:drop=0.5", seed=4)
        again = FaultPlan.parse(plan.describe())
        assert again.alloc_fail_every == plan.alloc_fail_every
        assert again.irq_drop_rate == plan.irq_drop_rate
        assert again.seed == plan.seed


class TestFaultInjectionPoints:
    def test_allocator_failure_reaches_slab(self, linux_image):
        ctx = linux_image.ctx
        machine = ctx.machine
        machine.set_fault_plan(FaultPlan(seed=1, alloc_fail_every=1))
        addr = linux_image.kernel.mm.kmalloc(ctx, 64)
        assert addr == 0  # injected NULL
        machine.set_fault_plan(None)
        assert linux_image.kernel.mm.kmalloc(ctx, 64) != 0

    def test_bus_read_bitflips_guest_loads_only(self, machine):
        dram = machine.arch.region("dram")
        machine.bus.write_bytes(dram.base, b"\x00\x00\x00\x00")
        machine.set_fault_plan(FaultPlan(
            seed=1, flip_regions=(FlipRegion(dram.base, dram.base + 16, 1.0),)
        ))
        assert machine.bus.load(dram.base, 4) != 0
        # host-side inspection reads pristine memory
        with machine.bus.untraced():
            assert machine.bus.load(dram.base, 4) == 0
        assert machine.bus.read_bytes(dram.base, 4) == b"\x00\x00\x00\x00"

    def test_irq_drop_and_delayed_delivery(self, machine):
        machine.set_fault_plan(FaultPlan(seed=1, irq_drop_rate=1.0))
        assert machine.raise_irq(2) is False
        assert machine.irqs_delivered == 0
        assert machine.fault_plan.irqs_dropped == 1

        machine.set_fault_plan(FaultPlan(seed=1, irq_delay=2,
                                         irq_delay_rate=1.0))
        assert machine.raise_irq(3) is False
        machine.tick_irqs()
        assert machine.irqs_delivered == 0
        machine.tick_irqs()
        assert machine.irqs_delivered == 1

    def test_dma_completion_raises_irq(self, machine):
        from repro.emulator.devices import (
            DMA_CTRL, DMA_DST, DMA_IRQ, DMA_LEN, DMA_SRC,
        )
        from repro.emulator.events import EventKind

        seen = []
        machine.hooks.add(EventKind.INTERRUPT, seen.append)
        dram = machine.arch.region("dram")
        machine.bus.write_bytes(dram.base, b"abcd")
        base = machine.dma.base
        machine.bus.store(base + DMA_SRC, 4, dram.base)
        machine.bus.store(base + DMA_DST, 4, dram.base + 0x40)
        machine.bus.store(base + DMA_LEN, 4, 4)
        machine.bus.store(base + DMA_CTRL, 4, 1)
        assert [(e.irq, e.device) for e in seen] == [(DMA_IRQ, "dma")]


class TestCheckpointRollback:
    def test_rollback_restores_memory_and_engine(self, machine):
        dram = machine.arch.region("dram")
        core = machine.add_cpu(pc=0x100, sp=0x200)
        machine.bus.write_bytes(dram.base, b"pristine")
        checkpoint = Checkpoint(machine)
        machine.bus.write_bytes(dram.base, b"CLOBBER!")
        core.state.pc = 0xDEAD
        core.state.write(3, 42)
        checkpoint.rollback()
        assert machine.bus.read_bytes(dram.base, 8) == b"pristine"
        assert core.state.pc == 0x100
        assert core.state.read(3) == 0

    def test_commit_keeps_changes(self, machine):
        dram = machine.arch.region("dram")
        checkpoint = Checkpoint(machine)
        machine.bus.write_bytes(dram.base, b"kept")
        checkpoint.commit()
        assert machine.bus.read_bytes(dram.base, 4) == b"kept"

    def test_journal_cost_scales_with_writes_not_ram(self, machine):
        dram = machine.arch.region("dram")
        checkpoint = Checkpoint(machine)
        machine.bus.store(dram.base, 4, 7)
        assert checkpoint.commit() <= 2  # entries, not megabytes

    def test_nested_journal_rejected(self, machine):
        Checkpoint(machine)
        with pytest.raises(BusError):
            machine.bus.journal_begin()

    def test_rollback_preserves_regs_identity(self, machine):
        """Specialized TCG closures bind the register list by identity."""
        core = machine.add_cpu(pc=0, sp=0)
        regs = core.state.regs
        checkpoint = Checkpoint(machine)
        core.state.write(5, 9)
        checkpoint.rollback()
        assert core.state.regs is regs
        assert core.state.read(5) == 0


def _hostile(monkeypatch, fuzzer, crashes_left):
    """Make the target's kernel raise host-level errors for N invocations."""
    budget = {"left": crashes_left}
    original = type(fuzzer.target.image.kernel).invoke

    def bomb(self, ctx, op, a0=0, a1=0, a2=0):
        if budget["left"] > 0:
            budget["left"] -= 1
            raise RuntimeError("host-level explosion")
        return original(self, ctx, op, a0, a1, a2)

    monkeypatch.setattr(type(fuzzer.target.image.kernel), "invoke", bomb)
    return budget


class TestCrashIsolation:
    def test_quarantine_and_recovery(self, monkeypatch):
        fuzzer = TardisFuzzer("InfiniTime", seed=1, crash_budget=25)
        _hostile(monkeypatch, fuzzer, crashes_left=3)
        fuzzer.run(40)
        assert fuzzer.execs == 40  # campaign survived to full budget
        assert not fuzzer.degraded
        assert fuzzer.host_crashes >= 1
        record = fuzzer.quarantined[0]
        assert record.exc_type == "RuntimeError"
        assert "explosion" in record.exception
        assert record.program.calls
        assert record.counters["execs"] >= 1

    def test_crash_budget_degrades_gracefully(self, monkeypatch):
        fuzzer = TardisFuzzer("InfiniTime", seed=1, crash_budget=4)
        _hostile(monkeypatch, fuzzer, crashes_left=10_000)
        fuzzer.run(200)
        assert fuzzer.degraded
        assert fuzzer.host_crashes == 4
        assert fuzzer.execs < 200  # stopped early, did not abort

    def test_degraded_campaign_still_reports(self, monkeypatch):
        monkeypatch.setattr(
            "repro.fuzz.engine.FuzzTarget.execute",
            lambda self, program, style: (_ for _ in ()).throw(
                RuntimeError("boom")),
        )
        result = run_campaign("InfiniTime", budget=50, seed=1, crash_budget=3)
        assert result.diagnostics.degraded
        assert result.diagnostics.host_crashes == 3
        assert len(result.diagnostics.quarantined) == 3
        # diagnostics survive a JSON round trip (the CI artifact path)
        blob = json.dumps(result.diagnostics.to_json())
        back = CampaignDiagnostics.from_json(json.loads(blob))
        assert back.host_crashes == 3 and back.degraded

    def test_rollback_leaves_machine_coherent(self, monkeypatch):
        fuzzer = TardisFuzzer("InfiniTime", seed=1)
        machine = fuzzer.target.image.ctx.machine
        dram = machine.arch.region("dram")
        before = machine.bus.read_bytes(dram.base, 64)
        program = Program([Call("bomb", (), None)])
        monkeypatch.setattr(
            type(fuzzer.target.image.kernel), "invoke",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("mid-write")),
        )
        with pytest.raises(RuntimeError):
            fuzzer.target.execute(program, fuzzer.spec.style)
        assert machine.bus.read_bytes(dram.base, 64) == before
        assert not machine.bus.journal_active


class TestCheckpointResume:
    def test_round_trip_matches_uninterrupted(self, tmp_path, monkeypatch):
        # same (seed, cadence) pair, never interrupted: the trajectory a
        # killed-and-resumed run must reproduce exactly
        reference = run_campaign(
            "InfiniTime", budget=400, seed=3,
            checkpoint_path=str(tmp_path / "ref.json"), checkpoint_every=200,
        )

        path = str(tmp_path / "cp.json")

        class Killed(Exception):
            pass

        import repro.fuzz.campaign as campaign_mod
        real_save = save_checkpoint
        calls = {"n": 0}

        def killing_save(p, fuzzer, firmware, budget):
            real_save(p, fuzzer, firmware, budget)
            calls["n"] += 1
            if calls["n"] == 1:
                raise Killed()

        monkeypatch.setattr(campaign_mod, "save_checkpoint", killing_save)
        with pytest.raises(Killed):
            run_campaign("InfiniTime", budget=400, seed=3,
                         checkpoint_path=path, checkpoint_every=200)
        monkeypatch.setattr(campaign_mod, "save_checkpoint", real_save)

        mid = load_checkpoint(path)
        assert mid["execs"] == 200  # killed mid-budget, not at the end

        resumed = run_campaign("InfiniTime", budget=400, seed=3,
                               checkpoint_path=path, checkpoint_every=200)
        assert resumed.execs == reference.execs
        assert resumed.crashes == reference.crashes
        assert resumed.census() == reference.census()
        assert sorted(resumed.matched) == sorted(reference.matched)
        assert ([f.key for f in resumed.findings]
                == [f.key for f in reference.findings])

    def test_resuming_finished_campaign_is_cheap(self, tmp_path):
        path = str(tmp_path / "cp.json")
        first = run_campaign("InfiniTime", budget=200, seed=1,
                             checkpoint_path=path)
        again = run_campaign("InfiniTime", budget=200, seed=1,
                            checkpoint_path=path)
        assert again.execs == 200
        assert again.census() == first.census()

    def test_seed_mismatch_refuses_resume(self, tmp_path):
        path = str(tmp_path / "cp.json")
        run_campaign("InfiniTime", budget=100, seed=1, checkpoint_path=path)
        with pytest.raises(FuzzerError):
            run_campaign("InfiniTime", budget=100, seed=2,
                         checkpoint_path=path)

    def test_firmware_mismatch_refuses_resume(self, tmp_path):
        path = str(tmp_path / "cp.json")
        fuzzer = TardisFuzzer("InfiniTime", seed=1)
        state = engine_state(fuzzer, "InfiniTime", 100)
        with pytest.raises(FuzzerError):
            restore_engine(TardisFuzzer("OpenHarmony-stm32f407", seed=1),
                           state, "OpenHarmony-stm32f407")

    def test_changed_knob_refuses_resume(self, tmp_path):
        # a driver-surface checkpoint must not silently resume as a
        # syscall-surface campaign
        path = str(tmp_path / "cp.json")
        run_campaign("OpenWRT-armvirt", budget=60, seed=1,
                     surface="driver", checkpoint_path=path)
        with pytest.raises(FuzzerError, match="surface"):
            run_campaign("OpenWRT-armvirt", budget=120, seed=1,
                         checkpoint_path=path)

    @pytest.mark.parametrize("first,then", [("journal", "forkserver"),
                                            ("forkserver", "journal")])
    def test_resume_may_extend_budget_and_switch_exec_mode(
            self, tmp_path, first, then):
        reference = run_campaign(
            "InfiniTime", budget=200, seed=3, checkpoint_every=100,
            checkpoint_path=str(tmp_path / "ref.json"))
        path = str(tmp_path / "cp.json")
        run_campaign("InfiniTime", budget=100, seed=3, checkpoint_every=100,
                     exec_mode=first, checkpoint_path=path)
        resumed = run_campaign("InfiniTime", budget=200, seed=3,
                               checkpoint_every=100, exec_mode=then,
                               checkpoint_path=path)
        assert _result_bytes(resumed) == _result_bytes(reference)

    def test_checkpoint_without_config_digest_resumes(self, tmp_path):
        # checkpoints written before the digest existed resume unchecked
        reference = run_campaign(
            "InfiniTime", budget=200, seed=3, checkpoint_every=100,
            checkpoint_path=str(tmp_path / "ref.json"))
        path = str(tmp_path / "cp.json")
        run_campaign("InfiniTime", budget=100, seed=3, checkpoint_every=100,
                     checkpoint_path=path)
        state = load_checkpoint(path)
        del state["config_digest"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(state, fh)
        resumed = run_campaign("InfiniTime", budget=200, seed=3,
                               checkpoint_every=100, checkpoint_path=path)
        assert _result_bytes(resumed) == _result_bytes(reference)

    def test_checkpoint_file_is_versioned_json(self, tmp_path):
        path = str(tmp_path / "cp.json")
        fuzzer = TardisFuzzer("InfiniTime", seed=1)
        fuzzer.run(20)
        save_checkpoint(path, fuzzer, "InfiniTime", 100)
        with open(path, encoding="utf-8") as fh:
            state = json.load(fh)
        assert state["version"] == 1
        assert state["firmware"] == "InfiniTime"
        assert state["seed"] == 1
        assert not os.path.exists(path + ".tmp")  # atomic rename cleaned up

    def test_engine_state_round_trip_preserves_rng(self):
        fuzzer = TardisFuzzer("InfiniTime", seed=7)
        fuzzer.run(30)
        state = json.loads(json.dumps(engine_state(fuzzer, "InfiniTime", 60)))
        clone = TardisFuzzer("InfiniTime", seed=7)
        restore_engine(clone, state, "InfiniTime")
        assert clone.execs == fuzzer.execs
        assert clone.rng.getstate() == fuzzer.rng.getstate()
        assert [p.to_json() for p in clone.corpus] == [
            p.to_json() for p in fuzzer.corpus
        ]

    def test_truncated_checkpoint_raises_checkpoint_error(self, tmp_path):
        path = str(tmp_path / "cp.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"version": 1, "execs": 12')  # killed mid-write
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert "corrupt" in str(info.value)
        # CheckpointError is a FuzzerError, so existing boundaries hold
        assert isinstance(info.value, FuzzerError)

    def test_checkpoint_write_fsyncs_file_and_directory(
            self, tmp_path, monkeypatch):
        """Write-then-rename alone is not durable: a host crash can
        surface an empty or stale file unless both the data and the
        directory entry are fsync'd before/after the rename."""
        from repro.fuzz.checkpoint import (
            FORMAT_VERSION,
            write_checkpoint_state,
        )

        synced = []
        real_fsync = os.fsync

        def spy(fd):
            synced.append(os.fstat(fd).st_ino)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        path = str(tmp_path / "cp.json")
        write_checkpoint_state(path, {"version": FORMAT_VERSION})
        # the temp file synced before the rename has the same inode as
        # the final path after it; the parent directory synced after
        assert os.stat(path).st_ino in synced
        assert os.stat(tmp_path).st_ino in synced

    def test_non_object_checkpoint_rejected(self, tmp_path):
        path = str(tmp_path / "cp.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('[1, 2, 3]')
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_version_mismatch_is_checkpoint_error(self):
        fuzzer = TardisFuzzer("InfiniTime", seed=1)
        state = engine_state(fuzzer, "InfiniTime", 100)
        state["version"] = 99
        with pytest.raises(CheckpointError):
            restore_engine(TardisFuzzer("InfiniTime", seed=1),
                           state, "InfiniTime")

    def test_structurally_broken_payload_is_checkpoint_error(self):
        fuzzer = TardisFuzzer("InfiniTime", seed=1)
        fuzzer.run(20)
        state = json.loads(json.dumps(engine_state(fuzzer, "InfiniTime", 40)))
        state["rng_state"] = ["bogus"]
        with pytest.raises(CheckpointError):
            restore_engine(TardisFuzzer("InfiniTime", seed=1),
                           state, "InfiniTime")

    def test_campaign_discards_corrupt_checkpoint_and_recovers(
            self, tmp_path):
        reference = run_campaign(
            "InfiniTime", budget=200, seed=1,
            checkpoint_path=str(tmp_path / "ref.json"))
        path = str(tmp_path / "cp.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("garbage, not a checkpoint")
        result = run_campaign("InfiniTime", budget=200, seed=1,
                              checkpoint_path=path)
        assert result.census() == reference.census()
        assert result.execs == reference.execs
        assert "corrupt" in result.diagnostics.checkpoint_discarded
        # the campaign re-checkpointed over the corrupt file
        assert load_checkpoint(path)["execs"] == 200

    def test_crash_records_survive_checkpoint(self, monkeypatch):
        fuzzer = TardisFuzzer("InfiniTime", seed=1, crash_budget=25)
        _hostile(monkeypatch, fuzzer, crashes_left=2)
        fuzzer.run(20)
        assert fuzzer.quarantined
        state = json.loads(json.dumps(engine_state(fuzzer, "InfiniTime", 40)))
        clone = TardisFuzzer("InfiniTime", seed=1, crash_budget=25)
        restore_engine(clone, state, "InfiniTime")
        assert [r.to_json() for r in clone.quarantined] == [
            r.to_json() for r in fuzzer.quarantined
        ]
        assert clone.host_crashes == fuzzer.host_crashes


class TestCampaignHardening:
    def test_seed_and_budget_recorded_for_replay(self):
        result = run_campaign("InfiniTime", budget=100, seed=5)
        assert (result.seed, result.budget) == (5, 100)
        for finding in result.findings:
            assert finding.seed == 5

    def test_fault_campaign_survives_full_budget(self):
        result = run_campaign("InfiniTime", budget=150, seed=2,
                              faults="alloc:every=25;seed=7")
        assert result.execs == 150
        assert not result.diagnostics.degraded
        assert result.diagnostics.fault_stats["alloc_failures"] > 0

    def test_repeated_campaign_merges_diagnostics(self):
        # a multi-seed run must aggregate every repetition's telemetry,
        # not report only the first seed's
        seeds = (1, 2)
        singles = [
            run_campaign("InfiniTime", budget=100, seed=seed,
                         watchdog_insns=200, watchdog_cycles=50.0)
            for seed in seeds
        ]
        # every seed misses at least one catalog row at this budget, so
        # the repeated run cannot stop early
        assert all(result.missed for result in singles)
        merged = run_campaign_repeated("InfiniTime", budget=100, seeds=seeds,
                                       watchdog_insns=200,
                                       watchdog_cycles=50.0)
        diag = merged.diagnostics
        assert diag.seeds == list(seeds)
        assert diag.budget == sum(r.diagnostics.budget for r in singles)
        assert diag.watchdog_trips == sum(
            r.diagnostics.watchdog_trips for r in singles)
        assert diag.watchdog_trips > 0

    def test_repeated_campaign_merges_quarantine_records(self, monkeypatch):
        calls = {"n": 0}

        def sometimes_bomb(self, program, style):
            calls["n"] += 1
            if calls["n"] % 37 == 0:
                raise RuntimeError("intermittent host explosion")
            return original(self, program, style)

        from repro.fuzz.engine import FuzzTarget

        original = FuzzTarget.execute
        monkeypatch.setattr(FuzzTarget, "execute", sometimes_bomb)
        # budget 40 leaves rows missed after seed 1, so both seeds run
        merged = run_campaign_repeated("InfiniTime", budget=40,
                                       seeds=(1, 2), crash_budget=50)
        diag = merged.diagnostics
        assert diag.seeds == [1, 2]
        assert diag.host_crashes == len(diag.quarantined)
        assert diag.host_crashes >= 2  # crashes from both repetitions kept

    def test_tight_watchdog_reports_hangs(self):
        result = run_campaign("InfiniTime", budget=100, seed=3,
                              watchdog_insns=200, watchdog_cycles=50.0)
        assert result.execs == 100
        assert result.diagnostics.watchdog_trips > 0
        hangs = [f for f in result.findings
                 if f.report.location == "guest-hang"]
        assert hangs


class TestProgramSerialization:
    def test_program_json_round_trip(self):
        program = Program([
            Call(1, [7, ("buf", 2, 3), "$fd"], "fd"),
            Call(2, ["$fd", 0x41], None),
        ])
        back = Program.from_json(program.to_json())
        assert back.to_json() == program.to_json()
        assert [c.args for c in back.calls] == [c.args for c in program.calls]

    def test_crash_record_json_round_trip(self):
        record = CrashRecord(
            index=3,
            program=Program([Call("read", (1,), None)]),
            exc_type="ValueError",
            exception="ValueError('x')",
            console_tail="tail",
            counters={"execs": 3},
        )
        back = CrashRecord.from_json(record.to_json())
        assert back.to_json() == record.to_json()
