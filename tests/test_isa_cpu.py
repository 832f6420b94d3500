"""Unit tests: the EVM32 interpreter CPU and the TCG engine."""

import pytest

from repro.emulator.watchdog import Watchdog
from repro.errors import BusError, InvalidOpcode
from repro.isa.assembler import assemble
from repro.isa.cpu import Cpu
from repro.isa.tcg import TcgEngine
from repro.mem.bus import MemoryBus
from repro.mem.regions import MemoryRegion, Perm

RAM_BASE = 0x10000


def load_machine(source, engine="interp", hypercall=None):
    bus = MemoryBus()
    bus.map(MemoryRegion("text", 0, 0x4000, Perm.RX, "flash"))
    bus.map(MemoryRegion("ram", RAM_BASE, 0x4000, Perm.RW, "ram"))
    result = assemble(source)
    with bus.untraced():
        bus.region_named("text").write(0, result.image)
    cls = Cpu if engine == "interp" else TcgEngine
    core = cls(bus, pc=0, sp=RAM_BASE + 0x4000, hypercall=hypercall)
    return core, result


ALU_PROGRAM = f"""
    movi a0, 21
    movi a1, 2
    mul  a0, a0, a1      ; 42
    addi a0, a0, 8       ; 50
    movi a2, {RAM_BASE}
    st32 a0, [a2]
    ld32 a3, [a2]
    sub  a3, a3, a1      ; 48
    shri a3, a3, 2       ; 12
    hlt
"""


@pytest.mark.parametrize("engine", ["interp", "tcg"])
class TestBothEngines:
    def test_alu_and_memory(self, engine):
        core, _ = load_machine(ALU_PROGRAM, engine)
        core.run()
        assert core.state.read(4) == 12  # a3
        assert core.state.halted

    def test_run_counts_the_halting_insn(self, engine):
        core, _ = load_machine(ALU_PROGRAM, engine)
        core.watchdog = Watchdog()
        before = core.insn_count
        executed = core.run()
        # ten instructions, the final HLT included, retired and charged
        assert executed == core.insn_count - before == 10
        assert core.watchdog.insns == executed

    def test_loop(self, engine):
        core, _ = load_machine(
            """
            movi t0, 0
            movi t1, 10
            movi a0, 0
            loop:
                add  a0, a0, t0
                addi t0, t0, 1
                blt  t0, t1, loop
            hlt
            """,
            engine,
        )
        core.run()
        assert core.state.read(1) == sum(range(10))

    def test_call_ret(self, engine):
        core, _ = load_machine(
            """
                movi a0, 5
                call double
                hlt
            double:
                add a0, a0, a0
                ret
            """,
            engine,
        )
        core.run()
        assert core.state.read(1) == 10

    def test_signed_ops(self, engine):
        core, _ = load_machine(
            """
            movi a0, -8
            movi a1, 2
            sra  a0, a0, a1     ; -2
            movi a2, -1
            movi a3, 1
            slt  t0, a2, a3     ; 1 (signed)
            sltu t1, a2, a3     ; 0 (unsigned: 0xffffffff > 1)
            hlt
            """,
            engine,
        )
        core.run()
        assert core.state.read(1) == 0xFFFFFFFE
        assert core.state.read(5) == 1
        assert core.state.read(6) == 0

    def test_divu_by_zero(self, engine):
        core, _ = load_machine(
            "movi a0, 7\nmovi a1, 0\ndivu a2, a0, a1\nremu a3, a0, a1\nhlt",
            engine,
        )
        core.run()
        assert core.state.read(3) == 0xFFFFFFFF
        assert core.state.read(4) == 7

    def test_r0_hardwired(self, engine):
        core, _ = load_machine("movi r0, 99\nmov a0, r0\nhlt", engine)
        core.run()
        assert core.state.read(1) == 0

    def test_hypercall(self, engine):
        calls = []

        def handler(core, number):
            calls.append((number, core.state.read(1)))
            return 0x77

        core, _ = load_machine(
            "movi a0, 9\nvmcall 0x30\nhlt", engine, hypercall=handler
        )
        core.run()
        assert calls == [(0x30, 9)]
        assert core.state.read(1) == 0x77  # return value in a0

    def test_signed_loads(self, engine):
        core, _ = load_machine(
            f"""
            movi a2, {RAM_BASE}
            movi a0, 0xFF
            st8  a0, [a2]
            ld8s a1, [a2]
            ld8  a3, [a2]
            hlt
            """,
            engine,
        )
        core.run()
        assert core.state.read(2) == 0xFFFFFFFF
        assert core.state.read(4) == 0xFF

    def test_unmapped_access_raises(self, engine):
        core, _ = load_machine(
            "lui a0, 0x9000\nld32 a1, [a0]\nhlt", engine
        )
        with pytest.raises(BusError):
            core.run()

    def test_brk_trap(self, engine):
        core, _ = load_machine("brk", engine)
        with pytest.raises(InvalidOpcode):
            core.run()


class TestEngineEquivalence:
    def test_same_final_state(self):
        program = """
            movi t0, 1
            movi t1, 0
            movi t2, 12
        loop:
            add  t1, t1, t0
            shli t0, t0, 1
            addi t2, t2, -1
            bne  t2, r0, loop
            hlt
        """
        interp, _ = load_machine(program, "interp")
        tcg, _ = load_machine(program, "tcg")
        interp.run()
        tcg.run()
        assert interp.state.regs == tcg.state.regs


class TestTcgSpecifics:
    def test_tb_cache_reuse(self):
        core, _ = load_machine(
            "movi t0, 0\nloop:\naddi t0, t0, 1\nmovi t1, 100\n"
            "blt t0, t1, loop\nhlt",
            "tcg",
        )
        core.run()
        # the loop body translated once, executed ~100 times
        assert len(core.tb_cache) <= 4
        assert core.insn_count > 200

    def test_probe_injection_and_flush(self):
        core, _ = load_machine(ALU_PROGRAM, "tcg")
        seen = []
        core.add_mem_probe(seen.append)
        flushes = core.tb_flush_count
        core.run()
        assert [(a.is_write, a.size) for a in seen] == [(True, 4), (False, 4)]
        assert flushes >= 1

    def test_probe_removal_regenerates(self):
        core, _ = load_machine(ALU_PROGRAM, "tcg")
        seen = []
        probe = seen.append
        core.add_mem_probe(probe)
        core.remove_mem_probe(probe)
        core.run()
        assert seen == []

    def test_host_ops_grow_with_probes(self):
        plain, _ = load_machine(ALU_PROGRAM, "tcg")
        plain.run()
        probed, _ = load_machine(ALU_PROGRAM, "tcg")
        probed.add_mem_probe(lambda a: None)
        probed.run()
        assert probed.host_ops > plain.host_ops
