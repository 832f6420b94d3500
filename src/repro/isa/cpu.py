"""EVM32 interpreter CPU.

A straightforward decode-dispatch interpreter.  It is the reference
execution engine; :mod:`repro.isa.tcg` provides the tiered
translation-block engine with sanitizer probe injection that machines
attach and the Common Sanitizer Runtime patches (mirroring how EMBSAN
modifies QEMU/TCG templates).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.errors import GuestFault, GuestHang, InvalidOpcode
from repro.isa.insn import (
    INSN_SIZE,
    Instruction,
    NUM_REGS,
    Op,
    apply_load_sign,
    decode,
    sign32,
    u32,
)
from repro.mem.bus import MemoryBus

#: Hypercall handler signature: (cpu, number) -> optional return value.
HypercallHandler = Callable[["Cpu", int], Optional[int]]
#: Call probe signature: (pc, target, args, lr).
CallProbe = Callable[[int, int, List[int], int], None]
#: Return probe signature: (pc, return_value).
RetProbe = Callable[[int, int], None]


class CpuState:
    """Architectural state: 16 registers, pc, halt flag, current task id."""

    __slots__ = ("regs", "pc", "halted", "task")

    def __init__(self, pc: int = 0, sp: int = 0):
        self.regs: List[int] = [0] * NUM_REGS
        self.regs[14] = sp
        self.pc = pc
        self.halted = False
        self.task = 0

    def read(self, idx: int) -> int:
        """Read a register; r0 always reads 0."""
        return 0 if idx == 0 else self.regs[idx]

    def write(self, idx: int, value: int) -> None:
        """Write a register; writes to r0 are discarded."""
        if idx != 0:
            self.regs[idx] = u32(value)


class Cpu:
    """Interpreter-based EVM32 core attached to a memory bus."""

    def __init__(
        self,
        bus: MemoryBus,
        pc: int = 0,
        sp: int = 0,
        hypercall: Optional[HypercallHandler] = None,
    ):
        self.bus = bus
        self.state = CpuState(pc=pc, sp=sp)
        self.hypercall = hypercall
        self.cycles = 0
        self.insn_count = 0
        self.call_probes: List[CallProbe] = []
        self.ret_probes: List[RetProbe] = []
        #: optional hang guard, consulted once per retired instruction
        self.watchdog = None
        #: optional per-instruction trace hook (pc, insn) for the Prober.
        self.trace: Optional[Callable[[int, Instruction], None]] = None

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute one instruction; returns False once halted."""
        state = self.state
        if state.halted:
            return False
        pc = state.pc
        try:
            blob = self.bus.fetch(pc, INSN_SIZE)
            insn = decode(blob)
        except GuestFault:
            state.halted = True
            raise
        if self.trace is not None:
            self.trace(pc, insn)
        self._execute(pc, insn)
        self.insn_count += 1
        return not state.halted

    def run(self, max_steps: int = 1_000_000) -> int:
        """Run until HLT or ``max_steps``; returns instructions executed.

        Every retired instruction, the halting ``HLT`` included, counts
        toward the return value and is charged to the watchdog.
        """
        executed = 0
        state = self.state
        watchdog = self.watchdog
        while executed < max_steps and not state.halted:
            self.step()
            executed += 1
            if watchdog is not None:
                try:
                    watchdog.consume(1, state.pc, state.task)
                except GuestHang:
                    state.halted = True
                    raise
        return executed

    # ------------------------------------------------------------------
    def _execute(self, pc: int, insn: Instruction) -> None:
        state = self.state
        op = insn.op
        next_pc = pc + INSN_SIZE
        rs1 = state.read(insn.rs1)
        rs2 = state.read(insn.rs2)
        self.cycles += 1

        if op is Op.NOP:
            pass
        elif op is Op.HLT:
            state.halted = True
        elif op is Op.BRK:
            state.halted = True
            raise InvalidOpcode(f"BRK trap at {pc:#010x}", addr=pc)
        elif op is Op.VMCALL:
            self.cycles += 1
            if self.hypercall is None:
                raise InvalidOpcode(f"VMCALL with no handler at {pc:#010x}", addr=pc)
            result = self.hypercall(self, insn.imm)
            if result is not None:
                state.write(1, result)
        # --- ALU register-register -----------------------------------
        elif op is Op.ADD:
            state.write(insn.rd, rs1 + rs2)
        elif op is Op.SUB:
            state.write(insn.rd, rs1 - rs2)
        elif op is Op.MUL:
            state.write(insn.rd, rs1 * rs2)
        elif op is Op.DIVU:
            state.write(insn.rd, 0xFFFFFFFF if rs2 == 0 else rs1 // rs2)
        elif op is Op.REMU:
            state.write(insn.rd, rs1 if rs2 == 0 else rs1 % rs2)
        elif op is Op.AND:
            state.write(insn.rd, rs1 & rs2)
        elif op is Op.OR:
            state.write(insn.rd, rs1 | rs2)
        elif op is Op.XOR:
            state.write(insn.rd, rs1 ^ rs2)
        elif op is Op.SHL:
            state.write(insn.rd, rs1 << (rs2 & 31))
        elif op is Op.SHR:
            state.write(insn.rd, rs1 >> (rs2 & 31))
        elif op is Op.SRA:
            state.write(insn.rd, sign32(rs1) >> (rs2 & 31))
        elif op is Op.SLT:
            state.write(insn.rd, 1 if sign32(rs1) < sign32(rs2) else 0)
        elif op is Op.SLTU:
            state.write(insn.rd, 1 if rs1 < rs2 else 0)
        # --- ALU immediate --------------------------------------------
        elif op is Op.ADDI:
            state.write(insn.rd, rs1 + insn.imm)
        elif op is Op.ANDI:
            state.write(insn.rd, rs1 & insn.imm)
        elif op is Op.ORI:
            state.write(insn.rd, rs1 | insn.imm)
        elif op is Op.XORI:
            state.write(insn.rd, rs1 ^ insn.imm)
        elif op is Op.SHLI:
            state.write(insn.rd, rs1 << (insn.imm & 31))
        elif op is Op.SHRI:
            state.write(insn.rd, rs1 >> (insn.imm & 31))
        elif op is Op.MOVI:
            state.write(insn.rd, insn.imm)
        elif op is Op.LUI:
            state.write(insn.rd, insn.imm << 16)
        elif op is Op.MOV:
            state.write(insn.rd, rs1)
        # --- memory -----------------------------------------------------
        elif op is Op.LD8:
            state.write(insn.rd, self._load(rs1 + insn.imm, 1, pc))
        elif op is Op.LD16:
            state.write(insn.rd, self._load(rs1 + insn.imm, 2, pc))
        elif op is Op.LD32:
            state.write(insn.rd, self._load(rs1 + insn.imm, 4, pc))
        elif op is Op.LD8S:
            value = self._load(rs1 + insn.imm, 1, pc)
            state.write(insn.rd, apply_load_sign(op, value))
        elif op is Op.LD16S:
            value = self._load(rs1 + insn.imm, 2, pc)
            state.write(insn.rd, apply_load_sign(op, value))
        elif op is Op.LDA32:
            state.write(insn.rd, self._load(rs1 + insn.imm, 4, pc, atomic=True))
        elif op is Op.ST8:
            self._store(rs1 + insn.imm, 1, rs2, pc)
        elif op is Op.ST16:
            self._store(rs1 + insn.imm, 2, rs2, pc)
        elif op is Op.ST32:
            self._store(rs1 + insn.imm, 4, rs2, pc)
        elif op is Op.STA32:
            self._store(rs1 + insn.imm, 4, rs2, pc, atomic=True)
        # --- control flow ----------------------------------------------
        elif op is Op.JMP:
            next_pc = u32(insn.imm)
        elif op is Op.JR:
            next_pc = rs1
        elif op is Op.BEQ:
            next_pc = u32(insn.imm) if rs1 == rs2 else next_pc
        elif op is Op.BNE:
            next_pc = u32(insn.imm) if rs1 != rs2 else next_pc
        elif op is Op.BLT:
            next_pc = u32(insn.imm) if sign32(rs1) < sign32(rs2) else next_pc
        elif op is Op.BLTU:
            next_pc = u32(insn.imm) if rs1 < rs2 else next_pc
        elif op is Op.BGE:
            next_pc = u32(insn.imm) if sign32(rs1) >= sign32(rs2) else next_pc
        elif op is Op.BGEU:
            next_pc = u32(insn.imm) if rs1 >= rs2 else next_pc
        elif op is Op.CALL:
            state.write(15, next_pc)
            self._notify_call(pc, u32(insn.imm), next_pc)
            next_pc = u32(insn.imm)
        elif op is Op.CALLR:
            state.write(15, next_pc)
            self._notify_call(pc, rs1, next_pc)
            next_pc = rs1
        elif op is Op.RET:
            next_pc = state.read(15)
            for probe in self.ret_probes:
                probe(pc, state.read(1))
        else:  # pragma: no cover - decode() rejects unknown opcodes
            raise InvalidOpcode(f"unhandled opcode {op!r} at {pc:#010x}", addr=pc)

        state.pc = next_pc

    # ------------------------------------------------------------------
    def _load(self, addr: int, size: int, pc: int, atomic: bool = False) -> int:
        self.cycles += 1
        return self.bus.load(u32(addr), size, pc=pc, task=self.state.task, atomic=atomic)

    def _store(
        self, addr: int, size: int, value: int, pc: int, atomic: bool = False
    ) -> None:
        self.cycles += 1
        self.bus.store(u32(addr), size, value, pc=pc, task=self.state.task, atomic=atomic)

    def _notify_call(self, pc: int, target: int, lr: int) -> None:
        if self.call_probes:
            args = [self.state.read(i) for i in range(1, 5)]
            for probe in self.call_probes:
                probe(pc, target, args, lr)
