"""Event kinds dispatched through a machine's hook registry."""

from __future__ import annotations

import enum
from typing import List, NamedTuple, Optional


class EventKind(enum.Enum):
    """Every sanitizer-sensitive event class the emulator exposes."""

    # members are singletons, so identity hashing is exact; Enum's own
    # __hash__ hashes the member name in Python on every registry lookup
    __hash__ = object.__hash__

    #: payload: :class:`repro.mem.access.Access`
    MEM_ACCESS = "mem_access"
    #: payload: :class:`CallEvent`
    CALL = "call"
    #: payload: :class:`RetEvent`
    RET = "ret"
    #: payload: :class:`VmcallEvent`
    VMCALL = "vmcall"
    #: payload: :class:`TaskSwitchEvent`
    TASK_SWITCH = "task_switch"
    #: payload: None — the firmware reached its ready-to-run state
    READY = "ready"
    #: payload: :class:`InterruptEvent`
    INTERRUPT = "interrupt"
    #: payload: :class:`ConsoleEvent` — a byte reached the UART
    CONSOLE = "console"


class CallEvent(NamedTuple):
    """A guest function call, as reconstructed at the emulator level."""

    pc: int  #: call-site program counter (0 when unknown)
    target: int  #: callee entry address
    args: List[int]  #: up to four ABI argument registers
    task: int  #: running task id
    name: Optional[str] = None  #: symbol, when the binary is not stripped


class RetEvent(NamedTuple):
    """A guest function return."""

    target: int  #: entry address of the returning function
    retval: int
    task: int
    name: Optional[str] = None


class VmcallEvent(NamedTuple):
    """A guest hypercall (trap instruction) with its argument registers."""

    number: int
    args: List[int]
    pc: int
    task: int


class TaskSwitchEvent(NamedTuple):
    """The guest scheduler switched tasks."""

    prev: int
    next: int


class InterruptEvent(NamedTuple):
    """A device raised an interrupt line."""

    irq: int
    device: str


class ConsoleEvent(NamedTuple):
    """One byte written to the UART data register."""

    byte: int
