"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.emulator.arch import arch_by_name
from repro.emulator.machine import Machine
from repro.firmware.builder import build_image, build_with_embsan
from repro.firmware.instrument import InstrumentationMode
from repro.guest.context import GuestContext
from repro.os.embedded_linux.kernel import EmbeddedLinuxKernel
from repro.os.embedded_linux.modules.bpf import BpfModule
from repro.os.embedded_linux.modules.watch_queue import WatchQueueModule


@pytest.fixture
def machine() -> Machine:
    """A bare ARM machine with devices mapped."""
    return Machine(arch_by_name("arm"), name="test-machine")


@pytest.fixture
def ctx(machine) -> GuestContext:
    """A guest context over the bare machine."""
    return GuestContext(machine)


def small_linux_factory(machine, bugs):
    """A compact Embedded Linux kernel with two bug-bearing modules."""
    kernel = EmbeddedLinuxKernel(machine, version="5.19", bugs=bugs)
    kernel.add_module(BpfModule(kernel))
    kernel.add_module(WatchQueueModule(kernel))
    return kernel


@pytest.fixture
def linux_image():
    """A booted bare (uninstrumented) small Linux firmware."""
    return build_image("test-linux", "x86", small_linux_factory,
                       mode=InstrumentationMode.NONE)


@pytest.fixture
def linux_c():
    """(image, runtime): small Linux under EMBSAN-C with KASAN."""
    return build_with_embsan(
        "test-linux-c", "x86", small_linux_factory,
        InstrumentationMode.EMBSAN_C, sanitizers=("kasan",),
    )


@pytest.fixture
def linux_d():
    """(image, runtime): small Linux under EMBSAN-D with KASAN."""
    return build_with_embsan(
        "test-linux-d", "mips", small_linux_factory,
        InstrumentationMode.EMBSAN_D, sanitizers=("kasan",),
    )


@pytest.fixture
def assert_restore_equals_rebuild(monkeypatch):
    """The fork server's contract, checked in one place: a campaign whose
    target resets by delta restore reports exactly what it reports when
    every reset rebuilds the firmware from scratch.

    ``run()`` runs one campaign and returns its result; ``rebuild``
    (default: ``run``) runs the same campaign for the reference side.
    The reference side makes every :meth:`ForkServer.restore` raise, so
    :class:`~repro.fuzz.engine.FuzzTarget` takes its rebuild fallback
    at every reset.  When ``run`` is in-process (no ``rebuild`` given)
    its side must really have restored.
    """
    import json

    from repro.emulator.snapshot import ForkServer
    from repro.fuzz.checkpoint import result_to_json

    def canon(result) -> str:
        return json.dumps(result_to_json(result), sort_keys=True)

    def check(run, rebuild=None):
        restores = []
        original = ForkServer.restore

        def counted(self):
            restores.append(self)
            return original(self)

        with monkeypatch.context() as patch:
            patch.setattr(ForkServer, "restore", counted)
            restored = run()
        assert restores or rebuild is not None
        refused = []

        def refuse(self):
            refused.append(self)
            raise RuntimeError("restore refused: rebuild instead")

        with monkeypatch.context() as patch:
            patch.setattr(ForkServer, "restore", refuse)
            rebuilt = (rebuild or run)()
        assert refused  # the reference side really rebuilt
        assert canon(restored) == canon(rebuilt)
        return restored

    return check
