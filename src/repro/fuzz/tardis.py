"""The Tardis-shaped fuzzer: executor programs + OS-agnostic coverage.

Tardis collects coverage from the emulator itself (function-entry
events), which is what lets it drive LiteOS, FreeRTOS and even the
closed-source VxWorks firmware without any in-guest instrumentation.
The paper extended it with per-OS executor programs and interface
specifications — here those are the :mod:`repro.fuzz.ifspec` RTOS
templates (and the Linux one for OpenHarmony-rk3566).
"""

from __future__ import annotations

from repro.fuzz.coverage import EmulatorCoverage
from repro.fuzz.engine import FirmwareFuzzer
from repro.fuzz.ifspec import interface_for


class TardisFuzzer(FirmwareFuzzer):
    """Coverage-guided RTOS fuzzing with emulator-level coverage."""

    name = "tardis"

    def coverage_for(self, image):
        return EmulatorCoverage(image.machine)

    def syscall_interface(self, kernel):
        return interface_for(kernel)
