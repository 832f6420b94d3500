"""The Syzkaller-shaped fuzzer: syscall programs + kcov coverage."""

from __future__ import annotations

from repro.fuzz.coverage import EmulatorCoverage, KcovCoverage
from repro.fuzz.engine import FirmwareFuzzer
from repro.fuzz.ifspec import linux_interface


class SyzkallerFuzzer(FirmwareFuzzer):
    """Coverage-guided syscall fuzzing of Embedded Linux firmware."""

    name = "syzkaller"

    def coverage_for(self, image):
        if image.ctx.kcov_enabled:
            return KcovCoverage(image.machine)
        return EmulatorCoverage(image.machine)

    def syscall_interface(self, kernel):
        return linux_interface(kernel)
