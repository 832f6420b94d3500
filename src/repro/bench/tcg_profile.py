"""Wall-clock hot-loop profile for the EVM32 execution tiers.

The Figure-2 cost model reports *modeled* guest-cycle ratios, which are
tier-independent by construction; this module measures the orthogonal
quantity — how many guest instructions per host second each tier
actually retires — on a figure-2-style workload: a memory-heavy inner
loop (the fill/scan mix the overhead corpus replays) plus calls and
branches, run bare and with KASAN+KCSAN attached in EMBSAN-D mode.

Three cores are profiled (see :data:`CORES`): the thunk tier alone
(``spec``), the tiered engine machines ship with (``jit``) and the
reference interpreter (``interp``).

Used by ``benchmarks/bench_tcg_specialization.py`` to produce the
committed ``BENCH_tcg.json`` artifact.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Dict

from repro.emulator.arch import arch_by_name
from repro.emulator.machine import Machine
from repro.isa.assembler import assemble
from repro.isa.cpu import Cpu
from repro.isa.tcg import TcgEngine
from repro.sanitizers.runtime.runtime import CommonSanitizerRuntime, RuntimeConfig

#: Entry point of the profile program in flash.
TEXT_BASE = 0x0800_0000
#: Scratch buffer the loop streams through (sram).
DATA_BASE = 0x2000_0000

#: The hot loop: ~1/3 memory traffic, the rest ALU + branches + a call
#: per outer iteration — the instruction mix the merged overhead corpus
#: exhibits (see repro.bench.workload).
HOT_LOOP = """
.org 0x08000000
.global entry
entry:
    movi a0, 0x2000
    shli a0, a0, 16     ; data buffer base
    movi t0, 0          ; outer counter
    lui  t1, %(outer_hi)d
    ori  t1, t1, %(outer_lo)d
outer:
    call body
    addi t0, t0, 1
    blt  t0, t1, outer
    hlt
.global body
body:
    movi t2, 0
    movi t3, 24         ; words per inner pass
inner:
    shli s0, t2, 2
    add  s0, a0, s0
    st32 t2, [s0]       ; stream a word out ...
    ld32 s1, [s0]       ; ... and back in
    add  s2, s1, t2
    mul  s2, s2, t3
    xor  s2, s2, t0
    shri s3, s2, 3
    addi t2, t2, 1
    blt  t2, t3, inner
    ret
"""


#: row prefix -> the EVM32 core the profile machine attaches
CORES = {
    # a hotness threshold no block reaches: the thunk tier alone
    "spec": functools.partial(TcgEngine, hot_threshold=sys.maxsize),
    # the tiered engine exactly as ``Machine.add_cpu`` builds it
    "jit": TcgEngine,
    # the reference interpreter
    "interp": Cpu,
}


def build_workload(iterations: int) -> str:
    """Render the hot-loop source for ``iterations`` outer passes."""
    return HOT_LOOP % {
        "outer_hi": (iterations >> 16) & 0xFFFF,
        "outer_lo": iterations & 0xFFFF,
    }


def _make_machine(tier: str, sanitized: bool, iterations: int):
    machine = Machine(arch_by_name("arm"), name=f"tcg-profile-{tier}")
    machine.core_class = CORES[tier]
    program = assemble(build_workload(iterations), base=TEXT_BASE)
    with machine.bus.untraced():
        machine.bus.region_named("flash").write(TEXT_BASE, program.image)
    runtime = None
    if sanitized:
        config = RuntimeConfig(sanitizers=("kasan", "kcsan"), mode="d")
        runtime = CommonSanitizerRuntime(machine, config).attach()
    core = machine.add_cpu(pc=program.symbols["entry"], sp=0x2000_4000)
    if runtime is not None:
        # past the ready point: every access is validated
        machine.mark_ready()
    return machine, core


def profile_mode(tier: str, sanitized: bool, iterations: int = 2000,
                 max_steps: int = 50_000_000) -> Dict[str, float]:
    """Run the hot loop once on the ``tier`` core; returns timing facts."""
    machine, core = _make_machine(tier, sanitized, iterations)
    start = time.perf_counter()
    executed = core.run(max_steps=max_steps)
    elapsed = time.perf_counter() - start
    if not core.state.halted:  # pragma: no cover - budget misconfiguration
        raise RuntimeError(f"profile did not halt within {max_steps} steps")
    out = {
        "engine": tier,
        "sanitized": sanitized,
        "instructions": executed,
        "seconds": elapsed,
        "insn_per_sec": executed / elapsed if elapsed else 0.0,
        "guest_cycles": core.cycles,
    }
    for counter in ("tb_chain_hits", "tb_flush_count", "tb_evictions",
                    "tb_compiled", "jit_deopts", "jit_trace_execs"):
        if hasattr(core, counter):
            out[counter] = getattr(core, counter)
    return out


def profile_all(iterations: int = 2000) -> Dict[str, Dict[str, float]]:
    """Profile the three cores, bare and sanitized.

    Returns a dict keyed ``<tier>_bare`` / ``<tier>_kasan_kcsan`` for
    each tier in :data:`CORES`, plus the derived speedup ratios the
    bench floors reference: ``speedup_bare`` / ``speedup_sanitized``
    (thunk tier over ``Cpu``) and ``jit_speedup_bare`` /
    ``jit_speedup_sanitized`` (shipped engine over the thunk tier).
    """
    results = {}
    for sanitized, suffix in ((False, "bare"), (True, "kasan_kcsan")):
        for tier in CORES:
            results[f"{tier}_{suffix}"] = profile_mode(tier, sanitized,
                                                       iterations)

    def ratio(fast: str, slow: str) -> float:
        return results[fast]["insn_per_sec"] / results[slow]["insn_per_sec"]

    results["speedup_bare"] = ratio("spec_bare", "interp_bare")
    results["speedup_sanitized"] = ratio("spec_kasan_kcsan",
                                         "interp_kasan_kcsan")
    results["jit_speedup_bare"] = ratio("jit_bare", "spec_bare")
    results["jit_speedup_sanitized"] = ratio("jit_kasan_kcsan",
                                             "spec_kasan_kcsan")
    return results
