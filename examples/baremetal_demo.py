#!/usr/bin/env python
"""Bare-metal demo: sanitize raw EVM32 machine code, no OS at all.

Strips the stack down to its essentials: an assembled bare-metal
program runs on the TCG engine while the Common Sanitizer Runtime —
configured purely through hand-written SanSpec DSL, no Prober — checks
its memory traffic against object bounds declared in the init routine.
This is the category-3 mechanism with everything else removed.

Run:  python examples/baremetal_demo.py
"""

from repro.emulator.arch import arch_by_name
from repro.emulator.machine import Machine
from repro.isa.assembler import assemble
from repro.sanitizers.dsl import parse_document
from repro.sanitizers.dsl.compiler import compile_runtime_config
from repro.sanitizers.distiller import distill_reference
from repro.sanitizers.dsl.compiler import merge_sanitizers
from repro.sanitizers.runtime.runtime import CommonSanitizerRuntime

# a 64-byte "packet buffer" lives at 0x40000100; the program writes
# one word per iteration and — missing its bounds check — runs past it
SOURCE = """
.org 0x08000000
.global entry
entry:
    movi a0, 0x4000     ; buffer base, built in two steps
    shli a0, a0, 16
    addi a0, a0, 0x100
    movi t0, 0          ; index
    movi t1, 20         ; iterations: 20 words = 80 bytes > 64
fill:
    shli t2, t0, 2
    add  t2, a0, t2
    st32 t0, [t2]       ; buffer[i] = i
    addi t0, t0, 1
    blt  t0, t1, fill
    hlt
"""

PLATFORM_DSL = """
(platform "baremetal-demo"
  (arch "arm")
  (category 3)
  (memory-map)
  (ready (hypercall))
  (init-routine
    (alloc 0x40000100 64 0)   ; the packet buffer: 64 bytes
    (ready)))
"""


def main() -> None:
    machine = Machine(arch_by_name("arm"), name="baremetal")
    program = assemble(SOURCE, base=0x0800_0000)
    with machine.bus.untraced():
        machine.bus.region_named("flash").write(0x0800_0000, program.image)

    print("== configure the runtime from hand-written DSL ==")
    merged = merge_sanitizers([distill_reference("kasan")])
    platform = parse_document(PLATFORM_DSL)[0]
    config = compile_runtime_config(merged, platform)
    runtime = CommonSanitizerRuntime(machine, config).attach()
    runtime.apply_init_routine(platform.init_routine)
    print(f"mode: {config.mode} (dynamic probes), "
          f"objects seeded: {runtime.kasan.live_count()}")

    print("\n== run the bare-metal program on the TCG engine ==")
    core = machine.add_cpu(pc=program.symbols["entry"], sp=0x2000_4000)
    core.run(max_steps=10_000)
    print(f"executed {core.insn_count} instructions, "
          f"{core.tb_flush_count} TB flush(es) from probe injection")

    print(f"\n== {runtime.sink.unique_count()} report(s) ==")
    for report in runtime.sink.unique.values():
        print(report)


if __name__ == "__main__":
    main()
