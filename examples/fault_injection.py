#!/usr/bin/env python
"""Fault injection: campaigns that survive a hostile target.

A rehosted firmware does not fail politely.  Allocations fail under
memory pressure, flaky buses flip bits, interrupts arrive late or not
at all — and a long fuzzing campaign must absorb all of it without
losing its findings.  This demo hands the campaign a fault plan in the same DSL the CLI's
``--faults`` flag accepts (compiled into a deterministic
:class:`~repro.emulator.faults.FaultPlan` seeded from the campaign
seed), points it at the quickstart firmware, and shows the campaign completing its full budget anyway, with every
injected fault accounted for in the campaign diagnostics.

Run:  python examples/fault_injection.py
"""

from repro.emulator.faults import plan_for
from repro.fuzz.campaign import run_campaign

FIRMWARE = "OpenWRT-bcm63xx"  # the quickstart firmware
BUDGET = 300
SEED = 1

# every 30th kmalloc in the guest returns NULL, and 2% of device
# interrupts are delayed by two hypercall ticks
FAULT_SPEC = "alloc:every=30;irq:delay=2,p=0.02"


def main() -> None:
    print(f"== fuzzing {FIRMWARE} under injected faults ==")
    print(f"fault plan: {plan_for(FAULT_SPEC, seed=SEED).describe()}")

    result = run_campaign(FIRMWARE, budget=BUDGET, seed=SEED,
                          faults=FAULT_SPEC)

    print(f"\nfuzzer: {result.fuzzer}, execs: {result.execs}/{BUDGET}, "
          f"crashes: {result.crashes}")
    survived = result.execs == BUDGET and not result.diagnostics.degraded
    print(f"campaign survived full budget: {'yes' if survived else 'NO'}")

    print("\n== injected-fault accounting ==")
    for key, value in sorted(result.diagnostics.fault_stats.items()):
        print(f"  {key:16s} {value}")

    print("\n== campaign diagnostics ==")
    print(f"  {result.diagnostics.summary()}")
    for record in result.diagnostics.quarantined:
        print(f"  quarantined @ exec {record.index}: "
              f"{record.exc_type}: {record.exception}")

    reproducible = [f for f in result.findings if f.reproducible]
    print(f"\n{len(reproducible)} reproducible finding(s) "
          f"(seed {result.seed} replays them exactly):")
    for finding in reproducible:
        print(f"  {finding.report.bug_type.value} at "
              f"{finding.report.location}")


if __name__ == "__main__":
    main()
