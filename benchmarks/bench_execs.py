"""Execution-throughput benchmark: fork-server restore vs rebuild.

Runs the same campaign budget twice at ``refresh_interval=1`` — one
pristine target per program, the canonical AFL fork-server cadence,
where reset cost dominates — on a small firmware and on the
largest-RAM firmware in the catalog, and records executions per
wall-clock second for each.  One run resets by the fork server's
dirty-page delta restore (``forkserver``), the other by its fallback,
a rebuild of the firmware at every reset (``rebuild``).  At the
default refresh cadence resets are rare and guest execution dominates
(see the reset-cost section of ``docs/cost_model.md``); this benchmark
measures the regime the fork server exists for.

Asserted floors:

* restore >= 2x rebuild execs/s on the large-RAM case (the dirty-page
  delta restore replaces an O(firmware) rebuild);
* both runs produce byte-identical fuzzing outcomes (findings,
  coverage, crash counts) — throughput must not buy divergence;
* doubling DRAM leaves the per-restore cost for identical dirty work
  within noise (the restore is O(dirty pages), not O(RAM)).

Run as a script to (re)generate the committed artifact::

    PYTHONPATH=src python benchmarks/bench_execs.py [out.json]

writes ``BENCH_execs.json`` (default); CI regenerates it per run and
gates the large-case numbers against the committed baseline via
``check_bench_regression.py``.
"""

import json
import sys
import time

#: acceptance floor: restore vs rebuild execs/s on the large case
MIN_SPEEDUP_LARGE = 2.0
#: dirty pages written per sample in the RAM-scaling measurement
SCALING_PAGES = 8
#: samples per configuration (min is reported: scheduling noise only adds)
SCALING_SAMPLES = 5

#: (case name, firmware, budget).  InfiniTime is the smallest target in
#: the catalog; OpenWRT-x86_64 carries the largest RAM (128 MiB DRAM),
#: which is exactly what makes its per-refresh rebuild expensive.
CASES = (
    ("small", "InfiniTime", 400),
    ("large", "OpenWRT-x86_64", 300),
)
SEED = 1


def _outcome_bytes(fuzzer) -> str:
    """Canonical serialization of everything a campaign would report."""
    return json.dumps(
        {
            "execs": fuzzer.execs,
            "crashes": fuzzer.crashes,
            "findings": sorted(map(str, fuzzer.findings)),
            "coverage": sorted(fuzzer.target.coverage.points),
        },
        sort_keys=True,
    )


def _rebuild_every_reset(target) -> None:
    """Make every reset of ``target`` take the fork server's fallback:
    drop the golden state, rebuild the firmware, capture anew."""
    reset = target.reset

    def rebuild():
        target.fork_server.detach()
        target.fork_server = None
        reset()

    target.reset = rebuild


def _run_mode(firmware: str, budget: int, mode: str) -> dict:
    from repro.firmware.registry import firmware_spec
    from repro.fuzz.syzkaller import SyzkallerFuzzer
    from repro.fuzz.tardis import TardisFuzzer

    spec = firmware_spec(firmware)
    cls = SyzkallerFuzzer if spec.fuzzer == "syzkaller" else TardisFuzzer
    start = time.perf_counter()
    fuzzer = cls(firmware, seed=SEED)
    setup_s = time.perf_counter() - start
    if mode == "rebuild":
        _rebuild_every_reset(fuzzer.target)
    # one pristine target per program: the fork-server cadence
    fuzzer.refresh_interval = 1
    start = time.perf_counter()
    fuzzer.run(budget)
    fuzz_s = time.perf_counter() - start
    return {
        "setup_s": round(setup_s, 3),
        "fuzz_s": round(fuzz_s, 3),
        "execs_per_sec": round(fuzzer.execs / fuzz_s, 2),
        "resets": fuzzer.target.rebuilds + fuzzer.target.restores,
        "outcome": _outcome_bytes(fuzzer),
    }


def profile_scaling() -> dict:
    """Per-restore cost for identical dirty work as DRAM doubles."""
    from repro.emulator.arch import arch_by_name
    from repro.emulator.machine import Machine
    from repro.emulator.snapshot import ForkServer
    from repro.mem.dirty import PAGE_SIZE

    out = {}
    for scale in (1, 2):
        # ARM: the only map with address headroom directly above DRAM
        arch = arch_by_name("arm")
        arch = arch._replace(memory_map=tuple(
            spec._replace(size=spec.size * scale)
            if spec.name == "dram" else spec
            for spec in arch.memory_map
        ))
        machine = Machine(arch, name=f"scaling-{scale}x")
        dram = next(r for r in machine.bus.regions if r.kind == "dram")
        fork = ForkServer(machine)
        fork.restore()  # warm-up
        best = None
        for _ in range(SCALING_SAMPLES):
            for page in range(SCALING_PAGES):
                machine.bus.store(dram.base + page * PAGE_SIZE, 4, 0xAB)
            stats = fork.restore()
            assert stats.pages == SCALING_PAGES
            best = stats.us if best is None else min(best, stats.us)
        out[str(scale)] = {
            "dram_mib": dram.size // (1024 * 1024),
            "dirty_pages": SCALING_PAGES,
            "restore_us": round(best, 1),
        }
    return out


def profile_execs() -> dict:
    results = {"seed": SEED, "refresh_interval": 1, "cases": {}}
    for name, firmware, budget in CASES:
        case = {"firmware": firmware, "budget": budget}
        for mode in ("rebuild", "forkserver"):
            case[mode] = _run_mode(firmware, budget, mode)
        case["identical"] = case["rebuild"].pop("outcome") == \
            case["forkserver"].pop("outcome")
        case["speedup"] = round(
            case["forkserver"]["execs_per_sec"]
            / case["rebuild"]["execs_per_sec"], 3)
        results["cases"][name] = case
    results["scaling"] = profile_scaling()
    return results


def check(results: dict) -> None:
    for name, case in results["cases"].items():
        assert case["identical"], (
            f"{name}: restoring outcome diverged from rebuilding")
    large = results["cases"]["large"]
    assert large["speedup"] >= MIN_SPEEDUP_LARGE, (
        f"restore vs rebuild speedup {large['speedup']}x on "
        f"{large['firmware']} below the {MIN_SPEEDUP_LARGE}x floor")
    base = results["scaling"]["1"]["restore_us"]
    doubled = results["scaling"]["2"]["restore_us"]
    # identical dirty work, twice the RAM: flat within (generous) noise;
    # an O(RAM) full-copy regression would be ~1000x off this bound
    assert doubled < base * 10 + 200, (
        f"restore cost grew with RAM size: {base}us -> {doubled}us")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    out = argv[0] if argv else "BENCH_execs.json"
    results = profile_execs()
    check(results)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, case in results["cases"].items():
        print(f"{name:5s} {case['firmware']:16s} "
              f"rebuild {case['rebuild']['execs_per_sec']:8.1f}/s  "
              f"forkserver {case['forkserver']['execs_per_sec']:8.1f}/s  "
              f"speedup {case['speedup']:.2f}x  "
              f"identical={case['identical']}")
    scaling = results["scaling"]
    print(f"restore @ {SCALING_PAGES} dirty pages: "
          f"{scaling['1']['dram_mib']} MiB -> {scaling['1']['restore_us']}us, "
          f"{scaling['2']['dram_mib']} MiB -> {scaling['2']['restore_us']}us")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
