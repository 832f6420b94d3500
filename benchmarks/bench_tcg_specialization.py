"""EVM32 execution-tier microbenchmark.

Measures guest instructions per host second on the figure-2-style hot
loop (``repro.bench.tcg_profile``) for three cores, bare and with
KASAN+KCSAN attached in EMBSAN-D mode:

* ``spec_*``   — the TCG thunk tier alone (a hotness threshold that
  never fires)
* ``jit_*``    — the tiered TCG engine as machines attach it
* ``interp_*`` — the reference ``Cpu`` interpreter

and asserts the acceptance floors: thunks >= 2x ``Cpu`` bare and
>= 1.5x sanitized; the shipped engine >= 3x the thunk tier bare.  The
sanitized jit/spec ratio is recorded for the trajectory but has no
floor — probed accesses keep the full shadow/bus fast path and gain
less from compilation.

Run as a script to (re)generate the committed artifact::

    PYTHONPATH=src python benchmarks/bench_tcg_specialization.py [out.json]

writes ``BENCH_tcg.json`` (default) with the raw numbers, including the
trace counters (``tb_compiled``, ``jit_deopts``) so a regression that
stops compiling traces (or deopt-storms) is visible in the artifact, not
just in the timing; CI uploads it per run.
"""

import json
import sys

from repro.bench.tcg_profile import profile_all

#: acceptance floors: thunk tier vs the reference interpreter
MIN_SPEEDUP_BARE = 2.0
MIN_SPEEDUP_SANITIZED = 1.5
#: acceptance floor: compiled traces vs the thunk tier, bare
MIN_JIT_SPEEDUP_BARE = 3.0

#: outer iterations; ~150 guest instructions each
ITERATIONS = 1200

ROWS = ("spec_bare", "jit_bare", "interp_bare",
        "spec_kasan_kcsan", "jit_kasan_kcsan", "interp_kasan_kcsan")


def _format(results) -> str:
    lines = ["EVM32 tiers: hot-loop instructions/second"]
    for key in ROWS:
        row = results[key]
        lines.append(
            f"  {key:20s} {row['insn_per_sec']:>12,.0f} insn/s  "
            f"({row['instructions']} insns, chain_hits="
            f"{row.get('tb_chain_hits', 0)}, compiled="
            f"{row.get('tb_compiled', 0)}, deopts="
            f"{row.get('jit_deopts', 0)})"
        )
    lines.append(f"  spec/interp bare      : {results['speedup_bare']:.2f}x "
                 f"(floor {MIN_SPEEDUP_BARE}x)")
    lines.append(f"  spec/interp sanitized : "
                 f"{results['speedup_sanitized']:.2f}x "
                 f"(floor {MIN_SPEEDUP_SANITIZED}x)")
    lines.append(f"  jit/spec bare         : "
                 f"{results['jit_speedup_bare']:.2f}x "
                 f"(floor {MIN_JIT_SPEEDUP_BARE}x)")
    lines.append(f"  jit/spec sanitized    : "
                 f"{results['jit_speedup_sanitized']:.2f}x (no floor)")
    return "\n".join(lines)


def _check(results) -> None:
    for key, floor in (("speedup_bare", MIN_SPEEDUP_BARE),
                       ("speedup_sanitized", MIN_SPEEDUP_SANITIZED),
                       ("jit_speedup_bare", MIN_JIT_SPEEDUP_BARE)):
        assert results[key] >= floor, (
            f"{key} {results[key]:.2f}x below the {floor}x floor"
        )
    # the compiled tier must actually engage, and the hot loop has no
    # SMC or invalidation to tear its traces down
    for key in ("jit_bare", "jit_kasan_kcsan"):
        assert results[key]["tb_compiled"] > 0, f"{key} compiled no traces"
        assert results[key]["jit_deopts"] == 0, (
            f"{key} deopted {results[key]['jit_deopts']} trace(s)"
        )
    # every core must retire the identical instruction stream
    for suffix in ("bare", "kasan_kcsan"):
        rows = [results[f"{tier}_{suffix}"] for tier in ("spec", "jit",
                                                          "interp")]
        assert len({row["instructions"] for row in rows}) == 1, suffix
        assert len({row["guest_cycles"] for row in rows}) == 1, suffix


def test_tcg_specialization_speedup(once):
    results = once(profile_all, ITERATIONS)
    print("\n" + _format(results))
    _check(results)


def main(path: str = "BENCH_tcg.json") -> None:
    results = profile_all(ITERATIONS)
    print(_format(results))
    _check(results)
    with open(path, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main(*sys.argv[1:2])
