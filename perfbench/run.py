"""Campaign benchmark: fork-server catalog campaigns timed on a
host-speed reference clock, with a separate traced run per layer.

Run from the repository root::

    python3 perfbench/run.py --workload linux-syscall --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
earlier lines carry the noise detail (raw wall seconds, reference-loop
spread) that is recorded but not gated.  The exit code is non-zero when
the census is incomplete, an outcome digest diverges or the trace does
not add up.  See ``perfbench/README.md`` for the method.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from refclock import BUFFER_BYTES, RefClock  # noqa: E402
from workloads import (  # noqa: E402
    CENSUS_EXTRA_CAMPAIGNS,
    WORKLOADS,
    campaign_seeds,
    construction_matches_run_campaign,
    make_fuzzer,
    panel_size,
    reference_digest,
    run_campaign_chunked,
)

#: fuzzer constructions timed for ``setup_s`` (median reported)
SETUP_BUILDS = 7
#: tolerance of the traced self-time sum against traced wall time
TRACE_SUM_TOLERANCE = 0.03
#: where traced runs write their per-exec spans and layer aggregates
TRACE_DIR = os.path.join(ROOT, "perfbench-out")


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _census(workload, seeds, campaigns) -> set:
    """Rows matched by the panel, extended with untimed campaigns at the
    next seeds until the census is complete or the seeds run out."""
    matched = set().union(*(c.matched for c in campaigns))
    for seed in seeds[len(campaigns):]:
        if len(matched) >= workload.census:
            break
        matched |= run_campaign_chunked(workload, seed).matched
    return matched


def _identity(workload, seed: int, digest: str, reference: str) -> dict:
    """Outcome-digest check of a campaign against its reference (and,
    for a refresh override, of the construction path against
    ``run_campaign``)."""
    out = {"digest": digest, "reference": reference,
           "identical": digest == reference}
    if workload.refresh_interval is not None:
        out["construction_matches"] = construction_matches_run_campaign(
            workload, seed)
        out["identical"] = out["identical"] and out["construction_matches"]
    return out


def timed_run(workload, seed: int, seconds: int) -> tuple:
    """End-to-end metrics: setup builds, then the timed panel."""
    panel = panel_size(workload, seconds)
    seeds = campaign_seeds(seed, panel + CENSUS_EXTRA_CAMPAIGNS)
    clock = RefClock()

    setup_ref, setup_wall = [], []
    for _ in range(SETUP_BUILDS):
        fuzzer, ref_s, wall_s = clock.interval(
            lambda: make_fuzzer(workload, seeds[0]))
        setup_ref.append(ref_s)
        setup_wall.append(wall_s)
        del fuzzer
        gc.collect()

    campaigns = [run_campaign_chunked(workload, s, clock)
                 for s in seeds[:panel]]
    first = campaigns[0]
    identity = _identity(workload, first.seed, first.digest,
                         reference_digest(workload, first.seed))
    matched = _census(workload, seeds, campaigns)

    # panel totals: the campaigns' seeds differ, so their work per exec
    # differs too, and the ratio of sums weights each by its work
    execs = sum(c.execs for c in campaigns)
    fuzz_ref = sum(c.ref_s["fuzz"] for c in campaigns)
    guest = sum(c.totals["guest_cycles"] for c in campaigns)
    overhead = sum(c.totals["overhead_cycles"] for c in campaigns)
    peak = _peak_rss_mb()
    metrics = {
        "setup_s": _metric(statistics.median(setup_ref), "s"),
        "execs_per_s": _metric(execs / fuzz_ref, "1/s"),
        "guest_kcycles_per_s": _metric(guest / fuzz_ref / 1e3, "kcycles/s"),
        "campaign_s": _metric(statistics.mean(
            sum(c.ref_s.values()) for c in campaigns), "s"),
        "peak_rss_mb": _metric(peak, "MiB"),
        "bugs_found": _metric(len(matched), "count"),
        "coverage_points": _metric(
            len(set().union(*(c.coverage for c in campaigns))), "count"),
        "guest_cycles_per_exec": _metric(guest / execs, "cycles"),
        "modeled_overhead_pct": _metric(100.0 * overhead / guest, "%"),
    }
    detail = {
        "workload": workload.name,
        "seed": seed,
        "campaign_seeds": [c.seed for c in campaigns],
        "census": f"{len(matched)}/{workload.census}",
        "identity": identity,
        "setup_wall_s": setup_wall,
        "campaign_wall_s": [c.wall_s for c in campaigns],
        "campaign_ref_s": [c.ref_s for c in campaigns],
        "reference_loop": clock.loop_stats(),
        "reference_buffer_share_of_peak_rss": BUFFER_BYTES / 2**20 / peak,
    }
    correct = len(matched) == workload.census and identity["identical"]
    return correct, campaigns, metrics, detail


def _layer_metrics(spans, traced, untraced_ref: float,
                   traced_ref: float) -> dict:
    """Every per-layer metric of one traced campaign."""
    calls, self_s, counts = spans.calls, spans.self_s, spans.counts
    totals = traced.totals
    reports = calls["sanitizers.report"]
    restores = counts["restores"]
    m = {
        "firmware.build_s": (self_s["firmware.build"], "s"),
        "fuzz.mutate_calls": (calls["fuzz.mutate"], "count"),
        "fuzz.mutate_s": (self_s["fuzz.mutate"], "s"),
        "fuzz.generate_calls": (calls["fuzz.generate"], "count"),
        "fuzz.generate_s": (self_s["fuzz.generate"], "s"),
        "fuzz.engine_self_s": (self_s["fuzz.engine"], "s"),
        "fuzz.execute_self_s": (self_s["fuzz.execute"], "s"),
        "fuzz.novel_ratio": (traced.corpus_adds / max(1, traced.execs),
                             "ratio"),
        "fuzz.reproduce_s": (self_s["fuzz.reproduce"], "s"),
        "fuzz.replay_execs": (counts["replay_execs"], "count"),
        "fuzz.coverage_s": (self_s["fuzz.coverage"], "s"),
        "os.calls": (calls["os"], "count"),
        "os.self_s": (self_s["os"] + self_s["os.isr"], "s"),
        "emulator.vmcalls": (calls["emulator.vmcall"], "count"),
        "emulator.vmcall_self_s": (self_s["emulator.vmcall"], "s"),
        "emulator.hook_emits": (calls["emulator.hook"], "count"),
        "emulator.hook_self_s": (self_s["emulator.hook"], "s"),
        "emulator.call_ret_events": (calls["emulator.call_ret"], "count"),
        "emulator.call_ret_s": (self_s["emulator.call_ret"], "s"),
        "sanitizers.handler_s": (self_s["sanitizers.handler"], "s"),
        "sanitizers.probe_s": (self_s["sanitizers.probe"], "s"),
        "sanitizers.checks": (totals["sanitizer_checks"], "count"),
        "sanitizers.fastpath_ratio": (
            totals["fastpath_hits"] / max(1, totals["shadow_checks"]),
            "ratio"),
        "sanitizers.reports": (reports, "count"),
        "sanitizers.report_s": (self_s["sanitizers.report"], "s"),
        "sanitizers.useful_report_ratio": (
            traced.reproducible / max(1, reports), "ratio"),
        "mem.loads": (calls["mem.load"], "count"),
        "mem.load_s": (self_s["mem.load"], "s"),
        "mem.stores": (calls["mem.store"], "count"),
        "mem.store_s": (self_s["mem.store"], "s"),
        "mem.bulk_s": (self_s["mem.bulk"], "s"),
        "reset.restores": (restores, "count"),
        "reset.rebuilds": (calls["firmware.build"], "count"),
        "reset.s": (self_s["reset"], "s"),
        "reset.pages_per_restore": (
            counts["restore_pages"] / max(1, restores), "pages"),
        "isa.runs": (calls["isa"], "count"),
        "isa.s": (self_s["isa"], "s"),
        "isa.insns": (counts["isa_insns"], "count"),
        "periph.ring_process_s": (self_s["periph.ring"], "s"),
        "periph.irq_s": (self_s["periph.irq"], "s"),
        "periph.dma_descriptors": (counts["dma_descriptors"], "count"),
        "periph.irqs_delivered": (counts["irqs_delivered"], "count"),
        "trace.harness_s": (self_s["harness"], "s"),
        "trace.wall_s": (spans.wall_s, "s"),
        "trace.overhead_pct": (100.0 * (traced_ref / untraced_ref - 1.0),
                               "%"),
    }
    return {name: _metric(value, unit) for name, (value, unit) in m.items()}


def self_time_sum(metrics: dict) -> float:
    """Sum of every reported self-time metric (all in unit ``s``)."""
    return sum(metric["value"] for name, metric in metrics.items()
               if metric["unit"] == "s" and name != "trace.wall_s")


def traced_run(workload, seed: int, seconds: int) -> tuple:
    """Per-layer metrics from one traced campaign (the panel's first)."""
    from layertrace import SpanStack, install

    seeds = campaign_seeds(seed, 1 + CENSUS_EXTRA_CAMPAIGNS)
    clock = RefClock()

    # the untraced twin of the traced campaign, timed as one interval
    reference, untraced_ref, untraced_wall = clock.interval(
        lambda: reference_digest(workload, seeds[0]))

    spans = SpanStack()

    def traced_campaign():
        spans.start()
        try:
            return run_campaign_chunked(workload, seeds[0],
                                        chunk=workload.budget)
        finally:
            spans.stop()

    undo = install(spans)
    try:
        traced, traced_ref, traced_wall = clock.interval(traced_campaign)
    finally:
        undo()

    campaigns = [traced]
    matched = _census(workload, seeds, campaigns)
    metrics = _layer_metrics(spans, traced, untraced_ref, traced_ref)
    summed = self_time_sum(metrics)
    sum_ok = abs(summed - spans.wall_s) <= TRACE_SUM_TOLERANCE * spans.wall_s
    identity = _identity(workload, seeds[0], traced.digest, reference)
    detail = {
        "workload": workload.name,
        "seed": seed,
        "campaign_seeds": [c.seed for c in campaigns],
        "census": f"{len(matched)}/{workload.census}",
        "identity": identity,
        "self_time_sum_s": summed,
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "reference_loop": clock.loop_stats(),
    }
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"{workload.name}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "detail": detail,
            "layers": {name: {"calls": spans.calls[name], "self_s": value}
                       for name, value in sorted(spans.self_s.items())},
            "counts": dict(spans.counts),
            "execs": spans.execs,
        }, fh)
    correct = (len(matched) == workload.census and identity["identical"]
               and sum_ok)
    return correct, campaigns, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    workload = WORKLOADS[args.workload]
    run = traced_run if args.trace else timed_run
    correct, campaigns, metrics, detail = run(workload, args.seed,
                                              args.seconds)
    print("perfbench-detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": sum(c.budget for c in campaigns),
        "failed": sum(c.failed for c in campaigns),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
