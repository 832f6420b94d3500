"""The benchmark's workloads and the campaign they run.

A workload is one catalog firmware fuzzed the way ``run_campaign``
fuzzes it: fork-server exec mode, the sanitizers the catalog selects,
the firmware's designated fuzzer and its default crash budget.  The
benchmark builds the fuzzer itself (instead of calling
``run_campaign``) so it can drive the fuzz loop in chunks and time
every interval on the reference clock; :func:`outcome_digest` of that
campaign must equal the digest of ``run_campaign`` at the same seed and
budget, which proves the two build and run the same campaign.

One run fuzzes a *panel* of campaigns whose seeds derive from the
benchmark's ``--seed``.  Findings merge across the panel, the way the
repository's own census is defined (``run_all_campaigns(seeds=...)``
repeats each campaign across seeds and merges).  If the panel has not
matched every catalog row, up to :data:`CENSUS_EXTRA_CAMPAIGNS` more
campaigns run, the way ``run_campaign_repeated`` continues until the
census is complete; only the panel is timed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set

#: untimed campaigns a run may add after its timed ones before a missing
#: census row fails it
CENSUS_EXTRA_CAMPAIGNS = 5


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    firmware: str
    surface: str
    #: fuzz executions per campaign
    budget: int
    #: catalog rows the merged campaigns must match
    census: int
    #: executions between two reference-clock samples
    chunk: int
    #: reference seconds one campaign takes (build, fuzz, reproduce):
    #: ``--seconds`` divided by this is the number of timed campaigns
    nominal_campaign_s: float
    #: override of the engine's refresh interval (None keeps the default)
    refresh_interval: Optional[int] = None


#: Why each workload exists, and why two of them restore the fork-server
#: snapshot before every program (refresh interval 1), is in README.md.
WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        # EMBSAN-C hypercall round trip; largest RAM.  Keeps the default
        # refresh: its state-dependent iommu bug needs a multi-program
        # session to trigger
        Workload("linux-syscall", "OpenWRT-x86_64", "syscall",
                 budget=3000, census=7, chunk=150, nominal_campaign_s=7.5),
        # the closed VxWorks blob on the ISA engine: bus and kernel model
        Workload("blob-tplink", "TP-Link WDR-7660", "syscall",
                 budget=1000, census=2, chunk=100, nominal_campaign_s=4.7,
                 refresh_interval=1),
        # driver surface: write-heavy descriptor-ring DMA and IRQs
        Workload("driver-dma", "OpenWRT-armvirt", "driver",
                 budget=1000, census=3, chunk=100, nominal_campaign_s=4.7,
                 refresh_interval=1),
    )
}


def panel_size(workload: Workload, seconds: int) -> int:
    """Timed campaigns per run: as many as fill ``seconds`` nominally."""
    return max(1, round(seconds / workload.nominal_campaign_s))


def campaign_seeds(seed: int, count: int) -> List[int]:
    """The campaign seeds a benchmark seed expands to (deterministic)."""
    rng = random.Random(seed)
    return [rng.randrange(1 << 31) for _ in range(count)]


def catalog_records(workload: Workload):
    from repro.bugs.catalog import driver_bugs_for, table4_bugs_for

    if workload.surface == "driver":
        return driver_bugs_for(workload.firmware)
    return table4_bugs_for(workload.firmware)


def make_fuzzer(workload: Workload, seed: int):
    """Build the campaign's fuzzer exactly as ``run_campaign`` does."""
    from repro.firmware.registry import firmware_spec
    from repro.fuzz.engine import DEFAULT_CRASH_BUDGET
    from repro.fuzz.syzkaller import SyzkallerFuzzer
    from repro.fuzz.tardis import TardisFuzzer

    needed = {record.tool for record in catalog_records(workload)}
    sanitizers = tuple(
        ["kasan"] + [t for t in ("kcsan", "kmsan") if t in needed]
    )
    spec = firmware_spec(workload.firmware)
    cls = SyzkallerFuzzer if spec.fuzzer == "syzkaller" else TardisFuzzer
    kwargs = dict(sanitizers=sanitizers, seed=seed, fault_plan=None,
                  crash_budget=DEFAULT_CRASH_BUDGET, exec_mode="forkserver")
    if workload.surface != "syscall":
        kwargs["surface"] = workload.surface
    fuzzer = cls(workload.firmware, **kwargs)
    if workload.refresh_interval is not None:
        fuzzer.refresh_interval = workload.refresh_interval
    return fuzzer


def outcome_digest(execs: int, crashes: int, findings,
                   coverage_points: int) -> str:
    """One digest of what a campaign reports: execs, crashes, every
    finding's key, reproducibility and reproducer, final coverage."""
    payload = json.dumps({
        "execs": execs,
        "crashes": crashes,
        "findings": sorted(
            [str(f.key), f.reproducible,
             [call.to_json() for call in f.reproducer_calls()]]
            for f in findings),
        "coverage": coverage_points,
    }, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def result_digest(result) -> str:
    """:func:`outcome_digest` of a ``CampaignResult``."""
    return outcome_digest(result.execs, result.crashes, result.findings,
                          result.coverage)


def _counters(target) -> Dict[str, int]:
    """The live target's cumulative counters that a reset rewinds."""
    machine = target.image.ctx.machine
    runtime = target.runtime
    out = {
        "guest_cycles": machine.guest_cycles,
        "overhead_cycles": machine.overhead_cycles,
        "shadow_checks": runtime.shadow.check_ops,
        "fastpath_hits": runtime.shadow.fastpath_hits,
        "sanitizer_checks": 0,
    }
    for engine in (runtime.kasan, runtime.kcsan):
        if engine is not None:
            out["sanitizer_checks"] += engine.checks
    return out


class FuzzPhaseMeter:
    """Deterministic fuzz-phase totals, read at each target reset.

    A reset rewinds the machine's cycle counters, the sanitizer
    counters and the coverage map, so the meter reads them just before
    every reset and once at the end: modeled guest and sanitizer
    overhead cycles, sanitizer checks, and every coverage point any
    session reached while fuzzing.  It shadows ``target.reset`` on the
    instance only; :meth:`close` removes it.
    """

    def __init__(self, target):
        self.target = target
        self.points: Set[int] = set()
        self.totals: Dict[str, int] = {}
        self._mark()
        target.reset = self._reset

    def _mark(self) -> None:
        self._start = _counters(self.target)

    def _harvest(self) -> None:
        for name, value in _counters(self.target).items():
            self.totals[name] = (self.totals.get(name, 0) + value
                                 - self._start[name])
        self.points.update(self.target.coverage.points)

    def _reset(self) -> None:
        self._harvest()
        type(self.target).reset(self.target)
        self._mark()

    def close(self) -> None:
        self._harvest()
        del self.target.reset


@dataclass
class Campaign:
    """What one campaign of a run produced."""

    seed: int
    budget: int
    execs: int = 0
    host_crashes: int = 0
    degraded: bool = False
    digest: str = ""
    #: catalog rows matched by reproducible findings
    matched: Set[str] = field(default_factory=set)
    reproducible: int = 0
    #: coverage points reached while fuzzing (union over sessions)
    coverage: Set[int] = field(default_factory=set)
    #: fuzz-phase counters (see :func:`_counters`)
    totals: Dict[str, int] = field(default_factory=dict)
    corpus_adds: int = 0
    #: reference seconds and raw wall seconds per phase
    ref_s: Dict[str, float] = field(default_factory=dict)
    wall_s: Dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        """Executions that did not complete: quarantined host crashes,
        plus the whole unspent budget when the engine degraded."""
        unspent = self.budget - self.execs if self.degraded else 0
        return self.host_crashes + unspent


def _phase(clock, campaign: Campaign, name: str, fn):
    """Run ``fn`` as one timed phase (plain call without a clock)."""
    if clock is None:
        return fn()
    result, ref_s, wall_s = clock.interval(fn)
    campaign.ref_s[name] = campaign.ref_s.get(name, 0.0) + ref_s
    campaign.wall_s[name] = campaign.wall_s.get(name, 0.0) + wall_s
    return result


def run_campaign_chunked(workload: Workload, seed: int, clock=None,
                         chunk: Optional[int] = None) -> Campaign:
    """Build, fuzz (in chunks), reproduce and match one campaign.

    With a :class:`~refclock.RefClock`, the build, every fuzz chunk and
    the reproduce-and-match phase are timed on it.  ``chunk`` defaults
    to the workload's; ``FuzzerEngine.run(b)`` with growing ``b``
    follows the same trajectory as one ``run(budget)`` call.
    """
    from repro.fuzz.campaign import _match_findings

    records = catalog_records(workload)
    campaign = Campaign(seed=seed, budget=workload.budget)
    fuzzer = _phase(clock, campaign, "build",
                    lambda: make_fuzzer(workload, seed))
    corpus0 = len(fuzzer.corpus)
    meter = FuzzPhaseMeter(fuzzer.target)
    step = chunk or workload.chunk
    bound = 0
    while bound < workload.budget and not fuzzer.degraded:
        bound = min(bound + step, workload.budget)
        _phase(clock, campaign, "fuzz", lambda: fuzzer.run(bound))
    meter.close()

    def reproduce():
        findings = fuzzer.reproduce_findings()
        return findings, _match_findings(records, findings)[0]

    findings, matched = _phase(clock, campaign, "reproduce", reproduce)
    campaign.execs = fuzzer.execs
    campaign.host_crashes = fuzzer.host_crashes
    campaign.degraded = fuzzer.degraded
    campaign.digest = outcome_digest(fuzzer.execs, fuzzer.crashes, findings,
                                     len(fuzzer.target.coverage))
    campaign.matched = set(matched)
    campaign.reproducible = sum(1 for f in findings if f.reproducible)
    campaign.coverage = meter.points
    campaign.totals = meter.totals
    campaign.corpus_adds = len(fuzzer.corpus) - corpus0
    # the target's object graph is cyclic: collect it now so the next
    # campaign's build never coexists with this one (peak RSS is then
    # one campaign's footprint)
    del fuzzer, findings, meter
    gc.collect()
    return campaign


def reference_digest(workload: Workload, seed: int) -> str:
    """Digest of ``run_campaign`` itself at the same seed and budget.

    A workload that overrides the refresh interval cannot be expressed
    through ``run_campaign``; its reference is one un-chunked
    ``run(budget)`` call on the same construction path, and
    :func:`construction_matches_run_campaign` separately checks that
    path against ``run_campaign``.
    """
    from repro.fuzz.campaign import run_campaign

    if workload.refresh_interval is None:
        result = run_campaign(workload.firmware, budget=workload.budget,
                              seed=seed, exec_mode="forkserver",
                              surface=workload.surface)
        digest = result_digest(result)
        del result
        gc.collect()
        return digest
    return run_campaign_chunked(workload, seed,
                                chunk=workload.budget).digest


def construction_matches_run_campaign(workload: Workload, seed: int,
                                      budget: int = 60) -> bool:
    """True when :func:`make_fuzzer` (at the default refresh interval)
    runs the same campaign as ``run_campaign`` for a short budget."""
    from repro.fuzz.campaign import run_campaign

    plain = replace(workload, budget=budget, chunk=budget,
                    refresh_interval=None)
    ours = run_campaign_chunked(plain, seed)
    theirs = result_digest(run_campaign(
        workload.firmware, budget=budget, seed=seed,
        exec_mode="forkserver", surface=workload.surface))
    gc.collect()
    return ours.digest == theirs
