"""Fuzzing campaign orchestration (the Table-3/Table-4 experiment).

Runs the firmware's paper-designated fuzzer with EMBSAN attached for a
deterministic execution budget (our stand-in for the paper's 7-day
wall-clock campaigns), deduplicates and reproduces findings, and maps
each to the bug catalog so the census can be compared row by row.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bugs.catalog import (
    BugRecord,
    driver_bugs_for,
    record_by_id,
    table4_bugs_for,
)
from repro.emulator.faults import plan_for
from repro.errors import CheckpointError
from repro.firmware.registry import firmware_spec
from repro.fuzz.checkpoint import (
    load_checkpoint,
    restore_engine,
    save_checkpoint,
)
from repro.fuzz.config import (
    DEFAULT_CHECKPOINT_EVERY,
    CampaignConfig,
    campaign_config,
)
from repro.fuzz.diagnostics import CampaignDiagnostics
from repro.fuzz.engine import Finding
from repro.fuzz.syzkaller import SyzkallerFuzzer
from repro.fuzz.tardis import TardisFuzzer

#: default per-firmware execution budget for a scaled-down campaign
DEFAULT_BUDGET = CampaignConfig.budget


@dataclass
class CampaignResult:
    """Outcome of one firmware's campaign."""

    firmware: str
    fuzzer: str
    execs: int
    coverage: int
    crashes: int
    findings: List[Finding] = field(default_factory=list)
    #: catalog rows matched by at least one reproducible finding
    matched: Dict[str, Finding] = field(default_factory=dict)
    #: catalog rows never matched
    missed: List[BugRecord] = field(default_factory=list)
    #: campaign identity: replaying with the same seed and budget
    #: reproduces every finding and crash exactly
    seed: int = 0
    budget: int = 0
    #: robustness telemetry (quarantined crashes, degradation, faults)
    diagnostics: Optional[CampaignDiagnostics] = None

    def census(self) -> Dict[str, int]:
        """Found-bug counts by Table-3 class."""
        out: Dict[str, int] = {}
        for bug_id, _finding in self.matched.items():
            record = record_by_id(bug_id)
            out[record.bug_class] = out.get(record.bug_class, 0) + 1
        return out

    def found_count(self) -> int:
        """Distinct catalog rows found."""
        return len(self.matched)


def _match_findings(records: Sequence[BugRecord],
                    findings: Sequence[Finding]) -> Tuple[dict, list]:
    matched: Dict[str, Finding] = {}
    for record in records:
        for finding in findings:
            if not finding.reproducible:
                continue
            report = finding.report
            if report.bug_type is not record.expect_type:
                continue
            if any(sub in report.location for sub in record.report_match):
                matched[record.bug_id] = finding
                break
    missed = [r for r in records if r.bug_id not in matched]
    return matched, missed


def run_campaign(
    firmware,
    *,
    checkpoint_path: Optional[str] = None,
    corpus_dir: Optional[str] = None,
    observer=None,
    on_checkpoint_saved: Optional[Callable[[str], None]] = None,
    **knobs,
) -> CampaignResult:
    """Fuzz one Table-1 firmware with its designated fuzzer + EMBSAN.

    ``firmware`` is a firmware name or a :class:`CampaignConfig`;
    ``knobs`` are :class:`CampaignConfig` fields (``budget``, ``seed``,
    ``faults``, ``exec_mode``, ...) set or overridden on it.  The
    campaign's fault plan is compiled from ``faults`` here and seeded
    from ``seed``; with ``seeds`` set, the campaign repeats across them
    (see :func:`run_campaign_repeated`) sharing that one plan.

    When ``checkpoint_path`` is set, campaign state is serialized there
    every ``checkpoint_every`` execs (default
    :data:`DEFAULT_CHECKPOINT_EVERY`) and an existing checkpoint at that
    path resumes the campaign mid-budget; the resumed run produces the
    same census and findings as an uninterrupted one.  A checkpoint
    taken under different knobs (other than ``budget`` and
    ``exec_mode``) is refused with :class:`FuzzerError`.

    ``corpus_dir`` attaches a persistent :class:`repro.corpus.CorpusStore`:
    existing entries seed the campaign (with an unmutated triage pass),
    coverage-novel programs and crash reproducers persist back, and
    checkpoints reference corpus programs by digest instead of inlining
    them.  ``seed_schedule="rarity"`` switches corpus selection from the
    uniform draw to rarity/energy weighting (a *different* RNG stream —
    the default census stays byte-identical only at ``"uniform"``).
    ``shard=(index, count)`` makes this campaign one worker of an
    intra-firmware fleet: it starts from its disjoint slice of the spec
    seed corpus and writes its own manifest segment in the shared store
    (see ``docs/corpus.md``).

    ``observer`` (a :class:`repro.obs.Observer`) collects campaign
    metrics, trace spans and per-phase wall-clock timings; campaign
    *results* — findings, census, checkpoints — are byte-identical with
    or without one (only ``diagnostics.phase_timings`` appears).

    ``exec_mode`` selects the target reset strategy (see
    ``docs/forkserver.md``): ``"journal"`` rebuilds the firmware at
    every refresh and journals each program, ``"forkserver"`` rewinds a
    golden snapshot by copying back only dirty pages.  The census is
    byte-identical either way; only throughput differs.

    ``surface="driver"`` fuzzes the firmware's driver-op surface instead
    of its syscall/task API: the build attaches the modeled peripherals
    (``build_firmware(driver=True)``), the interface spec comes from the
    registered driver ops, and the census is measured against the
    driver-surface rows of the bug catalog (``driver_bugs_for``) — see
    ``docs/peripherals.md``.
    """
    config = campaign_config(firmware, **knobs)
    fault_plan = plan_for(config.faults, seed=config.seed)
    if config.seeds is not None:
        # repeated campaigns restart from scratch: their early-stop
        # logic is inherently sequential across seeds
        return _run_repeated(config, fault_plan, corpus_dir, observer)
    return _run_single(config, fault_plan, checkpoint_path, corpus_dir,
                       observer, on_checkpoint_saved)


def _run_single(config: CampaignConfig, fault_plan, checkpoint_path,
                corpus_dir, observer, on_checkpoint_saved) -> CampaignResult:
    import time

    firmware, budget = config.firmware, config.budget
    spec = firmware_spec(firmware)
    phase_timings = None if observer is None else {}
    phase_started = time.perf_counter() if observer is not None else 0.0

    def _phase_done(name: str) -> None:
        nonlocal phase_started
        if observer is None:
            return
        now = time.perf_counter()
        elapsed = now - phase_started
        phase_timings[name] = round(
            phase_timings.get(name, 0.0) + elapsed, 6)
        observer.histogram("campaign.phase_ms").observe(elapsed * 1e3)
        observer.instant(f"phase:{name}", cat="campaign",
                         args={"firmware": firmware,
                               "seconds": round(elapsed, 6)})
        phase_started = now

    if config.surface == "driver":
        records = driver_bugs_for(firmware)
    else:
        records = table4_bugs_for(firmware)
    sanitizers = config.sanitizers
    if sanitizers is None:
        needed = {r.tool for r in records}
        sanitizers = tuple(
            ["kasan"] + [t for t in ("kcsan", "kmsan") if t in needed]
        )
    corpus_store = None
    if corpus_dir is not None:
        from repro.corpus import CorpusStore

        shard = config.shard
        writer = None if shard is None else f"shard{shard[0]:02d}"
        corpus_store = CorpusStore(corpus_dir, firmware=firmware,
                                   writer=writer)
    fuzzer_cls = (SyzkallerFuzzer if spec.fuzzer == "syzkaller"
                  else TardisFuzzer)

    # what a checkpoint resume must agree on: the resolved knobs
    checkpoint_every = config.checkpoint_every or DEFAULT_CHECKPOINT_EVERY
    identity = replace(config, sanitizers=sanitizers,
                       checkpoint_every=checkpoint_every).identity()

    def build(plan):
        fuzzer = fuzzer_cls(
            firmware,
            sanitizers=sanitizers,
            seed=config.seed,
            fault_plan=plan,
            crash_budget=config.crash_budget,
            watchdog_insns=config.watchdog_insns,
            watchdog_cycles=config.watchdog_cycles,
            observer=observer,
            corpus_store=corpus_store,
            seed_schedule=config.seed_schedule,
            shard=config.shard,
            exec_mode=config.exec_mode,
            surface=config.surface,
        )
        fuzzer.config_identity = identity
        return fuzzer

    fuzzer = build(fault_plan)
    _phase_done("build")

    on_checkpoint = None
    checkpoint_discarded = None
    if checkpoint_path is None:
        checkpoint_every = 0
    else:
        try:
            state = load_checkpoint(checkpoint_path)
            if state is not None:
                restore_engine(fuzzer, state, firmware)
        except CheckpointError as exc:
            # corrupt/truncated/unsupported checkpoint: discard it and
            # start from scratch.  restore_engine may have partially
            # mutated the fuzzer (or its fault plan's RNG), so rebuild
            # both from their recipes — the recovered run is then
            # byte-identical to one that never saw the bad file.
            checkpoint_discarded = str(exc)
            if observer is not None:
                # the half-restored fuzzer's machine is being discarded
                observer.harvest_target(fuzzer.target)
            fault_plan = plan_for(config.faults, seed=config.seed)
            fuzzer = build(fault_plan)

        def on_checkpoint(engine):
            if observer is not None:
                observer.counter("campaign.checkpoints").inc()
                with observer.span("checkpoint:write", cat="campaign",
                                   args={"execs": engine.execs}):
                    save_checkpoint(checkpoint_path, engine, firmware,
                                    budget)
            else:
                save_checkpoint(checkpoint_path, engine, firmware, budget)
            if on_checkpoint_saved is not None:
                # the fleet's TCP worker ships the fresh checkpoint (and
                # its corpus store) home from here; failures propagate so
                # the attempt dies rather than silently losing custody
                on_checkpoint_saved(checkpoint_path)

    execs_before = fuzzer.execs
    fuzz_started = time.perf_counter()
    fuzzer.run(budget, checkpoint_every=checkpoint_every,
               on_checkpoint=on_checkpoint)
    fuzz_elapsed = time.perf_counter() - fuzz_started
    if observer is not None and fuzz_elapsed > 0:
        # the headline throughput number (docs/forkserver.md): programs
        # executed this run over fuzz-phase wall-clock
        observer.gauge("campaign.execs_per_sec").set(
            round((fuzzer.execs - execs_before) / fuzz_elapsed, 3))
    _phase_done("fuzz")
    findings = fuzzer.reproduce_findings()
    matched, missed = _match_findings(records, findings)
    _phase_done("reproduce")
    corpus_stats = None
    if corpus_store is not None:
        from repro.fuzz.program import Program

        # persist each reproducible finding's minimized reproducer as a
        # crash entry: re-running from this corpus replays the bug in
        # the triage pass instead of re-discovering it by mutation
        for finding in findings:
            if finding.reproducible:
                corpus_store.add(
                    Program(finding.reproducer_calls()),
                    kind="crash", execs=fuzzer.execs,
                )
        corpus_store.flush()
        corpus_stats = dict(corpus_store.stats())
        corpus_stats["imported"] = fuzzer.corpus_imported
        if observer is not None:
            observer.gauge("corpus.size").set(len(corpus_store))
        _phase_done("corpus")
    if checkpoint_path is not None:
        # final checkpoint: a later resume of a finished campaign is a
        # no-op instead of re-fuzzing
        if observer is not None:
            observer.counter("campaign.checkpoints").inc()
        save_checkpoint(checkpoint_path, fuzzer, firmware, budget)
        if on_checkpoint_saved is not None:
            on_checkpoint_saved(checkpoint_path)
        _phase_done("checkpoint")
    if observer is not None:
        # the live machine's counters (rebuild-discarded ones were
        # harvested at each refresh)
        observer.harvest_target(fuzzer.target)
    diagnostics = CampaignDiagnostics(
        firmware=firmware,
        seed=config.seed,
        budget=budget,
        quarantined=list(fuzzer.quarantined),
        host_crashes=fuzzer.host_crashes,
        degraded=fuzzer.degraded,
        watchdog_trips=fuzzer.watchdog_trips(),
        fault_stats=fault_plan.stats() if fault_plan is not None else {},
        checkpoint_discarded=checkpoint_discarded,
        phase_timings=phase_timings,
        corpus=corpus_stats,
    )
    return CampaignResult(
        firmware=firmware,
        fuzzer=fuzzer.name,
        execs=fuzzer.execs,
        coverage=len(fuzzer.target.coverage),
        crashes=fuzzer.crashes,
        findings=findings,
        matched=matched,
        missed=missed,
        seed=config.seed,
        budget=budget,
        diagnostics=diagnostics,
    )


def run_campaign_repeated(
    firmware,
    budget: int = DEFAULT_BUDGET,
    seeds: Sequence[int] = (1, 2, 3),
    carry_corpus: bool = False,
    corpus_dir: Optional[str] = None,
    **kwargs,
) -> CampaignResult:
    """Repeat a campaign across seeds, merging findings.

    The paper repeats every quantitative experiment 10 times per
    accepted fuzzing-evaluation practice; findings merge across
    repetitions.  Stops early once every seeded defect is matched.
    Extra keyword arguments (campaign knobs such as ``faults`` or
    watchdog budgets, and ``observer``) are forwarded to
    :func:`run_campaign`.

    Every repetition fuzzes through the same persistent corpus store
    when one is attached, so seed *n+1* starts from everything seeds
    *1..n* discovered (coverage programs replay unmutated in its triage
    pass) instead of from scratch.  ``carry_corpus=True`` attaches a
    temporary store scoped to this call when no ``corpus_dir`` is
    passed; the merged diagnostics' ``inherited_corpus`` lists, per
    seed in order, how many store entries that repetition inherited.

    Diagnostics merge too: the returned record's ``seeds`` lists every
    repetition that ran, counters sum, and every seed's quarantined
    crash records are preserved — a crash in repetition 3 is triagable
    from the merged result, not silently dropped.
    """
    tmp_corpus = None
    if carry_corpus and not corpus_dir:
        import tempfile

        tmp_corpus = tempfile.TemporaryDirectory(prefix="repro-corpus-")
        corpus_dir = tmp_corpus.name
    try:
        return run_campaign(firmware, budget=budget, seeds=tuple(seeds),
                            corpus_dir=corpus_dir, **kwargs)
    finally:
        if tmp_corpus is not None:
            tmp_corpus.cleanup()


def _run_repeated(config: CampaignConfig, fault_plan, corpus_dir,
                  observer) -> CampaignResult:
    merged: Optional[CampaignResult] = None
    for seed in config.seeds:
        result = _run_single(replace(config, seed=seed, seeds=None),
                             fault_plan, None, corpus_dir, observer, None)
        if corpus_dir is not None and result.diagnostics is not None:
            stats = result.diagnostics.corpus or {}
            result.diagnostics.inherited_corpus = [
                stats.get("imported", 0)
            ]
        if merged is None:
            merged = result
        else:
            merged.execs += result.execs
            merged.crashes += result.crashes
            merged.coverage = max(merged.coverage, result.coverage)
            merged.findings.extend(result.findings)
            for bug_id, finding in result.matched.items():
                merged.matched.setdefault(bug_id, finding)
            merged.missed = [
                record for record in merged.missed
                if record.bug_id not in merged.matched
            ]
            if merged.diagnostics is not None and \
                    result.diagnostics is not None:
                merged.diagnostics.merge(result.diagnostics)
        if not merged.missed:
            break
    return merged


def run_all_campaigns(
    checkpoint_dir: Optional[str] = None,
    workers: int = 1,
    fleet_options: Optional[dict] = None,
    observer=None,
    **knobs,
) -> List[CampaignResult]:
    """Run every Table-1 firmware's campaign (the full Table-3 sweep).

    ``knobs`` are :class:`CampaignConfig` fields shared by every
    firmware's campaign (``budget``, ``seed``, ``seeds``, ``faults``,
    ...).  With ``checkpoint_dir``, each firmware checkpoints into its
    own file (``campaign_<firmware>.json``), making a multi-firmware
    sweep interruption-safe: re-running the sweep resumes each firmware
    from its last checkpoint instead of starting over.

    With ``workers > 1`` the sweep is delegated to the
    :mod:`repro.fuzz.supervisor` fleet: one job per firmware across
    ``workers`` supervised processes, with heartbeat liveness checks and
    checkpoint-driven restart of killed or hung workers.  Results come
    back in catalog order and are byte-identical to the sequential sweep
    (per-job RNG isolation is the determinism contract); a job that
    exhausts its retry budget yields ``None`` in its slot instead of
    aborting the sweep.  Either way every job runs through the same
    job runner, which compiles a fresh per-firmware fault plan from
    ``faults``, so worker count never changes which faults fire;
    ``fleet_options`` passes supervisor knobs (``heartbeat_timeout``,
    ``max_retries``, ``events_path``...).
    """
    from repro.fuzz.supervisor import make_jobs, run_fleet

    jobs = make_jobs(checkpoint_dir=checkpoint_dir, **knobs)
    if workers > 1:
        return run_fleet(jobs, workers=workers, observer=observer,
                         **(fleet_options or {})).results
    return [job.run(observer=observer) for job in jobs]
