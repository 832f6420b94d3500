"""Supervised multi-process campaign fleet.

``run_all_campaigns`` sweeps the Table-1 catalog; this module makes
that sweep survivable and parallel.  A :class:`FleetSupervisor` shards
``(firmware, seed)`` campaign jobs across up to ``workers`` spawned
processes (``spawn`` context, so a wedged worker can be SIGKILLed
outright without corrupting shared state), watches per-worker
heartbeats on a result queue, and treats worker death — crash, OOM
kill, operator SIGKILL, heartbeat silence — as a routine, recoverable
event: the job restarts with exponential backoff and resumes from its
last checkpoint file.  After ``max_retries`` restarts the job is
marked *degraded* and the fleet moves on, so one pathological firmware
can never stall the sweep.

Determinism contract (CI-enforced): because every job re-runs
``run_campaign`` with identical arguments and owns its RNG stream, the
fleet's merged result list — ordered by job submission, never by
completion — is byte-identical to a sequential sweep with the same
seeds, regardless of worker count, interleaving, or how many times
workers were killed and resumed mid-job.

Observability: every supervision decision is appended to a structured
JSONL event log (``job_started``, ``heartbeat``, ``worker_died``,
``job_resumed``, ``checkpoint_discarded``, ``job_degraded``,
``job_done``, ``fleet_done``) and aggregated into a
:class:`~repro.fuzz.diagnostics.FleetDiagnostics` record that nests
each completed campaign's own ``CampaignDiagnostics``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence

from repro.errors import CheckpointError, CorpusError, FuzzerError
from repro.fuzz.config import CampaignConfig, campaign_config
from repro.fuzz.diagnostics import FleetDiagnostics, JobDiagnostics
from repro.fuzz.transport import SpawnTransport, WorkerTransport

#: seconds between worker heartbeats
DEFAULT_HEARTBEAT_INTERVAL = 1.0
#: liveness timeout: a silent worker is declared hung after this long
DEFAULT_HEARTBEAT_TIMEOUT = 30.0
#: restarts granted per job before it is marked degraded
DEFAULT_MAX_RETRIES = 3
#: first retry delay; doubles per subsequent retry of the same job
DEFAULT_BACKOFF_BASE = 0.5
DEFAULT_BACKOFF_FACTOR = 2.0
#: supervisor event-queue poll granularity (also bounds loop latency)
_POLL = 0.05
#: grace period for a cleanly exited worker's terminal message to
#: drain from the queue before its silence is ruled a death
_DRAIN_GRACE = 1.0


@dataclass(frozen=True)
class CampaignJob:
    """One unit of fleet work: a single firmware campaign.

    ``config`` carries every campaign knob; a job with ``config.seeds``
    runs a repeated (multi-seed, merged) campaign, otherwise it
    checkpoints into ``checkpoint_path`` and resumes from it after a
    worker death.  The paths stay outside the config because they are
    per-host custody, not campaign identity: the TCP worker rewrites
    them to its local scratch copies.
    """

    job_id: str
    config: CampaignConfig
    checkpoint_path: Optional[str] = None
    #: persistent corpus store shared with sibling jobs (sharded mode)
    corpus_dir: Optional[str] = None

    def payload(self, attempt: int, heartbeat_interval: float,
                observe: bool = False) -> dict:
        """The JSON-encodable dict handed to ``worker_main``."""
        return {
            "job_id": self.job_id,
            "attempt": attempt,
            "heartbeat_interval": heartbeat_interval,
            "observe": observe,
            "config": self.config.to_json(),
            "checkpoint_path": self.checkpoint_path,
            "corpus_dir": self.corpus_dir,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CampaignJob":
        """Rebuild the job a :meth:`payload` dict describes."""
        return cls(
            job_id=payload["job_id"],
            config=CampaignConfig.from_json(payload["config"]),
            checkpoint_path=payload.get("checkpoint_path"),
            corpus_dir=payload.get("corpus_dir"),
        )

    def run(self, observer=None, on_checkpoint_saved=None):
        """Run the campaign in this process: the one job runner every
        path shares (sequential sweeps, spawn and TCP workers)."""
        from repro.fuzz.campaign import run_campaign

        return run_campaign(
            self.config,
            checkpoint_path=self.checkpoint_path,
            corpus_dir=self.corpus_dir,
            observer=observer,
            on_checkpoint_saved=on_checkpoint_saved,
        )


@dataclass
class FleetResult:
    """Everything a finished fleet produced."""

    #: per-job campaign results in job *submission* order (the merge is
    #: deterministic by construction); ``None`` where a job degraded
    results: List[Optional[object]]
    diagnostics: FleetDiagnostics
    #: the full structured event stream (also on disk when
    #: ``events_path`` was configured)
    events: List[dict] = field(default_factory=list)
    #: True when :meth:`FleetSupervisor.interrupt` stopped the fleet
    #: before every job finished — unfinished jobs keep their
    #: checkpoints and a rerun resumes them; they are *not* degraded
    interrupted: bool = False
    #: job ids that were still waiting or running at interrupt time
    unfinished: List[str] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """True when any job exhausted its retry budget.

        An interrupted fleet's unfinished jobs do not count: they were
        stopped by the operator mid-flight, not abandoned by the
        supervisor, and their checkpoints make them resumable.
        """
        if self.interrupted:
            return any(
                result is None
                for result, job_id in zip(self.results, self._job_ids())
                if job_id not in self.unfinished
            )
        return any(result is None for result in self.results)

    def _job_ids(self) -> List[str]:
        return [diag.job_id for diag in self.diagnostics.jobs]

    def completed(self) -> List[object]:
        """The successful results, submission order preserved."""
        return [result for result in self.results if result is not None]


class _JobState:
    """Supervisor-side bookkeeping for one job."""

    __slots__ = ("job", "status", "handle", "attempt",
                 "last_signal", "not_before", "dead_since", "death_cause",
                 "diag", "result", "discard_logged", "span_start")

    def __init__(self, job: CampaignJob):
        self.job = job
        self.status = "waiting"  # waiting | running | done | degraded
        #: the current attempt's :class:`AttemptHandle` — a spawn
        #: process + fresh queue, or a job dispatched to a TCP peer
        self.handle = None
        self.attempt = 0
        self.last_signal = 0.0
        self.not_before = 0.0  # backoff deadline (monotonic)
        self.dead_since = None  # first time the worker was seen dead
        self.death_cause = None
        self.diag = JobDiagnostics(
            job_id=job.job_id, firmware=job.config.firmware,
            seed=job.config.seed,
        )
        self.result = None
        self.discard_logged = False
        #: tracer timestamp when the current attempt started (observer)
        self.span_start = 0.0

    def drop_handle(self) -> None:
        """Reap the current attempt's handle (worker is gone)."""
        if self.handle is not None:
            self.handle.close()
            self.handle = None


class FleetSupervisor:
    """Shard campaign jobs across supervised worker processes."""

    def __init__(
        self,
        jobs: Sequence[CampaignJob],
        workers: int = 2,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        backoff_factor: float = DEFAULT_BACKOFF_FACTOR,
        events_path: Optional[str] = None,
        on_event: Optional[Callable[[dict], None]] = None,
        observer=None,
        transport: Optional[WorkerTransport] = None,
    ):
        if workers < 1:
            raise FuzzerError(f"fleet needs >= 1 worker, got {workers}")
        if not jobs:
            raise FuzzerError("fleet needs at least one job")
        seen = set()
        for job in jobs:
            if job.job_id in seen:
                raise FuzzerError(f"duplicate job id {job.job_id!r}")
            seen.add(job.job_id)
        self.jobs = list(jobs)
        self.workers = workers
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.events_path = events_path
        #: observation hook, called with every event record as it is
        #: logged — the test suite and the CI chaos job use it to
        #: inject failures (SIGKILL/SIGSTOP) at precise fleet states;
        #: exceptions it raises abort the fleet
        self.on_event = on_event
        #: optional :class:`repro.obs.Observer`.  The supervisor feeds
        #: it fleet-level counters/spans and asks each worker (via the
        #: job payload's ``observe`` flag) to ship its own metrics and
        #: trace back over the event queue for merging, so one document
        #: covers the whole fleet
        self.observer = observer
        #: worker channel; ``None`` means a supervisor-owned
        #: :class:`~repro.fuzz.transport.SpawnTransport` (today's
        #: byte-identical default).  Pass a
        #: :class:`~repro.fuzz.transport.TcpJsonlTransport` to dispatch
        #: jobs to ``repro worker --connect`` peers; the caller keeps
        #: ownership (and must ``close()``) of transports it passes in.
        self.transport = transport
        self._transport: Optional[WorkerTransport] = None
        self._events: List[dict] = []
        self._events_fh = None
        self._interrupted = threading.Event()

    def interrupt(self) -> None:
        """Ask a running fleet to stop at the next scheduling round.

        Safe to call from any thread (a signal handler, the serve
        daemon's drain path).  Running attempts are killed, waiting
        jobs stay waiting, and :meth:`run` returns a
        :class:`FleetResult` with ``interrupted=True`` listing the
        unfinished job ids.  Checkpoints written so far stay on disk,
        so a rerun of the same jobs resumes rather than restarts.
        """
        self._interrupted.set()

    # ------------------------------------------------------------------
    def run(self) -> FleetResult:
        """Run every job to completion (or degradation); block until done."""
        transport = self.transport
        owned = transport is None
        if owned:
            transport = SpawnTransport()
        self._transport = transport
        states = [_JobState(job) for job in self.jobs]
        started_wall = time.time()
        started = time.monotonic()
        if self.events_path:
            from repro.obs.observer import ensure_parent

            self._events_fh = open(ensure_parent(self.events_path), "w",
                                   encoding="utf-8")
        transport_stats = None
        try:
            self._emit("fleet_started", jobs=len(states),
                       workers=self.workers,
                       heartbeat_timeout=self.heartbeat_timeout,
                       max_retries=self.max_retries)
            if self.observer is not None:
                self.observer.gauge("fleet.workers").set(self.workers)
                self.observer.gauge("fleet.jobs").set(len(states))
            while (not self._interrupted.is_set()
                   and any(s.status in ("waiting", "running")
                           for s in states)):
                self._fill_slots(states)
                self._pump(states)
                self._check_liveness(states)
            unfinished = [s.job.job_id for s in states
                          if s.status in ("waiting", "running")]
            transport_stats = transport.stats()
            self._emit(
                "fleet_interrupted" if unfinished else "fleet_done",
                jobs=len(states),
                completed=sum(1 for s in states if s.status == "done"),
                degraded=[s.job.job_id for s in states
                          if s.status == "degraded"],
                unfinished=unfinished,
                restarts=sum(len(s.diag.restarts) for s in states),
                wall_time=round(time.monotonic() - started, 3),
                transport=transport_stats,
            )
            self._absorb_transport_stats(transport_stats)
        finally:
            for state in states:
                if state.handle is not None:
                    state.handle.kill()
                state.drop_handle()
            if owned:
                transport.close()
            self._transport = None
            if self._events_fh is not None:
                self._events_fh.close()
                self._events_fh = None
        diagnostics = FleetDiagnostics(
            workers=self.workers,
            heartbeat_timeout=self.heartbeat_timeout,
            max_retries=self.max_retries,
            backoff_base=self.backoff_base,
            jobs=[state.diag for state in states],
            wall_time=time.time() - started_wall,
            events_logged=len(self._events),
            transport=transport_stats,
        )
        return FleetResult(
            results=[state.result for state in states],
            diagnostics=diagnostics,
            events=list(self._events),
            interrupted=self._interrupted.is_set(),
            unfinished=[s.job.job_id for s in states
                        if s.status in ("waiting", "running")],
        )

    def _absorb_transport_stats(self, stats: Optional[dict]) -> None:
        if stats is None or self.observer is None:
            return
        for key in ("connects", "reconnects", "frames_dropped",
                    "resends", "remote_attempts", "spawn_fallbacks",
                    "bytes_sent", "bytes_received"):
            if stats.get(key):
                self.observer.counter(
                    f"fleet.transport.{key}").inc(stats[key])

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _fill_slots(self, states: List[_JobState]) -> None:
        now = time.monotonic()
        running = sum(1 for s in states if s.status == "running")
        for state in states:
            if running >= self.workers:
                return
            if state.status != "waiting" or state.not_before > now:
                continue
            if self._start(state):
                running += 1

    def _start(self, state: _JobState) -> bool:
        state.attempt += 1
        state.diag.attempts += 1
        payload = state.job.payload(state.attempt, self.heartbeat_interval,
                                    observe=self.observer is not None)
        handle = self._transport.launch(payload)
        if handle is None:
            # no capacity right now (every remote busy, fallback off):
            # leave the job waiting; the next poll retries
            state.attempt -= 1
            state.diag.attempts -= 1
            return False
        state.dead_since = None
        state.death_cause = None
        state.handle = handle
        state.status = "running"
        state.last_signal = time.monotonic()
        observer = self.observer
        if observer is not None:
            observer.counter("fleet.attempts").inc()
            if observer.tracer is not None:
                state.span_start = observer.tracer.now()
        path = state.job.checkpoint_path
        if state.attempt == 1:
            config = state.job.config
            self._emit("job_started", job=state.job.job_id,
                       firmware=config.firmware, seed=config.seed,
                       budget=config.budget, pid=handle.pid,
                       where=handle.where)
        else:
            self._emit("job_resumed", job=state.job.job_id,
                       attempt=state.attempt, pid=handle.pid,
                       where=handle.where,
                       from_checkpoint=bool(path and os.path.exists(path)))
        return True

    # ------------------------------------------------------------------
    # event-queue pump
    # ------------------------------------------------------------------
    def _pump(self, states: List[_JobState]) -> None:
        by_id = {state.job.job_id: state for state in states}
        drained_any = False
        for state in states:
            handle = state.handle
            if handle is None:
                continue
            for message in handle.poll():
                drained_any = True
                self._handle(by_id, message)
        if not drained_any:
            time.sleep(_POLL)

    def _handle(self, by_id, message) -> None:
        kind, job_id, attempt, payload = message
        state = by_id.get(job_id)
        if state is None:
            return
        now = time.monotonic()
        if kind == "heartbeat":
            if state.status == "running" and attempt == state.attempt:
                gap = now - state.last_signal
                state.diag.max_heartbeat_gap = max(
                    state.diag.max_heartbeat_gap, gap)
                state.last_signal = now
                state.diag.heartbeats += 1
                if self.observer is not None:
                    self.observer.counter("fleet.heartbeats").inc()
                    self.observer.histogram(
                        "fleet.heartbeat_gap_ms").observe(gap * 1e3)
                self._emit("heartbeat", job=job_id, attempt=attempt,
                           elapsed=payload.get("elapsed"),
                           gap=round(gap, 3))
        elif kind == "started":
            if state.status == "running" and attempt == state.attempt:
                state.last_signal = now
                if payload.get("checkpoint_corrupt") and \
                        not state.discard_logged:
                    state.discard_logged = True
                    self._emit("checkpoint_discarded", job=job_id,
                               attempt=attempt,
                               reason=payload["checkpoint_corrupt"])
        elif kind == "metrics":
            # the worker's observability bundle, shipped just before its
            # result; stale-attempt bundles are dropped so counters are
            # never absorbed twice
            if self.observer is not None and attempt == state.attempt \
                    and state.status == "running":
                self.observer.absorb(payload,
                                     process_name=f"worker:{job_id}")
        elif kind == "result":
            if state.status in ("done", "degraded"):
                return  # duplicate from a stale attempt: same bytes
            from repro.fuzz.checkpoint import result_from_json

            result = result_from_json(payload)
            state.result = result
            state.status = "done"
            state.diag.campaign = result.diagnostics
            if self.observer is not None:
                self.observer.counter("fleet.jobs_done").inc()
                tracer = self.observer.tracer
                if tracer is not None:
                    tracer.complete(
                        f"job:{job_id}", state.span_start, cat="fleet",
                        args={"attempt": attempt, "execs": result.execs},
                    )
            diagnostics = result.diagnostics
            if diagnostics is not None and \
                    diagnostics.checkpoint_discarded and \
                    not state.discard_logged:
                state.discard_logged = True
                self._emit("checkpoint_discarded", job=job_id,
                           attempt=attempt,
                           reason=diagnostics.checkpoint_discarded)
            self._emit(
                "job_done", job=job_id, attempt=attempt,
                execs=result.execs, crashes=result.crashes,
                found=result.found_count(),
                census=result.census(),
                campaign_degraded=bool(diagnostics is not None
                                       and diagnostics.degraded),
            )
        elif kind == "failed":
            if state.status == "running" and attempt == state.attempt:
                # remember the structured cause; the exit-code path in
                # _check_liveness turns it into a death ruling
                state.death_cause = (
                    f"worker-error:{payload['exc_type']}: "
                    f"{payload['message']}"
                )
        elif kind == "checkpoint_sync":
            # a TCP worker shipping checkpoint custody home; persisting
            # it is what makes reassignment after a remote death resume
            # instead of restart.  The corpus bundle lands first so the
            # checkpoint's corpus_digests resolve against the store.
            if state.status == "running" and attempt == state.attempt:
                state.last_signal = now
                persisted = False
                rejected = None
                try:
                    bundle = payload.get("corpus")
                    if bundle and state.job.corpus_dir:
                        self._import_corpus(state, bundle, job_id)
                    ckpt = payload.get("state")
                    if ckpt is not None and state.job.checkpoint_path:
                        from repro.fuzz.checkpoint import (
                            write_checkpoint_state,
                        )

                        write_checkpoint_state(
                            state.job.checkpoint_path, ckpt)
                        persisted = True
                except (CheckpointError, CorpusError) as exc:
                    rejected = str(exc)
                if self.observer is not None:
                    self.observer.counter(
                        "fleet.transport.checkpoints_synced").inc()
                self._emit("checkpoint_synced", job=job_id,
                           attempt=attempt,
                           execs=(payload.get("state") or {}).get("execs"),
                           persisted=persisted, rejected=rejected)
        elif kind == "corpus_sync":
            # final corpus custody return from a TCP worker, sent just
            # before its result
            if state.status == "running" and attempt == state.attempt:
                state.last_signal = now
                added = None
                rejected = None
                try:
                    bundle = payload.get("bundle")
                    if bundle and state.job.corpus_dir:
                        added = self._import_corpus(state, bundle, job_id)
                except CorpusError as exc:
                    rejected = str(exc)
                self._emit("corpus_received", job=job_id, attempt=attempt,
                           entries=added, rejected=rejected)

    def _import_corpus(self, state: _JobState, bundle: dict,
                       job_id: str) -> int:
        from repro.corpus import CorpusStore

        store = CorpusStore(state.job.corpus_dir,
                            firmware=state.job.config.firmware)
        added = store.import_bundle_obj(bundle, source=f"worker:{job_id}")
        if self.observer is not None and added:
            self.observer.counter(
                "fleet.transport.corpus_entries").inc(added)
        return added

    # ------------------------------------------------------------------
    # liveness
    # ------------------------------------------------------------------
    def _check_liveness(self, states: List[_JobState]) -> None:
        now = time.monotonic()
        by_id = {state.job.job_id: state for state in states}
        for state in states:
            handle = state.handle
            if handle is None:
                continue
            if state.status in ("done", "degraded"):
                if not handle.alive() or state.status == "degraded":
                    state.drop_handle()
                continue
            if not handle.alive():
                # dead worker: grant a short grace for its terminal
                # message (result/failed) still draining the channel —
                # except abrupt deaths (signal kills, TCP disconnects),
                # which can never have sent one
                if state.dead_since is None:
                    state.dead_since = now
                terminal_known = state.death_cause is not None
                grace_over = now - state.dead_since > _DRAIN_GRACE
                if terminal_known or handle.abrupt() or grace_over:
                    # final drain before ruling: a message routed in the
                    # instant the channel died (a checkpoint_sync racing
                    # its own disconnect) is durable progress that must
                    # not be dropped with the handle
                    for message in handle.poll():
                        self._handle(by_id, message)
                    if state.status in ("done", "degraded"):
                        state.drop_handle()
                        continue
                    cause = state.death_cause or handle.exit_cause()
                    state.drop_handle()
                    self._on_death(state, cause)
            elif now - state.last_signal > self.heartbeat_timeout:
                # heartbeat silence: the worker is schedulable-dead
                # (SIGSTOP, swap thrash, runaway C loop) or its frames
                # are not arriving; kill/disconnect it hard
                handle.kill()
                state.drop_handle()
                self._on_death(
                    state,
                    f"heartbeat-timeout:{self.heartbeat_timeout}s",
                )

    def _on_death(self, state: _JobState, cause: str) -> None:
        state.dead_since = None
        state.death_cause = None
        observer = self.observer
        if observer is not None:
            observer.counter("fleet.worker_deaths").inc()
            if observer.tracer is not None:
                observer.tracer.complete(
                    f"job:{state.job.job_id}", state.span_start,
                    cat="fleet",
                    args={"attempt": state.attempt, "died": cause},
                )
        if state.attempt > self.max_retries:
            state.status = "degraded"
            state.diag.degraded = True
            state.diag.degraded_cause = cause
            if observer is not None:
                observer.counter("fleet.jobs_degraded").inc()
            self._emit("job_degraded", job=state.job.job_id,
                       attempts=state.attempt, cause=cause)
            return
        backoff = self.backoff_base * (
            self.backoff_factor ** (state.attempt - 1)
        )
        state.status = "waiting"
        state.not_before = time.monotonic() + backoff
        state.diag.restarts.append({
            "attempt": state.attempt,
            "cause": cause,
            "backoff": round(backoff, 3),
        })
        self._emit("worker_died", job=state.job.job_id,
                   attempt=state.attempt, cause=cause,
                   backoff=round(backoff, 3))

    # ------------------------------------------------------------------
    #: events whose loss would blind a postmortem: fsync the JSONL log
    #: after these so a supervisor crash cannot truncate the verdicts
    _DURABLE_EVENTS = frozenset({"job_degraded", "job_done", "fleet_done",
                                 "fleet_interrupted"})

    def _emit(self, event: str, **fields) -> None:
        record = {"ts": round(time.time(), 6), "event": event, **fields}
        self._events.append(record)
        if self._events_fh is not None:
            self._events_fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._events_fh.flush()
            if event in self._DURABLE_EVENTS:
                os.fsync(self._events_fh.fileno())
        if self.on_event is not None:
            self.on_event(record)


# ----------------------------------------------------------------------
# catalog-level conveniences
# ----------------------------------------------------------------------
def make_jobs(
    firmware: Optional[Sequence[str]] = None,
    checkpoint_dir: Optional[str] = None,
    **knobs,
) -> List[CampaignJob]:
    """One job per Table-1 firmware (or per ``firmware`` subset).

    ``knobs`` are the :class:`CampaignConfig` fields every job shares.
    With ``surface="driver"`` the default firmware set shrinks to the
    entries that model peripherals (have a ``driver_factory``); an
    explicit ``firmware`` list is taken as-is and a member without a
    driver surface fails in its worker at build time.
    """
    from repro.firmware.registry import all_firmware, firmware_spec

    if firmware is None:
        specs = all_firmware()
        if knobs.get("surface") == "driver":
            specs = [s for s in specs if s.driver_factory is not None]
    else:
        specs = [firmware_spec(name) for name in firmware]
    if not specs:
        return []
    base = CampaignConfig(specs[0].name, **knobs)

    def _path(name: str) -> Optional[str]:
        if checkpoint_dir is None or base.seeds is not None:
            return None
        os.makedirs(checkpoint_dir, exist_ok=True)
        safe = name.replace("/", "_")
        return os.path.join(checkpoint_dir, f"campaign_{safe}.json")

    return [
        CampaignJob(
            job_id=spec.name,
            config=replace(base, firmware=spec.name),
            checkpoint_path=_path(spec.name),
        )
        for spec in specs
    ]


def run_fleet(jobs: Sequence[CampaignJob], workers: int = 2,
              **supervisor_kwargs) -> FleetResult:
    """Run ``jobs`` under a :class:`FleetSupervisor` and return its result."""
    return FleetSupervisor(jobs, workers=workers, **supervisor_kwargs).run()


# ----------------------------------------------------------------------
# sharded intra-firmware fleet (one firmware, N cooperating shards)
# ----------------------------------------------------------------------
@dataclass
class ShardedFleetResult:
    """One firmware fuzzed by ``shards`` cooperating workers."""

    #: the shard results merged into a single campaign-shaped record
    #: (execs/crashes sum, coverage is the max frontier, findings and
    #: catalog matches union); ``None`` only if every shard degraded
    result: Optional[object]
    #: per-shard final-round results, shard order; ``None`` = degraded
    shard_results: List[Optional[object]]
    rounds: int
    shards: int
    #: the final round's supervision record
    diagnostics: FleetDiagnostics
    #: all rounds' supervision events plus the ``corpus_synced``
    #: barrier events, in order
    events: List[dict] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """True when any shard exhausted its retry budget."""
        return any(result is None for result in self.shard_results)


def make_shard_jobs(
    config: CampaignConfig,
    shards: int,
    corpus_dir: Optional[str] = None,
    checkpoint_dir: Optional[str] = None,
) -> List[CampaignJob]:
    """One job per shard of ``config``'s firmware; its budget is per shard.

    Shard ``i`` of ``n`` seeds its RNG with ``config.seed + i``, starts
    from its disjoint slice of the spec seed corpus, checkpoints into
    its own file and writes its own manifest segment of the shared
    store at ``corpus_dir`` — both are what lets a shard die and resume
    without touching its siblings.
    """
    from repro.firmware.registry import firmware_spec

    name = firmware_spec(config.firmware).name
    if shards < 1:
        raise FuzzerError(f"need >= 1 shard, got {shards}")
    if corpus_dir is None or checkpoint_dir is None:
        raise FuzzerError(
            "sharded jobs need corpus_dir (the sync medium) and "
            "checkpoint_dir (the resume medium)"
        )
    os.makedirs(checkpoint_dir, exist_ok=True)
    safe = name.replace("/", "_")
    return [
        CampaignJob(
            job_id=f"{name}#s{index}",
            config=replace(config, firmware=name, seed=config.seed + index,
                           shard=(index, shards)),
            checkpoint_path=os.path.join(
                checkpoint_dir, f"shard_{safe}_{index:02d}.json"
            ),
            corpus_dir=corpus_dir,
        )
        for index in range(shards)
    ]


def merge_shard_results(results: Sequence[Optional[object]]):
    """Fold per-shard campaign results into one census record.

    Mirrors :func:`repro.fuzz.campaign.run_campaign_repeated`'s merge:
    counters sum, coverage takes the widest frontier, catalog matches
    union, and ``missed`` shrinks to the rows no shard found.  Returns
    ``None`` when every slot is ``None`` (all shards degraded).
    """
    import copy

    merged = None
    for result in results:
        if result is None:
            continue
        if merged is None:
            # deep copy: callers keep the per-shard results alongside
            # the merge, so folding in place would corrupt slot 0
            merged = copy.deepcopy(result)
            continue
        merged.execs += result.execs
        merged.crashes += result.crashes
        merged.coverage = max(merged.coverage, result.coverage)
        merged.budget += result.budget
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
    return merged


def run_sharded_fleet(
    firmware,
    budget: int,
    shards: int = 2,
    workers: Optional[int] = None,
    sync_every: int = 0,
    corpus_dir: Optional[str] = None,
    checkpoint_dir: Optional[str] = None,
    observer=None,
    events_path: Optional[str] = None,
    fleet_options: Optional[dict] = None,
    **knobs,
) -> ShardedFleetResult:
    """Fuzz ONE firmware with ``shards`` cooperating workers.

    ``budget`` is the *total* execution budget, split evenly across
    shards — a 2-shard fleet at budget 1500 spends the same 1500 execs
    a single campaign would, so censuses are comparable.

    ``sync_every`` sets the corpus-sync cadence in per-shard execs.
    The fleet runs in rounds: each round every shard resumes from its
    checkpoint, imports what sibling shards persisted up to the round
    boundary (watermarked by insertion exec count), fuzzes
    ``sync_every`` more execs through the shared store, and
    checkpoints.  Rounds are barriers — the supervisor returns between
    them — so for a fixed ``(seed, shards, sync_every)`` schedule the
    merged result is deterministic regardless of worker count, OS
    scheduling, or how many times workers were killed and resumed.
    ``sync_every=0`` means a single round (shards sync only through
    their disjoint seed slices and the final merge).

    ``firmware`` is a firmware name or a :class:`CampaignConfig`, and
    ``knobs`` are further config fields (``seed``, ``faults``,
    ``exec_mode``, ...) shared by every shard.  ``workers`` caps
    concurrent shard processes (default: one per shard);
    ``fleet_options`` passes supervisor knobs (``heartbeat_timeout``,
    ``max_retries``, ``on_event``, ...).
    """
    import tempfile

    from repro.firmware.registry import firmware_spec

    fleet_options = dict(fleet_options or {})
    if "events_path" in fleet_options:
        # rounds reuse the supervisor, which truncates its events file
        # per run(); route the stream through the combined writer below
        events_path = events_path or fleet_options.pop("events_path")
        fleet_options.pop("events_path", None)
    config = campaign_config(firmware, budget=budget, **knobs)
    name = firmware_spec(config.firmware).name
    if shards < 1:
        raise FuzzerError(f"need >= 1 shard, got {shards}")
    if budget < shards:
        raise FuzzerError(
            f"budget {budget} cannot be split across {shards} shards"
        )
    per_shard = budget // shards
    if sync_every < 0:
        raise FuzzerError(f"sync_every must be >= 0, got {sync_every}")
    if sync_every and sync_every < per_shard:
        rounds = -(-per_shard // sync_every)  # ceil
    else:
        rounds = 1

    tmp_dirs = []
    if corpus_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-shard-corpus-")
        tmp_dirs.append(tmp)
        corpus_dir = tmp.name
    if checkpoint_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-shard-ckpt-")
        tmp_dirs.append(tmp)
        checkpoint_dir = tmp.name

    try:
        from repro.corpus import CorpusStore

        events: List[dict] = []
        fleet = None
        previous_size = 0
        for round_index in range(rounds):
            round_budget = per_shard if not sync_every else min(
                per_shard, (round_index + 1) * sync_every
            )
            jobs = make_shard_jobs(
                # checkpoints only at sync boundaries: a mid-round kill
                # resumes from the round start (or a fresh start in
                # single-round mode), where the import watermark sees
                # the same store every uninterrupted run saw
                replace(config, budget=round_budget,
                        checkpoint_every=sync_every or per_shard),
                shards, corpus_dir=corpus_dir,
                checkpoint_dir=checkpoint_dir,
            )
            fleet = run_fleet(
                jobs, workers=workers or shards, observer=observer,
                **(fleet_options or {}),
            )
            events.extend(fleet.events)
            # the round barrier IS the sync point: every shard has
            # flushed its segment and gone idle, so this union is the
            # exact store the next round's resumes will import from
            store = CorpusStore(corpus_dir, firmware=name)
            synced = len(store) - previous_size
            previous_size = len(store)
            events.append({
                "ts": round(time.time(), 6),
                "event": "corpus_synced",
                "firmware": name,
                "round": round_index + 1,
                "rounds": rounds,
                "entries": len(store),
                "new_entries": synced,
            })
            if observer is not None:
                observer.counter("corpus.syncs").inc()
                observer.counter("corpus.sync_volume").inc(synced)
                observer.gauge("corpus.size").set(len(store))
        if events_path:
            from repro.obs.observer import ensure_parent

            with open(ensure_parent(events_path), "w",
                      encoding="utf-8") as fh:
                for record in events:
                    fh.write(json.dumps(record, sort_keys=True) + "\n")
        return ShardedFleetResult(
            result=merge_shard_results(fleet.results),
            shard_results=fleet.results,
            rounds=rounds,
            shards=shards,
            diagnostics=fleet.diagnostics,
            events=events,
        )
    finally:
        for tmp in tmp_dirs:
            tmp.cleanup()
