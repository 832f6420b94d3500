"""`repro serve`: the always-on fuzzing service.

Campaigns stop being one-shot CLI invocations and become **tenanted
jobs** inside a long-lived daemon.  The daemon owns

* a crash-safe :class:`~repro.fuzz.queue.JobQueue` (WAL + snapshot,
  replayed on startup — ``kill -9`` loses nothing),
* per-job :class:`~repro.fuzz.supervisor.FleetSupervisor` runs that
  checkpoint into the service's state directory, so a job interrupted
  by *any* death — worker, supervisor, or the daemon itself — resumes
  mid-budget instead of restarting, and
* a line-oriented JSONL control API speaking the same ``RJ1`` frame
  codec as the fleet transport (:mod:`repro.fuzz.transport`), with
  ``submit`` / ``status`` / ``results`` / ``cancel`` / ``drain``
  requests, streaming job events (``watch``) and an obs metrics
  snapshot (``metrics``).

Failure matrix (details in ``docs/serve.md``):

===================  ==============================================
event                recovery
===================  ==============================================
worker dies          supervisor restarts it from the job checkpoint
job poisoned         crash budget -> quarantined; service keeps going
SIGTERM              graceful drain: stop admitting, interrupt and
                     requeue running jobs (budget refunded), flush
                     WAL, exit 0
kill -9              WAL replay requeues leased jobs; checkpoints
                     resume them; results byte-identical
===================  ==============================================

Results use one **normalized findings record**
(:func:`normalized_findings`) as the engine<->exporter contract: the
``results`` API response carries both the full campaign payload (for
byte-identity checks and checkpoint-compatible tooling) and the flat
per-finding records (for downstream exporters).
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Callable, Dict, List, Optional

from repro.errors import AdmissionError, FuzzerError, QueueError, \
    TransportError
from repro.fuzz.checkpoint import result_to_json
from repro.fuzz.config import CampaignConfig
from repro.fuzz.queue import (
    CANCELLED,
    DONE,
    JobQueue,
    TERMINAL_STATES,
    QueueJob,
)
from repro.fuzz.supervisor import (
    CampaignJob,
    DEFAULT_BACKOFF_BASE,
    DEFAULT_HEARTBEAT_TIMEOUT,
    DEFAULT_MAX_RETRIES,
    FleetSupervisor,
)
from repro.fuzz.transport import PROTOCOL_VERSION, FrameStream

def validate_spec(spec) -> dict:
    """Check a job spec at admission time.

    The spec is a :meth:`CampaignConfig.to_json` object; decoding it
    through :class:`CampaignConfig` refuses unknown keys, wrong types,
    unknown enum values and non-positive counts, so a typo'd knob fails
    loudly at admission instead of silently defaulting.  Returns the
    canonical spec (knobs at their defaults left out).

    The firmware *name* is deliberately not checked: an unknown
    firmware passes admission and fails in the runner, where it
    consumes the job's crash budget and lands in quarantine.  Admission
    control guards the queue, the crash budget guards the compute — a
    submitter cannot learn the firmware catalog by probing rejections,
    and a catalog drift between client and server degrades one job
    instead of the ingest path.
    """
    return CampaignConfig.from_json(spec).to_json()


def build_campaign_job(job: QueueJob, checkpoint_dir: str) -> CampaignJob:
    """Materialize a queue job into a fleet CampaignJob.

    The checkpoint path is derived from the *queue* job id, not the
    firmware: two jobs fuzzing the same firmware are distinct tenants
    with distinct resume state.  Unknown keys are ignored, so a spec
    admitted under an older field set (e.g. the retired ISA-engine
    knobs or ``fault_seed``) still materializes.
    """
    config = CampaignConfig.from_json(job.spec, ignore_unknown=True)
    os.makedirs(checkpoint_dir, exist_ok=True)
    return CampaignJob(
        job_id=job.job_id,
        config=config,
        checkpoint_path=(
            None if config.seeds is not None
            else os.path.join(checkpoint_dir, f"{job.job_id}.json")
        ),
    )


def normalized_findings(payload: dict) -> List[dict]:
    """Flatten a campaign result payload into exporter-ready records.

    One record per finding, stable field set, catalog attribution
    inlined (``bug_id`` is None for unmatched findings).  This is the
    single engine<->exporter contract: the serve API, the ``submit
    --wait`` client and any downstream sink all consume the same rows.
    """
    by_key: Dict[tuple, str] = {
        tuple(key): bug_id
        for bug_id, key in payload.get("matched", {}).items()
    }
    records = []
    for finding in payload.get("findings", ()):
        report = finding["report"]
        records.append({
            "firmware": payload["firmware"],
            "fuzzer": payload["fuzzer"],
            "bug_id": by_key.get(tuple(finding["key"])),
            "key": list(finding["key"]),
            "tool": report["tool"],
            "bug_type": report["bug_type"],
            "location": report["location"],
            "pc": report["pc"],
            "addr": report["addr"],
            "task": report["task"],
            "detail": report["detail"],
            "seed": finding["seed"],
            "reproducible": finding["reproducible"],
        })
    return records


class FuzzService:
    """The daemon: queue + scheduler + runners + control API server."""

    def __init__(
        self,
        state_dir: str,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        token: Optional[str] = None,
        max_running: int = 2,
        max_pending: int = 64,
        max_attempts: int = 3,
        retry_after: float = 2.0,
        snapshot_every: int = 256,
        workers_per_job: int = 1,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        observer=None,
        log: Optional[Callable[[str], None]] = None,
    ):
        self.state_dir = state_dir
        self.token = token
        self.max_running = max_running
        self.workers_per_job = workers_per_job
        self.heartbeat_timeout = heartbeat_timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.observer = observer
        self.log = log or (lambda line: None)
        self.checkpoint_dir = os.path.join(state_dir, "checkpoints")
        os.makedirs(self.checkpoint_dir, exist_ok=True)
        self.queue = JobQueue(
            os.path.join(state_dir, "queue"),
            max_pending=max_pending,
            max_attempts=max_attempts,
            retry_after=retry_after,
            snapshot_every=snapshot_every,
            on_record=self._publish_record,
        )
        self._lock = threading.Lock()
        self._running: Dict[str, FleetSupervisor] = {}
        #: jobs leased by the scheduler whose runner has not yet settled;
        #: this — not len(_running) — gates max_running, because a lease
        #: is in flight before its supervisor registers in _running
        self._inflight = 0
        self._runner_threads: List[threading.Thread] = []
        self._cancelling: set = set()
        # Watchers get their own lock: _publish runs inside the queue's
        # on_record callback, i.e. on whatever thread performed the WAL
        # append — possibly one already holding self._lock.  Keeping the
        # publish path off self._lock makes queue mutations safe to call
        # from anywhere.
        self._watch_lock = threading.Lock()
        self._watchers: List[tuple] = []  # (sink, job filter)
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._drain_thread: Optional[threading.Thread] = None
        self._listener = socket.create_server(
            (host, port), backlog=16, reuse_port=False
        )
        self._listener.settimeout(0.25)
        self.host, self.port = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="serve-accept", daemon=True
        )
        self._scheduler_thread = threading.Thread(
            target=self._scheduler_loop, name="serve-scheduler", daemon=True
        )
        if self.queue.recovered_leases:
            self.log(
                f"recovered {len(self.queue.recovered_leases)} leased "
                f"job(s) from the WAL: "
                f"{', '.join(self.queue.recovered_leases)}"
            )
            self._count("serve.recovered_leases",
                        len(self.queue.recovered_leases))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def start(self) -> None:
        self._accept_thread.start()
        self._scheduler_thread.start()
        self.log(f"serving on {self.address} (state {self.state_dir})")

    def serve_forever(self, poll: float = 0.2) -> None:
        """Block until the service drains; the CLI's main loop."""
        while not self._stopped.wait(poll):
            pass

    def drain(self, cause: str = "drain") -> None:
        """Graceful shutdown: the SIGTERM path.

        Stops admitting, interrupts every running supervisor (their
        jobs requeue with the attempt refunded — an operator stop must
        not eat crash budget), flushes the WAL and releases
        :meth:`serve_forever`.  Idempotent; callable from any thread
        or a signal handler.
        """
        if self._draining.is_set():
            return
        self._draining.set()
        self.log(f"draining ({cause}): admissions closed")
        thread = threading.Thread(
            target=self._drain_impl, name="serve-drain", daemon=True
        )
        self._drain_thread = thread
        thread.start()

    def _drain_impl(self) -> None:
        # let the scheduler finish its in-flight lease/registration
        # round first, so the runner snapshot below is complete
        if self._scheduler_thread.is_alive():
            self._scheduler_thread.join(timeout=10.0)
        with self._lock:
            supervisors = list(self._running.values())
            runners = list(self._runner_threads)
        for sup in supervisors:
            sup.interrupt()
        for thread in runners:
            thread.join(timeout=60.0)
        self.queue.flush()
        self._publish({"event": "drained", "job": None})
        self._stopped.set()
        try:
            self._listener.close()
        except OSError:
            pass
        self.queue.close()
        self.log("drained: WAL flushed, exiting")

    def close(self) -> None:
        """Hard stop for tests; production exits via :meth:`drain`."""
        self._draining.set()
        self._stopped.set()
        try:
            self._listener.close()
        except OSError:
            pass
        if self._scheduler_thread.is_alive():
            self._scheduler_thread.join(timeout=10.0)
        with self._lock:
            supervisors = list(self._running.values())
            runners = list(self._runner_threads)
        for sup in supervisors:
            sup.interrupt()
        for thread in runners:
            thread.join(timeout=30.0)
        self.queue.close()

    # ------------------------------------------------------------------
    # scheduler + runners (the supervised internal restart loop)
    # ------------------------------------------------------------------
    def _scheduler_loop(self) -> None:
        while not self._stopped.is_set() and not self._draining.is_set():
            try:
                leased = self._schedule_once()
            except Exception as exc:  # keep the service alive
                self.log(f"scheduler error: {exc}")
                self._count("serve.scheduler_errors")
                leased = False
            if not leased:
                time.sleep(0.1)

    def _schedule_once(self) -> bool:
        # Reserve the concurrency slot *before* leasing: a runner only
        # registers in _running after building its supervisor, so
        # gating on len(_running) lets back-to-back leases overshoot
        # max_running.  The slot is released in the runner's finally.
        with self._lock:
            if self._inflight >= self.max_running:
                return False
            self._inflight += 1
        job = None
        try:
            job = self.queue.lease(f"serve:{os.getpid()}")
        finally:
            if job is None:
                with self._lock:
                    self._inflight -= 1
        if job is None:
            return False
        thread = threading.Thread(
            target=self._runner, args=(job,),
            name=f"serve-runner-{job.job_id}", daemon=True,
        )
        with self._lock:
            self._runner_threads.append(thread)
        try:
            thread.start()
        except Exception:
            with self._lock:
                self._inflight -= 1
                self._runner_threads.remove(thread)
            raise
        return True

    def _runner(self, job: QueueJob) -> None:
        """Drive one leased job to a queue transition, come what may.

        Every exception path ends in a queue record: the runner is the
        service's restart loop, so a poisoned job (bad firmware, a bug
        in the engine, a supervisor crash) burns its own crash budget
        and quarantines instead of taking the daemon down.
        """
        gauge_set = False
        try:
            with self._lock:
                running = len(self._running) + 1
            self._gauge("serve.running", running)
            gauge_set = True
            cjob = build_campaign_job(job, self.checkpoint_dir)
            supervisor = FleetSupervisor(
                [cjob],
                workers=self.workers_per_job,
                heartbeat_timeout=self.heartbeat_timeout,
                max_retries=self.max_retries,
                backoff_base=self.backoff_base,
            )
            with self._lock:
                drain_won = self._draining.is_set()
                if not drain_won:
                    self._running[job.job_id] = supervisor
            if drain_won:
                # drain won the race: hand the lease straight back.
                # Requeue outside self._lock — the WAL append publishes
                # to watchers, and no queue mutation may run under the
                # service lock.
                self.queue.requeue(job.job_id, "drain", counted=False)
                return
            fleet = supervisor.run()
            with self._lock:
                self._running.pop(job.job_id, None)
            self._settle(job, fleet)
        except Exception as exc:
            with self._lock:
                self._running.pop(job.job_id, None)
            self._count("serve.runner_errors")
            self._record_failure(
                job.job_id, f"{type(exc).__name__}: {exc}"
            )
        finally:
            with self._lock:
                self._inflight -= 1
                if threading.current_thread() in self._runner_threads:
                    self._runner_threads.remove(threading.current_thread())
                running = len(self._running)
            if gauge_set:
                self._gauge("serve.running", running)

    def _settle(self, job: QueueJob, fleet) -> None:
        result = fleet.results[0]
        if fleet.interrupted and result is None:
            if job.job_id in self._cancelling:
                self._cancelling.discard(job.job_id)
                self.queue.cancel(job.job_id)
            else:
                self.queue.requeue(job.job_id, "drain", counted=False)
            return
        self._cancelling.discard(job.job_id)
        if result is None:
            self._record_failure(
                job.job_id,
                "degraded: supervisor retry budget exhausted",
            )
            return
        self.queue.complete(job.job_id, result_to_json(result))

    def _record_failure(self, job_id: str, error: str) -> None:
        try:
            self.queue.fail(job_id, error)
        except QueueError as exc:
            # the job may have been cancelled under us; log, don't die
            self.log(f"failure for {job_id} not recorded: {exc}")

    # ------------------------------------------------------------------
    # events + metrics
    # ------------------------------------------------------------------
    def _publish_record(self, entry: dict) -> None:
        self._count("serve.wal_records")
        kind = entry.get("record")
        if kind in ("done", "failed", "cancelled", "quarantined",
                    "requeued", "submitted", "leased"):
            self._count(f"serve.jobs_{kind}")
        self._publish({
            "event": kind,
            "job": entry.get("job"),
            "seq": entry.get("seq"),
            **{k: v for k, v in entry.items()
               if k in ("owner", "cause", "counted", "attempts",
                        "error", "dedup_key")},
        })

    def _publish(self, event: dict) -> None:
        with self._watch_lock:
            watchers = list(self._watchers)
        for sink, job_filter in watchers:
            if job_filter is not None and event.get("job") != job_filter:
                continue
            try:
                sink(event)
            except Exception:
                pass  # a broken watcher must not poison the publisher

    def _count(self, name: str, n: int = 1) -> None:
        if self.observer is not None:
            self.observer.counter(name).inc(n)

    def _gauge(self, name: str, value) -> None:
        if self.observer is not None:
            self.observer.gauge(name).set(value)

    # ------------------------------------------------------------------
    # control API server
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stopped.is_set():
            try:
                sock, _peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(
                target=self._serve_connection, args=(sock,),
                name="serve-conn", daemon=True,
            ).start()

    def _serve_connection(self, sock: socket.socket) -> None:
        stream = FrameStream(sock)
        try:
            if not self._handshake(stream):
                return
            while not self._stopped.is_set():
                try:
                    frame = stream.recv(timeout=0.5)
                except TransportError as exc:
                    if exc.kind == "crc":
                        stream.send({"type": "error",
                                     "reason": "bad-frame"})
                        continue
                    return
                if frame is None:
                    continue
                if not self._handle_request(stream, frame):
                    return
        except TransportError:
            pass
        finally:
            stream.close()

    def _handshake(self, stream: FrameStream) -> bool:
        hello = stream.recv(timeout=10.0)
        if hello is None or hello.get("type") != "hello":
            stream.close()
            return False
        if hello.get("version") != PROTOCOL_VERSION:
            stream.send({"type": "error", "reason": "version-mismatch",
                         "server_version": PROTOCOL_VERSION})
            stream.close()
            return False
        if self.token is not None and hello.get("token") != self.token:
            stream.send({"type": "error", "reason": "auth-failed"})
            stream.close()
            return False
        stream.send({"type": "welcome", "version": PROTOCOL_VERSION,
                     "service": "repro-serve"})
        return True

    def _handle_request(self, stream: FrameStream, frame: dict) -> bool:
        kind = frame.get("type")
        if kind == "submit":
            stream.send(self._api_submit(frame))
        elif kind == "status":
            stream.send(self._api_status(frame))
        elif kind == "results":
            stream.send(self._api_results(frame))
        elif kind == "cancel":
            stream.send(self._api_cancel(frame))
        elif kind == "metrics":
            stream.send(self._api_metrics())
        elif kind == "drain":
            stream.send({"type": "draining"})
            self.drain(cause="api")
            return True
        elif kind == "watch":
            self._api_watch(stream, frame.get("job"))
        elif kind == "bye":
            return False
        else:
            stream.send({"type": "error",
                         "reason": f"unknown request {kind!r}"})
        return True

    def _api_submit(self, frame: dict) -> dict:
        if self._draining.is_set():
            self._count("serve.rejects")
            return {"type": "rejected", "reason": "draining",
                    "retry_after": self.queue.retry_after}
        try:
            spec = validate_spec(frame.get("spec"))
            job, deduped = self.queue.submit(
                spec, dedup_key=frame.get("dedup_key")
            )
        except AdmissionError as exc:
            self._count("serve.rejects")
            return {"type": "rejected", "reason": exc.reason,
                    "retry_after": exc.retry_after}
        except FuzzerError as exc:
            return {"type": "error", "reason": str(exc)}
        if deduped:
            self._count("serve.dedup_hits")
        return {"type": "submitted", "job": job.job_id,
                "deduped": deduped, "state": job.state}

    def _api_status(self, frame: dict) -> dict:
        job_id = frame.get("job")
        if job_id is not None:
            job = self.queue.get(job_id)
            if job is None:
                return {"type": "error", "reason": f"no such job {job_id!r}"}
            return {"type": "status", "job": job.summary()}
        return {
            "type": "status",
            "jobs": [job.summary() for job in self.queue.jobs()],
            "counts": self.queue.counts(),
            "draining": self._draining.is_set(),
        }

    def _api_results(self, frame: dict) -> dict:
        job_id = frame.get("job")
        job = self.queue.get(job_id) if job_id else None
        if job is None:
            return {"type": "error", "reason": f"no such job {job_id!r}"}
        return {
            "type": "results",
            "job": job.job_id,
            "state": job.state,
            "error": job.error,
            "result": job.result if job.state == DONE else None,
            "findings": (
                normalized_findings(job.result)
                if job.state == DONE and job.result else []
            ),
        }

    def _api_cancel(self, frame: dict) -> dict:
        job_id = frame.get("job")
        job = self.queue.get(job_id) if job_id else None
        if job is None:
            return {"type": "error", "reason": f"no such job {job_id!r}"}
        with self._lock:
            supervisor = self._running.get(job_id)
            if supervisor is not None:
                self._cancelling.add(job_id)
        if supervisor is not None:
            supervisor.interrupt()
            self._count("serve.cancels")
            return {"type": "ok", "job": job_id, "state": "cancelling"}
        try:
            self.queue.cancel(job_id)
        except QueueError as exc:
            return {"type": "error", "reason": str(exc)}
        self._count("serve.cancels")
        return {"type": "ok", "job": job_id, "state": CANCELLED}

    def _api_metrics(self) -> dict:
        return {
            "type": "metrics",
            "queue": self.queue.counts(),
            "draining": self._draining.is_set(),
            "obs": (None if self.observer is None
                    else self.observer.export()),
        }

    def _api_watch(self, stream: FrameStream, job_id: Optional[str]) -> None:
        """Stream job events until the watched job is terminal.

        The connection is dedicated to the stream while the watch is
        live; a ``watch-end`` frame hands it back to request mode.
        """
        done = threading.Event()

        def sink(event: dict) -> None:
            try:
                stream.send({"type": "event", **event})
            except TransportError:
                done.set()
                return
            if job_id is not None and event.get("job") == job_id \
                    and event.get("event") in TERMINAL_STATES:
                done.set()
            if event.get("event") == "drained":
                done.set()

        entry = (sink, job_id)
        with self._watch_lock:
            self._watchers.append(entry)
        stream.send({"type": "watching", "job": job_id})
        # a job already terminal will never emit again: close out now
        if job_id is not None:
            job = self.queue.get(job_id)
            if job is not None and job.state in TERMINAL_STATES:
                done.set()
        while not done.wait(0.5):
            if self._stopped.is_set():
                break
        with self._watch_lock:
            if entry in self._watchers:
                self._watchers.remove(entry)
        try:
            stream.send({"type": "watch-end", "job": job_id})
        except TransportError:
            pass


# ----------------------------------------------------------------------
# client
# ----------------------------------------------------------------------
class ServeClient:
    """Thin synchronous client for the serve control API."""

    def __init__(self, host: str, port: int, *,
                 token: Optional[str] = None, timeout: float = 10.0):
        self.timeout = timeout
        sock = socket.create_connection((host, port), timeout=timeout)
        sock.settimeout(None)
        self.stream = FrameStream(sock)
        self.stream.send({"type": "hello", "version": PROTOCOL_VERSION,
                          "token": token, "role": "control"})
        reply = self._recv()
        if reply.get("type") != "welcome":
            self.stream.close()
            raise TransportError(
                f"handshake rejected: {reply.get('reason', 'no welcome')}",
                kind="auth",
            )

    def _recv(self) -> dict:
        deadline = time.monotonic() + self.timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TransportError("server reply timed out",
                                     kind="closed")
            frame = self.stream.recv(timeout=min(remaining, 1.0))
            if frame is not None:
                return frame

    def request(self, obj: dict) -> dict:
        self.stream.send(obj)
        return self._recv()

    # -- the verbs -----------------------------------------------------
    def submit(self, spec: dict,
               dedup_key: Optional[str] = None) -> dict:
        return self.request({"type": "submit", "spec": spec,
                             "dedup_key": dedup_key})

    def status(self, job: Optional[str] = None) -> dict:
        return self.request({"type": "status", "job": job})

    def results(self, job: str) -> dict:
        return self.request({"type": "results", "job": job})

    def cancel(self, job: str) -> dict:
        return self.request({"type": "cancel", "job": job})

    def drain(self) -> dict:
        return self.request({"type": "drain"})

    def metrics(self) -> dict:
        return self.request({"type": "metrics"})

    def watch(self, job: Optional[str] = None,
              on_event: Optional[Callable[[dict], None]] = None,
              timeout: float = 300.0) -> List[dict]:
        """Stream events until the watch ends; returns what was seen."""
        self.stream.send({"type": "watch", "job": job})
        events: List[dict] = []
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            frame = self.stream.recv(timeout=1.0)
            if frame is None:
                continue
            if frame.get("type") == "watch-end":
                return events
            if frame.get("type") == "event":
                events.append(frame)
                if on_event is not None:
                    on_event(frame)
        raise TransportError("watch timed out", kind="closed")

    def wait(self, job: str, poll: float = 0.5,
             timeout: float = 600.0) -> dict:
        """Poll until ``job`` reaches a terminal state; final results."""
        reply = None
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            reply = self.results(job)
            if reply.get("type") == "error":
                raise FuzzerError(reply["reason"])
            if reply["state"] in TERMINAL_STATES:
                return reply
            time.sleep(poll)
        state = reply.get("state") if reply else None
        raise FuzzerError(f"job {job} still {state!r} after "
                          f"{timeout:g}s")

    def close(self) -> None:
        try:
            self.stream.send({"type": "bye"})
        except TransportError:
            pass
        self.stream.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def parse_address(value: str) -> tuple:
    """``host:port`` -> (host, port); the CLI's --listen/--connect."""
    host, sep, port = value.rpartition(":")
    if not sep or not host:
        raise FuzzerError(f"address must be host:port, got {value!r}")
    try:
        return host, int(port)
    except ValueError:
        raise FuzzerError(f"port in {value!r} is not an integer") from None
