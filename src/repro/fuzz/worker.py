"""Fleet worker: one campaign job inside an expendable process.

:func:`worker_main` is the ``spawn``-context entry point the
:mod:`repro.fuzz.supervisor` launches one process per job attempt.  The
worker's only side channel is the supervisor's event queue; everything
it sends is a plain JSON-encodable tuple

    (kind, job_id, attempt, payload)

so a message from a stale attempt (a worker the supervisor already
declared dead but whose queue writes were still in flight) can be
recognized and discarded.  Message kinds:

``started``
    Posted before fuzzing begins; carries the pid, the exec count the
    job resumed from (``None`` for a fresh start) and a diagnosis
    string when an existing checkpoint had to be discarded as corrupt.
``heartbeat``
    Posted immediately and then every ``heartbeat_interval`` seconds by
    a daemon thread.  Its absence past the supervisor's liveness
    timeout is what declares this process hung.
``metrics``
    Sent only when the job payload's ``observe`` flag is set: the
    worker's :meth:`repro.obs.Observer.export` bundle (metrics
    document + raw trace events), posted immediately before ``result``
    so the supervisor merges a completed attempt exactly once.
``result``
    The completed campaign, serialized with
    :func:`repro.fuzz.checkpoint.result_to_json`.
``failed``
    An exception escaped the campaign; carries the type, message and a
    trimmed traceback.  The worker then exits nonzero.

The worker never retries anything itself: retry policy, backoff and
checkpoint-driven resume all belong to the supervisor, which simply
starts a fresh attempt — ``run_campaign`` finds the last checkpoint on
disk and continues from it.
"""

from __future__ import annotations

import os
import sys
import threading
import time
import traceback


def _liveness_loop(events, job_id: str, attempt: int, interval: float,
                   stop: threading.Event) -> None:
    """Post a heartbeat every ``interval`` seconds until stopped.

    Runs on a daemon thread, so a SIGSTOP/SIGKILL of the process (or a
    wedged interpreter) silences it — which is the point: heartbeats
    prove the *process* is schedulable, while in-guest hangs are the
    watchdog's job (see ``docs/robustness.md``).
    """
    start = time.monotonic()
    while not stop.wait(interval):
        events.put(("heartbeat", job_id, attempt, {
            "pid": os.getpid(),
            "elapsed": round(time.monotonic() - start, 3),
        }))


def _run_job(job: dict, observer=None, on_checkpoint_saved=None):
    """Execute the campaign a job payload describes.

    Shared by the spawn-context entry point below and the TCP worker
    client (:func:`repro.fuzz.transport.run_worker`), which passes
    ``on_checkpoint_saved`` to ship each fresh checkpoint back to the
    supervisor the moment it lands on the worker's local disk.
    """
    from repro.fuzz.supervisor import CampaignJob

    return CampaignJob.from_payload(job).run(
        observer=observer, on_checkpoint_saved=on_checkpoint_saved)


def worker_main(job: dict, events) -> None:
    """Process entry point: run one job attempt, report, exit."""
    job_id = job["job_id"]
    attempt = job.get("attempt", 1)
    stop = threading.Event()
    failed = False
    try:
        from repro.errors import CheckpointError
        from repro.fuzz.checkpoint import load_checkpoint, result_to_json

        resumed_execs = None
        checkpoint_corrupt = None
        path = job.get("checkpoint_path")
        if path is not None:
            try:
                state = load_checkpoint(path)
                if state is not None:
                    resumed_execs = state.get("execs")
            except CheckpointError as exc:
                # run_campaign will discard it the same way; surfacing
                # the diagnosis early lets the supervisor log the event
                # before the (budget-long) fresh run completes
                checkpoint_corrupt = str(exc)
        events.put(("started", job_id, attempt, {
            "pid": os.getpid(),
            "resumed_execs": resumed_execs,
            "checkpoint_corrupt": checkpoint_corrupt,
        }))
        beats = threading.Thread(
            target=_liveness_loop,
            args=(events, job_id, attempt,
                  job.get("heartbeat_interval", 1.0), stop),
            name=f"heartbeat-{job_id}",
            daemon=True,
        )
        beats.start()
        observer = None
        if job.get("observe"):
            # the supervisor holds an Observer: collect here and ship
            # the bundle back just before the result so the supervisor
            # can merge every worker into one fleet-wide document
            from repro.obs import Observer

            observer = Observer(process_name=f"worker:{job_id}")
        result = _run_job(job, observer=observer)
        stop.set()
        if observer is not None:
            events.put(("metrics", job_id, attempt, observer.export()))
        events.put(("result", job_id, attempt, result_to_json(result)))
    except BaseException as exc:  # report, then die loudly
        stop.set()
        failed = True
        events.put(("failed", job_id, attempt, {
            "pid": os.getpid(),
            "exc_type": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exc(limit=20),
        }))
    finally:
        # flush the queue's feeder thread before the process exits so
        # the terminal message is never lost to a fast shutdown
        events.close()
        events.join_thread()
    if failed:
        sys.exit(1)
