"""Fleet worker transports: spawn processes or TCP/JSONL peers.

The :class:`~repro.fuzz.supervisor.FleetSupervisor` historically owned
its workers directly — ``spawn``-context processes plus one private
queue per attempt.  This module abstracts that channel behind a
:class:`WorkerTransport` so the same supervision loop (heartbeats,
death rulings, backoff, checkpoint-resume, degradation) drives workers
it cannot ``SIGKILL`` because they live on another host:

:class:`SpawnTransport`
    Today's behavior, byte-identical, still the default: each
    ``launch`` spawns a fresh process running ``worker_main`` with a
    fresh queue (see the supervisor's poisoned-queue rationale).

:class:`TcpJsonlTransport`
    A listening socket speaking a length-prefixed JSONL wire protocol.
    Remote hosts join the fleet with ``repro worker --connect
    HOST:PORT``; each connected client runs one job at a time via the
    exact :func:`repro.fuzz.worker._run_job` code path the spawn
    workers use, so merged fleet results stay byte-identical to a
    sequential sweep regardless of where workers run (CI-enforced).
    When no remote worker is idle, jobs degrade gracefully to local
    spawn processes (``spawn_fallback``, on by default).

Wire format — one frame per protocol message::

    RJ1 <len:08x> <crc32:08x>\\n<payload JSON>\\n

The 22-byte ASCII header carries the payload length and its CRC32; the
payload is one compact ``sort_keys`` JSON object, newline-terminated so
a captured stream reads as JSONL.  A CRC mismatch is a *skippable*
:class:`~repro.errors.TransportError` (``kind="crc"``): the length
prefix already advanced the parser past the bad bytes, so the
connection survives.  A broken header or a mid-frame EOF is
``kind="framing"``/``"closed"`` — the connection is dead and the
client's reconnect loop (exponential backoff + jitter) takes over.

Frame types: ``hello``/``welcome``/``error`` (version + auth-token
handshake, rejections are permanent — clients must not retry),
``job`` (dispatch; payload is :meth:`CampaignJob.payload` plus custody
fields), ``event`` (the worker tuple stream: ``started``,
``heartbeat``, ``metrics``, ``result``, ``failed``, plus the custody
kinds ``checkpoint_sync``/``corpus_sync``), ``ack`` (server receipt
for terminal events — at-least-once delivery), ``idle`` (client
keepalive) and ``bye``.

Delivery contract: terminal events are retransmitted until acked, so
the supervisor may see the same result twice — attempt-id idempotence
(the supervisor drops terminal messages for jobs already ``done``)
makes the duplicate harmless, and determinism makes even a *stale
attempt's* result byte-identical to the live one.  Checkpoint custody:
the server owns checkpoint files; job frames carry the checkpoint
*state* out, ``checkpoint_sync`` events carry each fresh state (plus
the corpus bundle it references) home, so a reassigned job resumes
exactly where the dead remote got to.  See ``docs/robustness.md``.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import zlib
from queue import Empty, Queue
from typing import Callable, List, Optional

from repro.errors import TransportError

#: wire protocol revision; mismatches are rejected at hello time
PROTOCOL_VERSION = 1
#: frame header: b"RJ1 " + 8-hex length + b" " + 8-hex crc32 + b"\n"
MAGIC = b"RJ1 "
HEADER_LEN = 22
#: hard cap on a single frame's payload (corpus bundles ride inline)
MAX_FRAME = 1 << 28


# ----------------------------------------------------------------------
# frame codec
# ----------------------------------------------------------------------
def encode_frame(obj: dict) -> bytes:
    """Serialize one protocol message to its wire bytes."""
    body = json.dumps(obj, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise TransportError(
            f"frame payload of {len(body)} bytes exceeds the "
            f"{MAX_FRAME}-byte cap", kind="framing",
        )
    header = b"%s%08x %08x\n" % (MAGIC, len(body), zlib.crc32(body))
    return header + body + b"\n"


def _parse_header(header: bytes) -> tuple:
    """(payload length, expected crc) from one 22-byte header."""
    if not header.startswith(MAGIC) or header[12:13] != b" " \
            or header[21:22] != b"\n":
        raise TransportError(
            f"bad frame header {header[:12]!r}", kind="framing"
        )
    try:
        length = int(header[4:12], 16)
        crc = int(header[13:21], 16)
    except ValueError as exc:
        raise TransportError(
            f"non-hex frame header field: {exc}", kind="framing"
        ) from exc
    if length > MAX_FRAME:
        raise TransportError(
            f"frame announces {length} bytes, cap is {MAX_FRAME}",
            kind="framing",
        )
    return length, crc


class FrameStream:
    """Framed JSON messages over one socket, with byte counters.

    ``send`` is thread-safe (the client's heartbeat thread and its job
    loop share the stream); ``recv`` belongs to a single reader.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._buf = b""
        self._send_lock = threading.Lock()
        self.bytes_sent = 0
        self.bytes_received = 0
        self._closed = False

    # -- sending ------------------------------------------------------
    def send(self, obj: dict) -> None:
        self.send_bytes(encode_frame(obj))

    def send_bytes(self, raw: bytes) -> None:
        """Ship pre-encoded frame bytes (the chaos wrapper's hook)."""
        with self._send_lock:
            if self._closed:
                raise TransportError("stream is closed", kind="closed")
            try:
                self.sock.sendall(raw)
            except OSError as exc:
                raise TransportError(
                    f"send failed: {exc}", kind="closed"
                ) from exc
            self.bytes_sent += len(raw)

    # -- receiving ----------------------------------------------------
    def recv(self, timeout: float = 1.0) -> Optional[dict]:
        """The next frame, or None if the wire stays idle past ``timeout``.

        Raises :class:`TransportError` — ``kind="crc"`` for a frame
        whose payload failed its checksum or JSON decode (the parser
        has already advanced past it; callers may skip and keep the
        connection), ``kind="framing"``/``"closed"`` when the byte
        stream itself is broken or the peer is gone.
        """
        deadline = time.monotonic() + timeout
        while True:
            frame = self._parse_one()
            if frame is not None:
                return frame
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            try:
                self.sock.settimeout(remaining)
                chunk = self.sock.recv(1 << 16)
            except socket.timeout:
                return None
            except OSError as exc:
                raise TransportError(
                    f"receive failed: {exc}", kind="closed"
                ) from exc
            if not chunk:
                if self._buf:
                    raise TransportError(
                        "connection closed mid-frame", kind="framing"
                    )
                raise TransportError(
                    "peer closed the connection", kind="closed"
                )
            self._buf += chunk
            self.bytes_received += len(chunk)

    def _parse_one(self) -> Optional[dict]:
        """Pop one complete frame off the buffer, if present."""
        if len(self._buf) < HEADER_LEN:
            return None
        length, crc = _parse_header(self._buf[:HEADER_LEN])
        total = HEADER_LEN + length + 1
        if len(self._buf) < total:
            return None
        body = self._buf[HEADER_LEN:HEADER_LEN + length]
        separator = self._buf[total - 1:total]
        # the parser advances BEFORE validating the payload: a bad CRC
        # must not desynchronize framing, or one flipped byte would
        # poison every later frame
        self._buf = self._buf[total:]
        if separator != b"\n":
            raise TransportError(
                "frame missing its newline separator", kind="framing"
            )
        if zlib.crc32(body) != crc:
            raise TransportError(
                f"frame CRC mismatch ({len(body)} bytes)", kind="crc"
            )
        try:
            obj = json.loads(body)
        except ValueError as exc:
            raise TransportError(
                f"frame payload is not JSON: {exc}", kind="crc"
            ) from exc
        if not isinstance(obj, dict):
            raise TransportError(
                f"frame payload is {type(obj).__name__}, not an object",
                kind="crc",
            )
        return obj

    def close(self) -> None:
        with self._send_lock:
            self._closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


def exit_cause_of(exitcode: Optional[int]) -> str:
    """Human-readable worker exit classification (spawn transport)."""
    import signal as _signal

    if exitcode is None:
        return "exit:unknown"
    if exitcode < 0:
        try:
            return f"signal:{_signal.Signals(-exitcode).name}"
        except ValueError:
            return f"signal:{-exitcode}"
    return f"exit:{exitcode}"


# ----------------------------------------------------------------------
# transport interface
# ----------------------------------------------------------------------
class AttemptHandle:
    """One in-flight job attempt, however its worker is reached.

    The supervisor only ever talks to attempts through this surface:
    ``poll`` drains the worker's ``(kind, job_id, attempt, payload)``
    message tuples, ``alive`` feeds the liveness loop, ``abrupt``
    says whether a dead attempt can still have a terminal message in
    flight (signal deaths and TCP disconnects cannot), ``exit_cause``
    words the death ruling, ``kill``/``close`` end and reap it.
    """

    pid: Optional[int] = None
    where: str = "unknown"

    def poll(self) -> List[tuple]:
        raise NotImplementedError

    def alive(self) -> bool:
        raise NotImplementedError

    def abrupt(self) -> bool:
        raise NotImplementedError

    def exit_cause(self) -> str:
        raise NotImplementedError

    def kill(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class WorkerTransport:
    """Factory for :class:`AttemptHandle`\\ s plus lifetime bookkeeping."""

    def launch(self, payload: dict) -> Optional[AttemptHandle]:
        """Start one attempt; ``None`` = no capacity right now (the
        supervisor leaves the job waiting and retries next poll)."""
        raise NotImplementedError

    def stats(self) -> Optional[dict]:
        """Transport counters for diagnostics; ``None`` = nothing to say."""
        return None

    def close(self) -> None:
        """Release sockets/processes the transport still owns."""


# ----------------------------------------------------------------------
# spawn transport (the default; byte-identical to the pre-transport fleet)
# ----------------------------------------------------------------------
class _SpawnAttempt(AttemptHandle):
    where = "spawn"

    def __init__(self, ctx, payload: dict):
        from repro.fuzz.worker import worker_main

        #: fresh queue per attempt: a SIGKILL mid-``put`` can leave a
        #: queue's shared write-lock held forever, and a shared queue
        #: would wedge every other worker's messages with it
        self.queue = ctx.Queue()
        self.process = ctx.Process(
            target=worker_main,
            args=(payload, self.queue),
            name=f"fleet-{payload['job_id']}-a{payload['attempt']}",
            daemon=True,
        )
        self.process.start()
        self.pid = self.process.pid

    def poll(self) -> List[tuple]:
        messages = []
        if self.queue is None:
            return messages
        while True:
            try:
                messages.append(self.queue.get_nowait())
            except Empty:
                break
            except Exception:
                # a killed worker can leave its (private) queue holding
                # a truncated pickle; the liveness check will rule on
                # the death, nothing to drain here
                break
        return messages

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def abrupt(self) -> bool:
        exitcode = None if self.process is None else self.process.exitcode
        return exitcode is not None and exitcode < 0

    def exit_cause(self) -> str:
        return exit_cause_of(
            None if self.process is None else self.process.exitcode
        )

    def kill(self) -> None:
        if self.process is not None and self.process.is_alive():
            self.process.kill()

    def close(self) -> None:
        if self.process is not None:
            self.process.join(timeout=5)
            self.process = None
        if self.queue is not None:
            self.queue.cancel_join_thread()
            self.queue.close()
            self.queue = None


class SpawnTransport(WorkerTransport):
    """Local ``spawn``-context worker processes (the default)."""

    def __init__(self):
        self._ctx = None

    def launch(self, payload: dict) -> AttemptHandle:
        if self._ctx is None:
            import multiprocessing

            self._ctx = multiprocessing.get_context("spawn")
        return _SpawnAttempt(self._ctx, payload)


# ----------------------------------------------------------------------
# TCP/JSONL transport — server side
# ----------------------------------------------------------------------
class _Assignment:
    """Server-side record of one job attempt running on a remote."""

    __slots__ = ("job_id", "attempt", "sink", "finished")

    def __init__(self, job_id: str, attempt: int):
        self.job_id = job_id
        self.attempt = attempt
        self.sink: Queue = Queue()
        self.finished = False


class _RemoteWorker:
    """One connected ``repro worker`` client."""

    def __init__(self, name: str, stream: FrameStream, sequence: int):
        self.name = name
        self.stream = stream
        self.sequence = sequence
        self.connected = True
        self.death_reason: Optional[str] = None
        self.assignment: Optional[_Assignment] = None
        #: (job_id, attempt) pairs whose terminal event was acked —
        #: a second arrival is a client retransmission
        self.acked = set()
        self.lock = threading.Lock()

    def fail(self, reason: str) -> None:
        with self.lock:
            self.connected = False
            if self.death_reason is None:
                self.death_reason = reason
        self.stream.close()


class _RemoteAttempt(AttemptHandle):
    """Supervisor handle for a job dispatched over TCP."""

    def __init__(self, worker: _RemoteWorker, assignment: _Assignment,
                 pid: Optional[int]):
        self.worker = worker
        self.assignment = assignment
        self.pid = pid
        self.where = f"remote:{worker.name}"

    def poll(self) -> List[tuple]:
        messages = []
        while True:
            try:
                messages.append(self.assignment.sink.get_nowait())
            except Empty:
                break
        return messages

    def alive(self) -> bool:
        # the attempt lives while its connection is up and no terminal
        # event has arrived; a finished attempt with messages still in
        # the sink stays pollable until close()
        if self.assignment.finished:
            return False
        return self.worker.connected and \
            self.worker.assignment is self.assignment

    def abrupt(self) -> bool:
        # a broken connection can never deliver a terminal message on
        # this assignment's sink: the pended result will arrive on a
        # NEW connection and be deduped by attempt id — rule now
        return not self.assignment.finished

    def exit_cause(self) -> str:
        if self.worker.death_reason is not None:
            return f"remote-disconnect:{self.worker.name}:" \
                   f"{self.worker.death_reason}"
        return f"remote-done:{self.worker.name}"

    def kill(self) -> None:
        # no SIGKILL across hosts: dropping the connection both stops
        # the supervisor trusting this attempt and tells the client (at
        # its next send) to pend its result and reconnect
        self.worker.fail("killed by supervisor")

    def close(self) -> None:
        with self.worker.lock:
            if self.worker.assignment is self.assignment:
                self.worker.assignment = None


class TcpJsonlTransport(WorkerTransport):
    """Listen for ``repro worker --connect`` clients and dispatch jobs.

    ``token`` (optional) must match each client's hello frame.
    ``spawn_fallback`` (default on) launches a local spawn worker when
    no remote is idle, so a fleet whose remote hosts never return still
    completes — degradation, not deadlock.  Counters surface as
    ``fleet.transport.*`` and in ``FleetDiagnostics.transport``.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 token: Optional[str] = None, *,
                 spawn_fallback: bool = True,
                 handshake_timeout: float = 10.0):
        self.token = token
        self.spawn_fallback = spawn_fallback
        self.handshake_timeout = handshake_timeout
        self._spawn: Optional[SpawnTransport] = None
        self._workers: dict = {}
        self._lock = threading.Lock()
        self._closing = False
        self._sequence = 0
        # counters (summed under self._lock or monotonically bumped)
        self.connects = 0
        self.reconnects = 0
        self.frames_dropped = 0
        self.resends = 0
        self.remote_attempts = 0
        self.spawn_fallbacks = 0
        self._bytes_sent = 0
        self._bytes_received = 0
        self._listener = socket.create_server(
            (host, port), backlog=16, reuse_port=False
        )
        self._listener.settimeout(0.25)
        self.host, self.port = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="fleet-tcp-accept", daemon=True
        )
        self._accept_thread.start()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- connection intake --------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                sock, _peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(
                target=self._serve_connection, args=(sock,),
                name="fleet-tcp-conn", daemon=True,
            ).start()

    def _serve_connection(self, sock: socket.socket) -> None:
        stream = FrameStream(sock)
        worker = None
        try:
            worker = self._handshake(stream)
            if worker is None:
                return
            self._reader_loop(worker)
        except TransportError:
            if worker is not None:
                worker.fail("handshake stream broke")
        finally:
            self._retire_stream(stream)
            if worker is not None and worker.connected:
                worker.fail("connection closed")

    def _handshake(self, stream: FrameStream) -> Optional[_RemoteWorker]:
        deadline = time.monotonic() + self.handshake_timeout
        hello = None
        while hello is None and time.monotonic() < deadline:
            hello = stream.recv(timeout=self.handshake_timeout)
        if hello is None or hello.get("type") != "hello":
            stream.close()
            return None
        if hello.get("version") != PROTOCOL_VERSION:
            stream.send({"type": "error", "reason": "version-mismatch",
                         "server_version": PROTOCOL_VERSION})
            stream.close()
            return None
        if self.token is not None and hello.get("token") != self.token:
            stream.send({"type": "error", "reason": "auth-failed"})
            stream.close()
            return None
        with self._lock:
            self._sequence += 1
            name = hello.get("name") or f"w{self._sequence:02d}"
            previous = self._workers.get(name)
            if previous is not None:
                # same name reattaching: the old connection is stale
                # (its reader will exit); every in-flight supervisor
                # handle on it reads as dead and triggers reassignment
                self.reconnects += 1
            worker = _RemoteWorker(name, stream, self._sequence)
            self._workers[name] = worker
            self.connects += 1
        if previous is not None:
            previous.fail("superseded by reconnect")
        stream.send({"type": "welcome", "version": PROTOCOL_VERSION,
                     "name": name})
        return worker

    def _reader_loop(self, worker: _RemoteWorker) -> None:
        stream = worker.stream
        while worker.connected and not self._closing:
            try:
                frame = stream.recv(timeout=0.5)
            except TransportError as exc:
                if exc.kind == "crc":
                    # length-intact bad payload: skip the frame, keep
                    # the connection (the client retransmits terminal
                    # events until acked, so nothing critical is lost)
                    with self._lock:
                        self.frames_dropped += 1
                    continue
                worker.fail(str(exc))
                return
            if frame is None:
                continue
            frame_type = frame.get("type")
            if frame_type == "bye":
                worker.fail("bye")
                return
            if frame_type == "idle":
                continue
            if frame_type == "event":
                self._route_event(worker, frame)

    def _route_event(self, worker: _RemoteWorker, frame: dict) -> None:
        kind = frame.get("kind")
        job_id = frame.get("job")
        attempt = frame.get("attempt")
        payload = frame.get("payload") or {}
        terminal = kind in ("result", "failed")
        if terminal:
            key = (job_id, attempt)
            with worker.lock:
                duplicate = key in worker.acked
                worker.acked.add(key)
            if duplicate:
                with self._lock:
                    self.resends += 1
            try:
                worker.stream.send({"type": "ack", "job": job_id,
                                    "attempt": attempt})
            except TransportError:
                worker.fail("ack send failed")
        with worker.lock:
            assignment = worker.assignment
            deliver = (assignment is not None
                       and assignment.job_id == job_id)
            if deliver and terminal and attempt == assignment.attempt:
                assignment.finished = True
                worker.assignment = None
        if deliver:
            assignment.sink.put((kind, job_id, attempt, payload))
        # events with no matching assignment are stale retransmissions
        # of an attempt the supervisor already ruled on; the ack above
        # stops the resend loop and idempotence makes the drop safe

    def _retire_stream(self, stream: FrameStream) -> None:
        with self._lock:
            self._bytes_sent += stream.bytes_sent
            self._bytes_received += stream.bytes_received

    # -- dispatch ------------------------------------------------------
    def wait_for_workers(self, count: int, timeout: float = 30.0) -> bool:
        """Block until ``count`` remote workers are connected and idle."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                idle = sum(
                    1 for worker in self._workers.values()
                    if worker.connected and worker.assignment is None
                )
            if idle >= count:
                return True
            time.sleep(0.05)
        return False

    def launch(self, payload: dict) -> Optional[AttemptHandle]:
        assignment = _Assignment(payload["job_id"], payload["attempt"])
        with self._lock:
            candidates = sorted(
                (worker for worker in self._workers.values()
                 if worker.connected and worker.assignment is None),
                key=lambda worker: worker.sequence,
            )
            chosen = candidates[0] if candidates else None
            if chosen is not None:
                chosen.assignment = assignment
                self.remote_attempts += 1
        if chosen is None:
            if not self.spawn_fallback:
                return None
            if self._spawn is None:
                self._spawn = SpawnTransport()
            with self._lock:
                self.spawn_fallbacks += 1
            return self._spawn.launch(payload)
        try:
            job = self._prepare_remote_payload(payload)
            chosen.stream.send({"type": "job", "payload": job})
        except TransportError as exc:
            chosen.fail(f"job dispatch failed: {exc}")
            with chosen.lock:
                chosen.assignment = None
            return None
        return _RemoteAttempt(chosen, assignment, pid=None)

    def _prepare_remote_payload(self, payload: dict) -> dict:
        """Attach custody state a remote host cannot read from disk.

        Checkpoints: the supervisor's filesystem owns the truth; the
        job frame carries the current state out and ``checkpoint_sync``
        events carry fresh states back, so reassignment after a remote
        death resumes exactly as a local restart would.  Single-writer
        corpus stores travel the same way as inline bundles.  *Shard*
        jobs keep their ``corpus_dir`` untouched — the sharded fleet's
        determinism contract requires every shard to see the same
        shared store, so TCP shard workers must share a filesystem
        with the supervisor (see ``docs/robustness.md``).
        """
        job = dict(payload)
        path = job.get("checkpoint_path")
        if path is not None:
            from repro.errors import CheckpointError
            from repro.fuzz.checkpoint import load_checkpoint

            state = None
            corrupt = None
            try:
                state = load_checkpoint(path)
            except CheckpointError as exc:
                corrupt = str(exc)
            job["checkpoint_remote"] = True
            job["checkpoint_state"] = state
            job["checkpoint_corrupt_upstream"] = corrupt
        if job.get("corpus_dir") is not None \
                and job["config"].get("shard") is None:
            from repro.corpus import CorpusStore

            store = CorpusStore(job["corpus_dir"],
                                firmware=job["config"]["firmware"])
            job["corpus_remote"] = True
            job["corpus_bundle"] = store.export_bundle_obj()
            job["corpus_dir"] = None
        return job

    # -- bookkeeping ---------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            live = [
                worker.stream
                for worker in self._workers.values()
                if worker.connected
            ]
            return {
                "mode": "tcp",
                "address": self.address,
                "connects": self.connects,
                "reconnects": self.reconnects,
                "frames_dropped": self.frames_dropped,
                "resends": self.resends,
                "remote_attempts": self.remote_attempts,
                "spawn_fallbacks": self.spawn_fallbacks,
                "bytes_sent": self._bytes_sent
                + sum(stream.bytes_sent for stream in live),
                "bytes_received": self._bytes_received
                + sum(stream.bytes_received for stream in live),
            }

    def close(self) -> None:
        self._closing = True
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            workers = list(self._workers.values())
        for worker in workers:
            if worker.connected:
                try:
                    worker.stream.send({"type": "bye"})
                except TransportError:
                    pass
            worker.fail("server closed")
        if self._spawn is not None:
            self._spawn.close()
        self._accept_thread.join(timeout=2)


# ----------------------------------------------------------------------
# TCP/JSONL transport — client side (`repro worker --connect`)
# ----------------------------------------------------------------------
class WorkerStats:
    """What one :func:`run_worker` lifetime did, for logs and tests."""

    def __init__(self):
        self.jobs_run = 0
        self.jobs_failed = 0
        self.reconnects = 0
        self.resends = 0
        self.checkpoints_synced = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    def to_json(self) -> dict:
        return dict(self.__dict__)


def _client_handshake(host: str, port: int, token: Optional[str],
                      name: Optional[str], reconnects: int,
                      connect_timeout: float) -> tuple:
    """Dial, hello, await welcome; returns (stream, assigned name)."""
    try:
        sock = socket.create_connection((host, port),
                                        timeout=connect_timeout)
    except OSError as exc:
        raise TransportError(
            f"cannot reach {host}:{port}: {exc}", kind="closed"
        ) from exc
    stream = FrameStream(sock)
    try:
        stream.send({
            "type": "hello",
            "version": PROTOCOL_VERSION,
            "token": token,
            "name": name,
            "pid": os.getpid(),
            "reconnects": reconnects,
        })
        reply = stream.recv(timeout=connect_timeout)
        if reply is None:
            raise TransportError("no welcome from server", kind="closed")
        if reply.get("type") == "error":
            reason = reply.get("reason", "rejected")
            kind = "auth" if reason == "auth-failed" else "version"
            raise TransportError(
                f"server rejected handshake: {reason}", kind=kind
            )
        if reply.get("type") != "welcome" \
                or reply.get("version") != PROTOCOL_VERSION:
            raise TransportError(
                f"unexpected handshake reply {reply.get('type')!r}",
                kind="framing",
            )
    except TransportError:
        stream.close()
        raise
    return stream, reply.get("name") or name


def _send_event(stream, job_id: str, attempt: int, kind: str,
                payload: dict) -> None:
    stream.send({"type": "event", "kind": kind, "job": job_id,
                 "attempt": attempt, "payload": payload})


def _await_ack(stream, job_id: str, attempt: int, timeout: float,
               held: List[dict]) -> bool:
    """True once the server acks this attempt's terminal event.

    The server marks a worker idle the moment it routes the terminal
    event, so the *next* job frame can arrive before the ack is read;
    anything that is not our ack is parked in ``held`` for the main
    loop to process in arrival order.
    """
    deadline = time.monotonic() + timeout
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return False
        try:
            frame = stream.recv(timeout=remaining)
        except TransportError as exc:
            if exc.kind == "crc":
                continue
            raise
        if frame is None:
            return False
        if frame.get("type") == "ack" and frame.get("job") == job_id \
                and frame.get("attempt") == attempt:
            return True
        if frame.get("type") in ("job", "bye"):
            held.append(frame)


def _stage_job(job: dict, scratch: str) -> dict:
    """Materialize a job frame's custody payloads on local disk."""
    job = dict(job)
    if job.get("checkpoint_remote"):
        local = os.path.join(scratch, "checkpoint.json")
        state = job.get("checkpoint_state")
        if state is not None:
            from repro.fuzz.checkpoint import write_checkpoint_state

            write_checkpoint_state(local, state)
        job["checkpoint_path"] = local
    if job.get("corpus_remote"):
        from repro.corpus import CorpusStore

        local = os.path.join(scratch, "corpus")
        store = CorpusStore(local, firmware=job["config"]["firmware"])
        bundle = job.get("corpus_bundle")
        if bundle:
            store.import_bundle_obj(bundle, source="fleet-job")
        job["corpus_dir"] = local
    for key in ("checkpoint_state", "corpus_bundle"):
        job.pop(key, None)
    return job


class _JobSession:
    """Client-side execution of one job frame."""

    def __init__(self, stream, job: dict, stats: WorkerStats):
        self.stream = stream
        self.job = job
        self.stats = stats
        self.job_id = job["job_id"]
        self.attempt = job.get("attempt", 1)
        #: set when a send fails mid-job: the campaign keeps running
        #: (its result is still wanted) but no further frames go out
        self.conn_dead = threading.Event()

    def _send(self, kind: str, payload: dict) -> bool:
        if self.conn_dead.is_set():
            return False
        try:
            _send_event(self.stream, self.job_id, self.attempt, kind,
                        payload)
            return True
        except TransportError:
            self.conn_dead.set()
            return False

    def _heartbeat_loop(self, interval: float,
                        stop: threading.Event) -> None:
        start = time.monotonic()
        while not stop.wait(interval):
            if not self._send("heartbeat", {
                "pid": os.getpid(),
                "elapsed": round(time.monotonic() - start, 3),
            }):
                return

    def run(self, scratch: str) -> tuple:
        """Execute the job; returns (terminal kind, terminal payload)."""
        from repro.errors import CheckpointError
        from repro.fuzz.checkpoint import load_checkpoint, result_to_json
        from repro.fuzz.worker import _run_job

        job = _stage_job(self.job, scratch)
        upstream_corrupt = self.job.get("checkpoint_corrupt_upstream")
        resumed_execs = None
        path = job.get("checkpoint_path")
        if path is not None and upstream_corrupt is None:
            try:
                state = load_checkpoint(path)
                if state is not None:
                    resumed_execs = state.get("execs")
            except CheckpointError as exc:
                upstream_corrupt = str(exc)
        self._send("started", {
            "pid": os.getpid(),
            "resumed_execs": resumed_execs,
            "checkpoint_corrupt": upstream_corrupt,
        })
        stop = threading.Event()
        beats = threading.Thread(
            target=self._heartbeat_loop,
            args=(job.get("heartbeat_interval", 1.0), stop),
            name=f"heartbeat-{self.job_id}",
            daemon=True,
        )
        beats.start()
        on_checkpoint_saved = None
        if self.job.get("checkpoint_remote"):
            def on_checkpoint_saved(saved_path: str) -> None:
                self._sync_checkpoint(saved_path, job.get("corpus_dir")
                                      if self.job.get("corpus_remote")
                                      else None)
        observer = None
        if job.get("observe"):
            from repro.obs import Observer

            observer = Observer(process_name=f"worker:{self.job_id}")
        try:
            result = _run_job(job, observer=observer,
                              on_checkpoint_saved=on_checkpoint_saved)
        except Exception as exc:  # noqa: BLE001 - shipped as `failed`
            import traceback

            stop.set()
            return "failed", {
                "pid": os.getpid(),
                "exc_type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(limit=20),
            }
        stop.set()
        if observer is not None:
            self._send("metrics", observer.export())
        if self.job.get("corpus_remote") and job.get("corpus_dir"):
            self._sync_corpus(job["corpus_dir"])
        return "result", result_to_json(result)

    def _sync_checkpoint(self, saved_path: str,
                         corpus_dir: Optional[str]) -> None:
        try:
            with open(saved_path, "r", encoding="utf-8") as fh:
                state = json.load(fh)
        except (OSError, ValueError):
            return
        bundle = None
        if corpus_dir is not None:
            from repro.corpus import CorpusStore

            bundle = CorpusStore(
                corpus_dir, firmware=self.job["config"]["firmware"]
            ).export_bundle_obj()
        if self._send("checkpoint_sync",
                      {"state": state, "corpus": bundle}):
            self.stats.checkpoints_synced += 1

    def _sync_corpus(self, corpus_dir: str) -> None:
        from repro.corpus import CorpusStore

        bundle = CorpusStore(
            corpus_dir, firmware=self.job["config"]["firmware"]
        ).export_bundle_obj()
        self._send("corpus_sync", {"bundle": bundle})


def run_worker(
    host: str,
    port: int,
    *,
    token: Optional[str] = None,
    name: Optional[str] = None,
    reconnect_base: float = 0.5,
    reconnect_factor: float = 2.0,
    reconnect_max: float = 15.0,
    jitter: float = 0.25,
    max_reconnects: Optional[int] = None,
    max_jobs: Optional[int] = None,
    seed: int = 0,
    chaos=None,
    stop: Optional[threading.Event] = None,
    connect_timeout: float = 10.0,
    recv_timeout: float = 1.0,
    ack_timeout: float = 10.0,
    max_resends: int = 3,
    log: Callable[[str], None] = lambda line: None,
) -> WorkerStats:
    """Serve fleet jobs from ``host:port`` until told to stop.

    The client dials, handshakes, then loops: receive a ``job`` frame,
    run it through the same ``_run_job`` path a spawn worker uses
    (heartbeating from a daemon thread), deliver the terminal event and
    wait for the server's ``ack``.  A broken connection at any point
    pends the unacked terminal event and re-dials with exponential
    backoff (``reconnect_base * reconnect_factor**n``, capped at
    ``reconnect_max``) plus seeded jitter; after reconnect, pended
    events are retransmitted first — the server acks and dedups them by
    attempt id.  ``version``/``auth`` rejections are permanent and
    raise instead of retrying.

    ``chaos`` (a :class:`repro.fuzz.chaos.ChaosPlan` or DSL string)
    wraps each connection's send side for failure-matrix testing; the
    plan object persists across reconnects so ``nth`` counters keep
    advancing.  ``stop`` ends the loop at the next safe point;
    ``max_jobs`` ends it after that many completed jobs.
    """
    import random
    import tempfile

    from repro.fuzz.chaos import ChaosFrameStream, chaos_plan_for

    stats = WorkerStats()
    rng = random.Random(seed)
    plan = chaos_plan_for(chaos, seed=seed)
    pending: List[tuple] = []  # [(kind, payload, job_id, attempt)]
    failures = 0

    def _backoff() -> bool:
        """Sleep out one reconnect delay; False = give up."""
        nonlocal failures
        if max_reconnects is not None and stats.reconnects >= max_reconnects:
            return False
        delay = min(reconnect_max,
                    reconnect_base * (reconnect_factor ** failures))
        delay += delay * jitter * rng.random()
        failures += 1
        stats.reconnects += 1
        deadline = time.monotonic() + delay
        while time.monotonic() < deadline:
            if stop is not None and stop.is_set():
                return False
            time.sleep(min(0.05, max(0.001,
                                     deadline - time.monotonic())))
        return True

    while stop is None or not stop.is_set():
        if max_jobs is not None and stats.jobs_run >= max_jobs:
            break
        try:
            stream, assigned = _client_handshake(
                host, port, token, name, stats.reconnects, connect_timeout
            )
        except TransportError as exc:
            if exc.kind in ("version", "auth"):
                raise
            if not _backoff():
                break
            continue
        name = assigned
        failures = 0
        if plan is not None:
            stream = ChaosFrameStream(stream, plan)
        log(f"connected to {host}:{port} as {name}")
        held: List[dict] = []
        try:
            # retransmit unacked terminal events from the last life
            while pending:
                kind, payload, job_id, attempt = pending[0]
                _send_event(stream, job_id, attempt, kind, payload)
                stats.resends += 1
                if not _await_ack(stream, job_id, attempt, ack_timeout,
                                  held):
                    raise TransportError(
                        "resent terminal event went unacked",
                        kind="closed",
                    )
                pending.pop(0)
            while stop is None or not stop.is_set():
                if max_jobs is not None and stats.jobs_run >= max_jobs:
                    stream.send({"type": "bye"})
                    stream.close()
                    return stats
                if held:
                    frame = held.pop(0)
                else:
                    frame = stream.recv(timeout=recv_timeout)
                if frame is None:
                    stream.send({"type": "idle"})
                    continue
                frame_type = frame.get("type")
                if frame_type == "bye":
                    stream.close()
                    return stats
                if frame_type != "job":
                    continue
                session = _JobSession(stream, frame["payload"], stats)
                with tempfile.TemporaryDirectory(
                        prefix="repro-worker-") as scratch:
                    kind, payload = session.run(scratch)
                stats.jobs_run += 1
                if kind == "failed":
                    stats.jobs_failed += 1
                log(f"job {session.job_id} attempt {session.attempt}: "
                    f"{kind}")
                if session.conn_dead.is_set():
                    pending.append((kind, payload, session.job_id,
                                    session.attempt))
                    raise TransportError(
                        "connection died mid-job", kind="closed"
                    )
                delivered = False
                try:
                    for _ in range(max_resends + 1):
                        _send_event(stream, session.job_id,
                                    session.attempt, kind, payload)
                        if _await_ack(stream, session.job_id,
                                      session.attempt, ack_timeout, held):
                            delivered = True
                            break
                        stats.resends += 1
                except TransportError:
                    # the wire broke while delivering: pend the terminal
                    # event so the reconnect flush retransmits it
                    pending.append((kind, payload, session.job_id,
                                    session.attempt))
                    raise
                if not delivered:
                    pending.append((kind, payload, session.job_id,
                                    session.attempt))
                    raise TransportError(
                        "terminal event went unacked", kind="closed"
                    )
        except TransportError as exc:
            if exc.kind in ("version", "auth"):
                raise
            log(f"connection lost ({exc}); reconnecting")
            if not _backoff():
                break
            continue
        finally:
            stats.bytes_sent += getattr(stream, "bytes_sent", 0)
            stats.bytes_received += getattr(stream, "bytes_received", 0)
            stream.close()
    return stats
