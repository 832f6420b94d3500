"""Transport failure matrix: frame codec, chaos plans, TCP fleets.

Three layers, mirroring ``docs/robustness.md``'s distributed-fleet
failure matrix:

* **codec** — the length-prefixed JSONL frame survives a flipped byte
  (skippable CRC error), rejects broken headers, and classifies EOFs;
* **chaos** — :class:`repro.fuzz.chaos.ChaosPlan` is a deterministic,
  seed-replayable DSL whose wrapper mutates only the send side;
* **fleet over TCP** — a loopback :class:`TcpJsonlTransport` fleet is
  byte-identical to a sequential sweep and to the spawn transport, and
  every injected hazard (duplicate terminal frames, corrupt frames,
  mid-job disconnects, heartbeat silence) heals without degradation.

The TCP tests run real ``run_worker`` clients on threads against a
real listening socket — the same code path ``repro worker --connect``
uses — so the at-least-once/idempotence contract is exercised end to
end, not simulated.
"""

import contextlib
import json
import socket
import threading

import pytest

from repro.errors import TransportError
from repro.fuzz.campaign import run_campaign
from repro.fuzz.chaos import (
    ChaosFrameStream,
    ChaosPlan,
    ChaosPlanError,
    chaos_plan_for,
)
from repro.fuzz.checkpoint import result_to_json
from repro.fuzz.config import CampaignConfig
from repro.fuzz.supervisor import CampaignJob, run_fleet
from repro.fuzz.transport import (
    HEADER_LEN,
    PROTOCOL_VERSION,
    FrameStream,
    SpawnTransport,
    TcpJsonlTransport,
    encode_frame,
    exit_cause_of,
    run_worker,
)

#: small, fast firmware for fleet tests (same set as test_supervisor)
FAST_FW = ("InfiniTime", "OpenHarmony-stm32f407")


def _result_bytes(result) -> str:
    return json.dumps(result_to_json(result), sort_keys=True)


def _jobs(budget=150, seed=1, **overrides):
    return [
        CampaignJob(job_id=fw, config=CampaignConfig(
            fw, budget=budget, seed=seed, **overrides))
        for fw in FAST_FW
    ]


# ----------------------------------------------------------------------
# frame codec
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _stream_pair():
    left, right = socket.socketpair()
    a, b = FrameStream(left), FrameStream(right)
    try:
        yield a, b
    finally:
        a.close()
        b.close()


class TestFrameCodec:
    def test_round_trip_preserves_payload(self):
        frames = [
            {"type": "idle"},
            {"type": "event", "kind": "result", "job": "fw", "attempt": 2,
             "payload": {"execs": 150, "unicode": "Ω"}},
        ]
        with _stream_pair() as (a, b):
            for frame in frames:
                a.send(frame)
            for frame in frames:
                assert b.recv(timeout=2.0) == frame
            assert b.bytes_received == a.bytes_sent

    def test_crc_mismatch_is_skippable_and_keeps_sync(self):
        good = {"type": "idle"}
        raw = bytearray(encode_frame({"type": "event", "kind": "x"}))
        raw[HEADER_LEN + 2] ^= 0x40  # flip a payload byte, header honest
        with _stream_pair() as (a, b):
            a.send_bytes(bytes(raw))
            a.send(good)
            with pytest.raises(TransportError) as info:
                b.recv(timeout=2.0)
            assert info.value.kind == "crc"
            # the parser advanced past the bad frame: the stream survives
            assert b.recv(timeout=2.0) == good

    def test_bad_header_is_a_framing_error(self):
        with _stream_pair() as (a, b):
            a.send_bytes(b"X" * HEADER_LEN + b"garbage")
            with pytest.raises(TransportError) as info:
                b.recv(timeout=2.0)
            assert info.value.kind == "framing"

    def test_oversize_announcement_is_rejected(self):
        header = b"RJ1 ffffffff 00000000\n"
        with _stream_pair() as (a, b):
            a.send_bytes(header)
            with pytest.raises(TransportError) as info:
                b.recv(timeout=2.0)
            assert info.value.kind == "framing"

    def test_eof_classification(self):
        # clean close between frames -> "closed"; mid-frame -> "framing"
        with _stream_pair() as (a, b):
            a.close()
            with pytest.raises(TransportError) as info:
                b.recv(timeout=2.0)
            assert info.value.kind == "closed"
        with _stream_pair() as (a, b):
            a.send_bytes(encode_frame({"type": "idle"})[:10])
            a.close()
            with pytest.raises(TransportError) as info:
                b.recv(timeout=2.0)
            assert info.value.kind == "framing"

    def test_exit_cause_words_spawn_deaths(self):
        assert exit_cause_of(-9) == "signal:SIGKILL"
        assert exit_cause_of(1) == "exit:1"
        assert exit_cause_of(None) == "exit:unknown"


# ----------------------------------------------------------------------
# chaos plans
# ----------------------------------------------------------------------
class TestChaosPlan:
    def test_dsl_round_trips(self):
        spec = "drop:kind=heartbeat,p=1;corrupt:nth=5,limit=2;seed=7"
        plan = ChaosPlan.parse(spec)
        assert plan.describe() == spec
        again = ChaosPlan.parse(plan.describe())
        assert again.describe() == spec
        assert again.seed == 7

    @pytest.mark.parametrize("bad", [
        "explode:p=1",          # unknown action
        "drop",                 # no p=/nth=
        "drop:p=lots",          # non-numeric rate
        "dup:nth=0",            # nth below 1
        "corrupt:verbosity=9",  # unknown option
    ])
    def test_bad_dsl_raises(self, bad):
        with pytest.raises(ChaosPlanError):
            ChaosPlan.parse(bad)

    def test_same_seed_same_decisions(self):
        frames = [{"type": "event", "kind": "heartbeat", "n": i}
                  for i in range(200)]
        one, two = (ChaosPlan.parse("drop:p=0.3;seed=11") for _ in range(2))
        first = [one.decide(f) for f in frames]
        second = [two.decide(f) for f in frames]
        assert first == second
        assert "drop" in first  # the plan actually fires
        assert None in first    # ... but not on every frame

    def test_nth_and_limit_and_kind_filter(self):
        plan = ChaosPlan.parse("dup:kind=heartbeat,nth=2,limit=1")
        beat = {"type": "event", "kind": "heartbeat"}
        other = {"type": "event", "kind": "result"}
        assert plan.decide(other) is None  # filtered out, not counted
        assert plan.decide(beat) is None   # 1st eligible
        assert plan.decide(beat) == "dup"  # 2nd eligible
        assert plan.decide(beat) is None   # limit reached
        assert plan.decide(beat) is None
        assert plan.stats()["duplicated"] == 1

    def test_handshake_frames_are_protected(self):
        plan = ChaosPlan.parse("drop:p=1")
        assert plan.decide({"type": "hello", "version": 1}) is None
        assert plan.decide({"type": "welcome"}) is None
        assert plan.decide({"type": "error"}) is None
        assert plan.decide({"type": "idle"}) == "drop"

    def test_chaos_plan_for_passthrough(self):
        assert chaos_plan_for(None) is None
        assert chaos_plan_for("") is None
        plan = ChaosPlan.parse("drop:p=1")
        assert chaos_plan_for(plan) is plan
        assert chaos_plan_for("dup:nth=3", seed=5).seed == 5

    def test_wrapper_drop_dup_and_corrupt(self):
        with _stream_pair() as (a, b):
            chaotic = ChaosFrameStream(
                a, ChaosPlan.parse("drop:kind=drop_me,p=1;"
                                   "dup:kind=dup_me,p=1;"
                                   "corrupt:kind=mangle_me,p=1"))
            chaotic.send({"type": "drop_me"})
            chaotic.send({"type": "dup_me"})
            chaotic.send({"type": "mangle_me"})
            chaotic.send({"type": "idle"})
            assert b.recv(timeout=2.0) == {"type": "dup_me"}
            assert b.recv(timeout=2.0) == {"type": "dup_me"}
            with pytest.raises(TransportError) as info:
                b.recv(timeout=2.0)
            assert info.value.kind == "crc"
            assert b.recv(timeout=2.0) == {"type": "idle"}

    def test_wrapper_reorder_swaps_with_successor(self):
        with _stream_pair() as (a, b):
            chaotic = ChaosFrameStream(
                a, ChaosPlan.parse("reorder:nth=1,limit=1"))
            chaotic.send({"type": "first"})
            chaotic.send({"type": "second"})
            assert b.recv(timeout=2.0) == {"type": "second"}
            assert b.recv(timeout=2.0) == {"type": "first"}

    def test_wrapper_disconnect_and_truncate_cut_the_wire(self):
        with _stream_pair() as (a, b):
            chaotic = ChaosFrameStream(a, ChaosPlan.parse("disconnect:nth=1"))
            with pytest.raises(TransportError) as info:
                chaotic.send({"type": "idle"})
            assert info.value.kind == "closed"
            # the frame itself was delivered before the cut
            assert b.recv(timeout=2.0) == {"type": "idle"}
            with pytest.raises(TransportError):
                b.recv(timeout=2.0)
        with _stream_pair() as (a, b):
            chaotic = ChaosFrameStream(a, ChaosPlan.parse("truncate:nth=1"))
            with pytest.raises(TransportError) as info:
                chaotic.send({"type": "idle"})
            assert info.value.kind == "closed"
            with pytest.raises(TransportError) as info:
                b.recv(timeout=2.0)
            assert info.value.kind == "framing"


# ----------------------------------------------------------------------
# TCP fleet: byte-identity and the failure matrix, end to end
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _tcp_workers(transport, specs):
    """Run one ``run_worker`` client thread per spec dict; yield stats.

    The yielded list fills in as clients exit; entries stay ``None``
    for a client that raised a permanent (version/auth) rejection.
    """
    stop = threading.Event()
    stats = [None] * len(specs)
    threads = []

    def serve(index, kwargs):
        kwargs.setdefault("reconnect_base", 0.05)
        kwargs.setdefault("reconnect_max", 0.5)
        try:
            stats[index] = run_worker("127.0.0.1", transport.port,
                                      stop=stop, **kwargs)
        except TransportError:
            pass

    for index, spec in enumerate(specs):
        thread = threading.Thread(target=serve, args=(index, dict(spec)),
                                  name=f"test-worker-{index}", daemon=True)
        thread.start()
        threads.append(thread)
    assert transport.wait_for_workers(len(specs), timeout=15), \
        "remote workers never connected"
    try:
        yield stats
    finally:
        stop.set()
        transport.close()
        for thread in threads:
            thread.join(timeout=60)


class TestTcpFleet:
    @pytest.fixture(scope="class")
    def sequential(self):
        return {fw: _result_bytes(run_campaign(fw, budget=150, seed=1))
                for fw in FAST_FW}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_tcp_fleet_matches_sequential_and_spawn(self, sequential,
                                                    workers):
        spawn = SpawnTransport()
        try:
            via_spawn = run_fleet(_jobs(), workers=workers,
                                  heartbeat_interval=0.2, transport=spawn)
        finally:
            spawn.close()
        transport = TcpJsonlTransport(spawn_fallback=False)
        with _tcp_workers(transport,
                          [{"name": f"t{i}"} for i in range(workers)]):
            via_tcp = run_fleet(_jobs(), workers=workers,
                                heartbeat_interval=0.2, transport=transport)
        expected = [sequential[fw] for fw in FAST_FW]
        assert not via_spawn.degraded and not via_tcp.degraded
        assert [_result_bytes(r) for r in via_spawn.results] == expected
        assert [_result_bytes(r) for r in via_tcp.results] == expected
        # with fallback off, every attempt truly ran on a remote peer
        stats = via_tcp.diagnostics.transport
        assert stats["mode"] == "tcp"
        assert stats["remote_attempts"] == len(FAST_FW)
        assert stats["spawn_fallbacks"] == 0
        started = [e for e in via_tcp.events
                   if e["event"] == "job_started"]
        assert started and all(e["where"].startswith("remote:")
                               for e in started)

    def test_duplicate_result_frames_are_deduped(self, sequential):
        # every terminal frame is sent twice; attempt-id idempotence
        # must absorb the echo without double-merging
        transport = TcpJsonlTransport(spawn_fallback=False)
        with _tcp_workers(transport, [{"name": "dup",
                                       "chaos": "dup:kind=result,p=1"}]):
            fleet = run_fleet(_jobs(), workers=1,
                              heartbeat_interval=0.2, transport=transport)
        assert not fleet.degraded
        assert [_result_bytes(r) for r in fleet.results] == [
            sequential[fw] for fw in FAST_FW
        ]
        assert fleet.diagnostics.transport["resends"] >= 1

    def test_corrupt_frames_are_skipped_not_fatal(self, sequential):
        # flipped heartbeat bytes fail the CRC server-side; the frame is
        # dropped, the connection (and the job) survive
        transport = TcpJsonlTransport(spawn_fallback=False)
        chaos = "corrupt:kind=heartbeat,nth=2,limit=3"
        with _tcp_workers(transport, [{"name": "noisy", "chaos": chaos}]):
            fleet = run_fleet(_jobs(), workers=1,
                              heartbeat_interval=0.1, transport=transport)
        assert not fleet.degraded
        assert [_result_bytes(r) for r in fleet.results] == [
            sequential[fw] for fw in FAST_FW
        ]
        assert fleet.diagnostics.transport["frames_dropped"] >= 1

    def test_mid_job_disconnect_resumes_from_synced_checkpoint(
            self, tmp_path):
        # the acceptance scenario: the wire dies right after the first
        # checkpoint_sync lands, so the supervisor holds execs>=500 of
        # durable progress and the reassigned attempt resumes from it
        fw = "OpenHarmony-stm32f407"
        reference = run_campaign(fw, budget=1500, seed=1)
        job = CampaignJob(job_id=fw, config=CampaignConfig(
            fw, budget=1500, seed=1, checkpoint_every=500),
            checkpoint_path=str(tmp_path / "cp.json"))
        transport = TcpJsonlTransport(spawn_fallback=True)
        chaos = "disconnect:kind=checkpoint_sync,nth=1,limit=1"
        with _tcp_workers(transport, [{"name": "flaky", "chaos": chaos}]) \
                as worker_stats:
            fleet = run_fleet([job], workers=1, heartbeat_interval=0.1,
                              backoff_base=0.05, transport=transport)
        assert not fleet.degraded
        assert _result_bytes(fleet.results[0]) == _result_bytes(reference)
        diag = fleet.diagnostics.jobs[0]
        assert diag.attempts == 2
        assert diag.restarts[0]["cause"].startswith("remote-disconnect:")
        names = [e["event"] for e in fleet.events]
        assert "checkpoint_synced" in names
        assert "worker_died" in names and "job_resumed" in names
        synced = next(e for e in fleet.events
                      if e["event"] == "checkpoint_synced")
        assert synced["persisted"] and synced["execs"] >= 500
        resumed = next(e for e in fleet.events
                       if e["event"] == "job_resumed")
        assert resumed["attempt"] == 2
        assert resumed["from_checkpoint"]
        # the client entered its reconnect/backoff loop after the cut
        assert worker_stats[0] is not None
        assert worker_stats[0].reconnects >= 1

    def test_heartbeat_silence_over_tcp_triggers_reassignment(self):
        # a chaos plan eating every heartbeat looks exactly like a hung
        # remote: the supervisor's liveness timeout must cut it loose
        # and re-run the job (here: via spawn fallback, since the lone
        # remote is still busy crunching the stale attempt)
        fw = "InfiniTime"
        reference = run_campaign(fw, budget=800, seed=1)
        job = CampaignJob(job_id=fw, config=CampaignConfig(
            fw, budget=800, seed=1))
        transport = TcpJsonlTransport(spawn_fallback=True)
        # the timeout must be long enough for a replacement attempt to
        # boot while the stale client still burns CPU, and the drop rule
        # bounded so a post-reassignment remote attempt could heartbeat
        chaos = "drop:kind=heartbeat,p=1,limit=50"
        with _tcp_workers(transport, [{"name": "mute", "chaos": chaos}]):
            fleet = run_fleet([job], workers=1, heartbeat_interval=0.1,
                              heartbeat_timeout=1.5, backoff_base=0.05,
                              transport=transport)
        assert not fleet.degraded
        assert _result_bytes(fleet.results[0]) == _result_bytes(reference)
        diag = fleet.diagnostics.jobs[0]
        assert any(r["cause"].startswith("heartbeat-timeout")
                   for r in diag.restarts)

    def test_spawn_fallback_completes_a_fleet_with_no_remotes(
            self, sequential):
        # graceful degradation: nobody ever dials in, jobs still finish
        transport = TcpJsonlTransport(spawn_fallback=True)
        try:
            fleet = run_fleet(_jobs(), workers=2,
                              heartbeat_interval=0.2, transport=transport)
        finally:
            transport.close()
        assert not fleet.degraded
        assert [_result_bytes(r) for r in fleet.results] == [
            sequential[fw] for fw in FAST_FW
        ]
        stats = fleet.diagnostics.transport
        assert stats["remote_attempts"] == 0
        assert stats["spawn_fallbacks"] == len(FAST_FW)

    def test_corpus_custody_round_trips_over_the_wire(self, tmp_path):
        # non-shard corpus jobs ship the store out as a bundle and sync
        # it home: the server-side store must end up identical to a
        # local run's, and the result must stay byte-identical
        fw = "InfiniTime"
        from repro.corpus import CorpusStore

        ref_dir = str(tmp_path / "ref-corpus")
        reference = run_campaign(fw, budget=150, seed=1,
                                 corpus_dir=ref_dir)
        tcp_dir = str(tmp_path / "tcp-corpus")
        job = CampaignJob(job_id=fw, config=CampaignConfig(
            fw, budget=150, seed=1), corpus_dir=tcp_dir)
        transport = TcpJsonlTransport(spawn_fallback=False)
        with _tcp_workers(transport, [{"name": "courier"}]):
            fleet = run_fleet([job], workers=1,
                              heartbeat_interval=0.2, transport=transport)
        assert not fleet.degraded
        assert _result_bytes(fleet.results[0]) == _result_bytes(reference)
        assert any(e["event"] == "corpus_received" for e in fleet.events)
        ref_store = CorpusStore(ref_dir, firmware=fw)
        tcp_store = CorpusStore(tcp_dir, firmware=fw)
        assert sorted(tcp_store.digests()) == sorted(ref_store.digests())

    def test_version_mismatch_is_rejected_permanently(self):
        transport = TcpJsonlTransport()
        try:
            sock = socket.create_connection(
                ("127.0.0.1", transport.port), timeout=5)
            stream = FrameStream(sock)
            try:
                stream.send({"type": "hello",
                             "version": PROTOCOL_VERSION + 1,
                             "token": None, "name": "fossil"})
                reply = stream.recv(timeout=5.0)
                assert reply == {
                    "type": "error", "reason": "version-mismatch",
                    "server_version": PROTOCOL_VERSION,
                }
            finally:
                stream.close()
        finally:
            transport.close()

    def test_auth_failure_raises_instead_of_retrying(self):
        transport = TcpJsonlTransport(token="sesame")
        try:
            with pytest.raises(TransportError) as info:
                run_worker("127.0.0.1", transport.port, token="wrong",
                           max_reconnects=0)
            assert info.value.kind == "auth"
        finally:
            transport.close()
