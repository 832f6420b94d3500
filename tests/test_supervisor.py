"""Fleet supervisor failure matrix.

Every test drives real ``spawn`` worker processes through
:class:`repro.fuzz.supervisor.FleetSupervisor` and asserts the two
properties the fleet promises:

* **determinism** — the merged results are byte-identical to a
  sequential sweep regardless of worker count, interleaving, or how
  many times workers were killed mid-job, and
* **self-healing** — worker death (SIGKILL, hang, crash, corrupt
  checkpoint) is recovered by checkpoint-driven restart, degrading a
  job only after its retry budget and never stalling its siblings.

Failure injection uses the supervisor's ``on_event`` observation hook,
which sees every structured event as it is logged — the same mechanism
the CI chaos job uses.
"""

import json
import os
import signal

import pytest

from repro.errors import CheckpointError, FuzzerError
from repro.fuzz.campaign import run_all_campaigns, run_campaign
from repro.fuzz.checkpoint import result_to_json
from repro.fuzz.diagnostics import FleetDiagnostics
from repro.fuzz.config import CampaignConfig
from repro.fuzz.supervisor import CampaignJob, FleetSupervisor, run_fleet

#: small, fast firmware for fleet tests (tardis targets boot quickest)
FAST_FW = ("InfiniTime", "OpenHarmony-stm32f407")


def _result_bytes(result) -> str:
    return json.dumps(result_to_json(result), sort_keys=True)


def _jobs(budget=200, seed=1, **overrides):
    return [
        CampaignJob(job_id=fw, config=CampaignConfig(
            fw, budget=budget, seed=seed, **overrides))
        for fw in FAST_FW
    ]


class _PidTracker:
    """Collect worker pids from job_started/job_resumed events."""

    def __init__(self):
        self.pids = {}

    def __call__(self, event):
        if event["event"] in ("job_started", "job_resumed"):
            self.pids[event["job"]] = event["pid"]


class TestFleetDeterminism:
    @pytest.fixture(scope="class")
    def sequential(self):
        return [run_campaign(fw, budget=200, seed=1) for fw in FAST_FW]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fleet_matches_sequential_bytes(self, sequential, workers):
        fleet = run_fleet(_jobs(), workers=workers, heartbeat_interval=0.2)
        assert not fleet.degraded
        assert [_result_bytes(r) for r in fleet.results] == [
            _result_bytes(r) for r in sequential
        ]

    def test_results_come_back_in_submission_order(self):
        # reverse the catalog order: results must follow job order, not
        # completion order
        jobs = list(reversed(_jobs()))
        fleet = run_fleet(jobs, workers=2, heartbeat_interval=0.2)
        assert [r.firmware for r in fleet.results] == [
            job.config.firmware for job in jobs
        ]

    def test_run_all_campaigns_delegates_to_fleet(self):
        seq = run_all_campaigns(budget=60, seed=1)
        par = run_all_campaigns(budget=60, seed=1, workers=2)
        assert [_result_bytes(r) for r in par] == [
            _result_bytes(r) for r in seq
        ]


class TestWorkerDeath:
    def test_sigkill_mid_job_resumes_to_identical_census(self, tmp_path):
        fw = "OpenHarmony-stm32f407"
        reference = run_campaign(fw, budget=1500, seed=1)
        path = str(tmp_path / "cp.json")
        job = CampaignJob(job_id=fw, config=CampaignConfig(
            fw, budget=1500, seed=1, checkpoint_every=500),
            checkpoint_path=path)
        tracker = _PidTracker()
        killed = []

        def chaos(event):
            tracker(event)
            # kill the worker once it has durably checkpointed progress
            if killed or event["event"] != "heartbeat":
                return
            if not os.path.exists(path):
                return
            state = json.load(open(path, encoding="utf-8"))
            if state.get("execs", 0) >= 500:
                killed.append(True)
                os.kill(tracker.pids[fw], signal.SIGKILL)

        fleet = run_fleet([job], workers=1, heartbeat_interval=0.1,
                          backoff_base=0.05, on_event=chaos)
        assert killed, "chaos hook never fired"
        assert _result_bytes(fleet.results[0]) == _result_bytes(reference)
        diag = fleet.diagnostics.jobs[0]
        assert diag.attempts == 2
        assert diag.restarts[0]["cause"] == "signal:SIGKILL"
        names = [e["event"] for e in fleet.events]
        assert "worker_died" in names and "job_resumed" in names

    def test_hung_worker_is_detected_and_restarted(self, tmp_path):
        fw = "InfiniTime"
        # checkpoint cadence is part of the deterministic trajectory, so
        # the reference runs with the same cadence (different file)
        reference = run_campaign(fw, budget=200, seed=1,
                                 checkpoint_path=str(tmp_path / "ref.json"),
                                 checkpoint_every=100)
        job = CampaignJob(job_id=fw, config=CampaignConfig(
            fw, budget=200, seed=1, checkpoint_every=100),
            checkpoint_path=str(tmp_path / "cp.json"))
        tracker = _PidTracker()
        stopped = []

        def chaos(event):
            tracker(event)
            if not stopped and event["event"] == "heartbeat":
                stopped.append(True)
                # SIGSTOP: the process is alive but unschedulable — the
                # exact failure heartbeats exist to catch
                os.kill(tracker.pids[fw], signal.SIGSTOP)

        fleet = run_fleet([job], workers=1, heartbeat_interval=0.1,
                          heartbeat_timeout=0.6, backoff_base=0.05,
                          on_event=chaos)
        assert stopped
        assert not fleet.degraded
        assert _result_bytes(fleet.results[0]) == _result_bytes(reference)
        diag = fleet.diagnostics.jobs[0]
        assert any(r["cause"].startswith("heartbeat-timeout")
                   for r in diag.restarts)

    def test_retry_exhaustion_degrades_without_stalling_siblings(self):
        good_fw = "InfiniTime"
        reference = run_campaign(good_fw, budget=200, seed=1)
        jobs = [
            CampaignJob(job_id="doomed", config=CampaignConfig(
                "NoSuchFirmware", budget=50, seed=1)),
            CampaignJob(job_id=good_fw, config=CampaignConfig(
                good_fw, budget=200, seed=1)),
        ]
        fleet = run_fleet(jobs, workers=2, heartbeat_interval=0.1,
                          max_retries=2, backoff_base=0.01)
        assert fleet.degraded
        assert fleet.results[0] is None
        # the sibling finished normally and identically
        assert _result_bytes(fleet.results[1]) == _result_bytes(reference)
        doomed = fleet.diagnostics.job("doomed")
        assert doomed.degraded
        assert doomed.attempts == 3  # 1 initial + 2 retries
        assert doomed.degraded_cause.startswith("worker-error:")
        assert [e["job"] for e in fleet.events
                if e["event"] == "job_degraded"] == ["doomed"]

    def test_corrupted_checkpoint_restarts_clean(self, tmp_path):
        fw = "InfiniTime"
        reference = run_campaign(fw, budget=200, seed=1,
                                 checkpoint_path=str(tmp_path / "ref.json"),
                                 checkpoint_every=100)
        path = str(tmp_path / "cp.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"version": 1, "truncated mid-wri')
        job = CampaignJob(job_id=fw, config=CampaignConfig(
            fw, budget=200, seed=1, checkpoint_every=100),
            checkpoint_path=path)
        fleet = run_fleet([job], workers=1, heartbeat_interval=0.2)
        assert not fleet.degraded
        # identical census/findings; only the diagnostics remember that
        # a corrupt file was discarded
        got = result_to_json(fleet.results[0])
        assert "corrupt" in got["diagnostics"]["checkpoint_discarded"]
        got["diagnostics"]["checkpoint_discarded"] = None
        assert (json.dumps(got, sort_keys=True)
                == _result_bytes(reference))
        discarded = [e for e in fleet.events
                     if e["event"] == "checkpoint_discarded"]
        assert discarded and "corrupt" in discarded[0]["reason"]
        campaign_diag = fleet.diagnostics.jobs[0].campaign
        assert campaign_diag.checkpoint_discarded


class TestSupervisorPlumbing:
    def test_rejects_bad_fleet_shapes(self):
        jobs = _jobs()
        with pytest.raises(FuzzerError):
            FleetSupervisor(jobs, workers=0)
        with pytest.raises(FuzzerError):
            FleetSupervisor([])
        with pytest.raises(FuzzerError):
            FleetSupervisor([jobs[0], jobs[0]])

    def test_events_log_is_valid_jsonl(self, tmp_path):
        log = str(tmp_path / "events.jsonl")
        fleet = run_fleet(_jobs(budget=60), workers=2,
                          heartbeat_interval=0.2, events_path=log)
        lines = [json.loads(line)
                 for line in open(log, encoding="utf-8")]
        assert [r["event"] for r in lines] == [
            e["event"] for e in fleet.events
        ]
        assert lines[0]["event"] == "fleet_started"
        assert lines[-1]["event"] == "fleet_done"
        done = [r for r in lines if r["event"] == "job_done"]
        assert {r["job"] for r in done} == set(FAST_FW)

    def test_fleet_diagnostics_round_trip(self):
        fleet = run_fleet(_jobs(budget=60), workers=2,
                          heartbeat_interval=0.2)
        blob = json.dumps(fleet.diagnostics.to_json(), sort_keys=True)
        back = FleetDiagnostics.from_json(json.loads(blob))
        assert json.dumps(back.to_json(), sort_keys=True) == blob
        assert back.total_restarts() == fleet.diagnostics.total_restarts()
        assert "2/2 job(s) completed" in back.summary()

    def test_worker_checkpoint_peek_reports_corruption(self, tmp_path):
        # unit-level: the worker's pre-run peek surfaces the diagnosis
        from repro.fuzz.checkpoint import load_checkpoint

        path = str(tmp_path / "cp.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("not json at all")
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert path in str(info.value)
