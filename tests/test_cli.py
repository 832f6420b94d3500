"""Tests: the ``python -m repro`` command-line interface."""

import json
import os
import sys

import pytest

from repro.cli import build_parser, main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestParser:
    def test_all_subcommands_parse(self):
        parser = build_parser()
        for argv in (
            ["list"],
            ["probe", "InfiniTime"],
            ["probe", "InfiniTime", "--sanitizers", "kasan", "kcsan"],
            ["replay", "t2_01", "--deployment", "embsan-d"],
            ["fuzz", "InfiniTime", "--budget", "50", "--seed", "2"],
            ["fuzz", "InfiniTime", "--metrics", "m.json",
             "--trace", "t.json"],
            ["fuzz-all", "--workers", "2", "--budget", "100",
             "--firmware", "InfiniTime", "--heartbeat-timeout", "10",
             "--max-retries", "2", "--backoff", "0.1",
             "--events-log", "events.jsonl"],
            ["fuzz-all", "--budget", "100", "--metrics", "m.json",
             "--trace", "t.json"],
            ["fuzz", "InfiniTime", "--corpus-dir", "c",
             "--seed-schedule", "rarity", "--results", "r.json"],
            ["fuzz-all", "--shard", "2", "--sync-every", "250",
             "--firmware", "InfiniTime", "--corpus-dir", "c"],
            ["corpus", "ls", "c", "--long"],
            ["corpus", "distill", "c", "--out", "min"],
            ["corpus", "merge", "dest", "a", "b"],
            ["corpus", "export", "c", "bundle.json"],
            ["corpus", "import", "c", "bundle.json"],
            ["stats", "m.json"],
            ["overhead", "InfiniTime"],
            ["table2"],
            ["worker", "--connect", "127.0.0.1:7400", "--max-jobs", "3",
             "--max-reconnects", "5", "--reconnect-base", "0.1",
             "--reconnect-max", "2.0"],
            ["serve", "--state-dir", "s", "--listen", "127.0.0.1:0",
             "--max-running", "2", "--max-pending", "8",
             "--max-attempts", "2", "--snapshot-every", "64"],
            ["submit", "InfiniTime", "--connect", "127.0.0.1:7400",
             "--budget", "100", "--dedup-key", "k", "--wait",
             "--results", "r.json", "--findings", "f.json"],
            ["jobs", "--connect", "127.0.0.1:7400", "--watch"],
            ["drain", "--connect", "127.0.0.1:7400"],
        ):
            assert parser.parse_args(argv) is not None

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "OpenWRT-armvirt" in out and "TP-Link WDR-7660" in out

    def test_probe_prints_dsl(self, capsys):
        assert main(["probe", "InfiniTime"]) == 0
        out = capsys.readouterr().out
        assert "(merged-spec" in out and "(platform" in out
        assert "pvPortMalloc" in out

    def test_replay_detected(self, capsys):
        assert main(["replay", "t2_16"]) == 0
        out = capsys.readouterr().out
        assert "DETECTED" in out and "use-after-free" in out

    def test_replay_miss_exit_code(self, capsys):
        # the global-OOB bug is invisible to EMBSAN-D: exit code 1
        assert main(["replay", "t2_24", "--deployment", "embsan-d"]) == 1

    def test_replay_unknown_bug(self, capsys):
        assert main(["replay", "t9_99"]) == 2

    def test_fuzz_small_budget(self, capsys):
        assert main(["fuzz", "OpenHarmony-stm32mp1", "--budget", "150",
                     "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "execs: 150" in out

    def test_overhead_single_firmware(self, capsys):
        assert main(["overhead", "InfiniTime"]) == 0
        out = capsys.readouterr().out
        assert "embsan-d" in out and "x" in out


class TestExitCodes:
    def test_fuzz_exits_3_when_crash_budget_exhausted(self, capsys,
                                                      monkeypatch):
        monkeypatch.setattr(
            "repro.fuzz.engine.FuzzTarget.execute",
            lambda self, program, style: (_ for _ in ()).throw(
                RuntimeError("boom")),
        )
        assert main(["fuzz", "InfiniTime", "--budget", "50", "--seed", "1",
                     "--crash-budget", "3"]) == 3
        out = capsys.readouterr().out
        assert "DEGRADED" in out

    def test_fuzz_prints_corrupt_checkpoint_diagnosis(self, capsys,
                                                      tmp_path):
        path = str(tmp_path / "cp.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("}{ definitely not json")
        assert main(["fuzz", "InfiniTime", "--budget", "60", "--seed", "1",
                     "--checkpoint", path]) == 0
        out = capsys.readouterr().out
        assert "checkpoint discarded as corrupt" in out
        assert "cp.json" in out

    def test_fuzz_all_sequential_and_fleet_agree(self, capsys, tmp_path):
        seq = str(tmp_path / "seq.json")
        par = str(tmp_path / "par.json")
        base = ["fuzz-all", "--budget", "150", "--seed", "1",
                "--firmware", "InfiniTime",
                "--firmware", "OpenHarmony-stm32f407"]
        assert main(base + ["--results", seq]) == 0
        assert main(base + ["--workers", "2", "--results", par,
                            "--diagnostics", str(tmp_path / "fleet.json"),
                            "--events-log",
                            str(tmp_path / "events.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "fleet: 2/2 job(s) completed" in out
        with open(seq, "rb") as a, open(par, "rb") as b:
            assert a.read() == b.read()  # the byte-identity contract
        diag = json.load(open(tmp_path / "fleet.json", encoding="utf-8"))
        assert diag["workers"] == 2 and len(diag["jobs"]) == 2
        events = [json.loads(line)
                  for line in open(tmp_path / "events.jsonl",
                                   encoding="utf-8")]
        assert events[-1]["event"] == "fleet_done"

    def test_fuzz_all_exits_3_when_a_campaign_degrades(self, capsys,
                                                       monkeypatch):
        monkeypatch.setattr(
            "repro.fuzz.engine.FuzzTarget.execute",
            lambda self, program, style: (_ for _ in ()).throw(
                RuntimeError("boom")),
        )
        assert main(["fuzz-all", "--budget", "50", "--seed", "1",
                     "--firmware", "InfiniTime", "--crash-budget", "3"]) == 3

    def test_fuzz_all_exits_3_when_a_fleet_job_is_abandoned(self, capsys,
                                                            monkeypatch):
        # jobs built directly (bypassing catalog validation) can name a
        # firmware the worker cannot build: every attempt fails, the
        # retry budget runs out, and the fleet reports exit code 3
        from repro.fuzz.config import CampaignConfig
        from repro.fuzz.supervisor import CampaignJob

        monkeypatch.setattr(
            "repro.fuzz.supervisor.make_jobs",
            lambda **kw: [
                CampaignJob(job_id="ok", config=CampaignConfig(
                    "InfiniTime", budget=50, seed=1)),
                CampaignJob(job_id="doomed", config=CampaignConfig(
                    "NoSuchFirmware", budget=50, seed=1)),
            ],
        )
        assert main(["fuzz-all", "--workers", "2", "--budget", "50",
                     "--max-retries", "1", "--backoff", "0.01"]) == 3
        out = capsys.readouterr().out
        assert "DEGRADED" in out and "NoSuchFirmware" in out

    def test_fuzz_all_unknown_firmware_rejected(self):
        from repro.errors import FirmwareBuildError

        with pytest.raises(FirmwareBuildError):
            main(["fuzz-all", "--budget", "10",
                  "--firmware", "NoSuchFirmware"])

    def test_worker_plumbs_reconnect_and_job_knobs(self, monkeypatch):
        seen = {}

        def fake_run_worker(host, port, **kwargs):
            seen.update(kwargs, host=host, port=port)
            from repro.fuzz.transport import WorkerStats
            return WorkerStats()

        monkeypatch.setattr("repro.fuzz.transport.run_worker",
                            fake_run_worker)
        assert main(["worker", "--connect", "127.0.0.1:7999",
                     "--max-jobs", "3", "--max-reconnects", "7",
                     "--reconnect-base", "0.25",
                     "--reconnect-max", "4.5"]) == 0
        assert seen["host"] == "127.0.0.1" and seen["port"] == 7999
        assert seen["max_jobs"] == 3
        assert seen["max_reconnects"] == 7
        assert seen["reconnect_base"] == 0.25
        assert seen["reconnect_max"] == 4.5


class TestDrainSignals:
    """Satellite: SIGTERM during fuzz-all checkpoints and resumes."""

    def _spawn_fuzz_all(self, tmp_path, results):
        import subprocess
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        argv = [sys.executable, "-m", "repro", "fuzz-all",
                "--workers", "2", "--budget", "1500", "--seed", "1",
                "--firmware", "InfiniTime",
                "--firmware", "OpenHarmony-stm32f407",
                "--checkpoint-dir", str(tmp_path / "ck"),
                "--results", str(results)]
        return subprocess.Popen(argv, env=env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT)

    def test_sigterm_drains_then_resume_is_byte_identical(self, tmp_path):
        import glob
        import signal as signal_mod
        import subprocess
        import time

        interrupted = tmp_path / "out.json"
        proc = self._spawn_fuzz_all(tmp_path, interrupted)
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if glob.glob(str(tmp_path / "ck" / "*.json")):
                    break
                if proc.poll() is not None:
                    break
                time.sleep(0.1)
            else:
                pytest.fail("no checkpoint appeared within 60s")
            assert proc.poll() is None, proc.stdout.read().decode()
            proc.send_signal(signal_mod.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 4, out.decode()
        assert b"INTERRUPTED" in out

        # same flags again: resumes from the checkpoints and finishes
        resume = self._spawn_fuzz_all(tmp_path, interrupted)
        out, _ = resume.communicate(timeout=180)
        assert resume.returncode == 0, out.decode()

        # an uninterrupted run at the same cadence produces the same bytes
        reference = tmp_path / "ref.json"
        ref_dir = tmp_path / "ref-ck"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        subprocess.run(
            [sys.executable, "-m", "repro", "fuzz-all",
             "--workers", "2", "--budget", "1500", "--seed", "1",
             "--firmware", "InfiniTime",
             "--firmware", "OpenHarmony-stm32f407",
             "--checkpoint-dir", str(ref_dir),
             "--results", str(reference)],
            env=env, check=True, timeout=180,
            stdout=subprocess.DEVNULL)
        assert interrupted.read_bytes() == reference.read_bytes()


class TestObservability:
    def test_fuzz_sinks_written_and_census_unchanged(self, capsys,
                                                     tmp_path):
        args = ["fuzz", "InfiniTime", "--budget", "120", "--seed", "2"]
        assert main(args) == 0
        plain = capsys.readouterr().out
        # sink paths point into a directory that does not exist yet:
        # the CLI must create it rather than crash on open()
        mpath = tmp_path / "deep" / "obs" / "metrics.json"
        tpath = tmp_path / "deep" / "obs" / "trace.json"
        assert main(args + ["--metrics", str(mpath),
                            "--trace", str(tpath)]) == 0
        observed = capsys.readouterr().out
        # identical campaign output, plus only the two sink notices
        assert plain.splitlines() == [
            line for line in observed.splitlines()
            if not line.startswith(("metrics written", "trace written"))
        ]
        metrics = json.loads(mpath.read_text())
        assert metrics["schema"] == "repro-metrics/1"
        counters = metrics["counters"]
        for family in ("tcg.", "shadow.", "quarantine.", "campaign."):
            assert any(k.startswith(family) for k in counters), family
        trace = json.loads(tpath.read_text())
        assert trace["displayTimeUnit"] == "ms"
        assert any(e.get("ph") == "X" for e in trace["traceEvents"])
        assert any(e.get("ph") == "M" for e in trace["traceEvents"])

    def test_fuzz_all_sinks_create_parent_dirs(self, capsys, tmp_path):
        # regression test: --events-log (and every other file sink) in
        # a not-yet-existing directory used to crash the fleet launch
        deep = tmp_path / "not" / "yet" / "there"
        assert main(["fuzz-all", "--workers", "2", "--budget", "60",
                     "--seed", "1", "--firmware", "InfiniTime",
                     "--events-log", str(deep / "events.jsonl"),
                     "--results", str(deep / "results.json"),
                     "--diagnostics", str(deep / "diag.json"),
                     "--metrics", str(deep / "metrics.json"),
                     "--trace", str(deep / "trace.json")]) == 0
        for name in ("events.jsonl", "results.json", "diag.json",
                     "metrics.json", "trace.json"):
            assert (deep / name).exists(), name

    def test_stats_renders_metrics_document(self, capsys, tmp_path):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("campaign.execs").inc(42)
        registry.gauge("fleet.workers").set(2)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(registry.to_json()))
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "campaign:" in out and "campaign.execs" in out
        assert "42" in out

    def test_stats_rejects_foreign_json(self, capsys, tmp_path):
        path = tmp_path / "notmetrics.json"
        path.write_text(json.dumps({"spec_bare": {}}))
        assert main(["stats", str(path)]) == 2
        captured = capsys.readouterr()
        assert "is not a repro-metrics/1 document" in captured.err


class TestCorpusCommands:
    def test_fuzz_persists_then_corpus_tools_round_trip(self, capsys,
                                                        tmp_path):
        store = str(tmp_path / "c")
        assert main(["fuzz", "InfiniTime", "--budget", "200", "--seed", "1",
                     "--corpus-dir", store]) == 0
        out = capsys.readouterr().out
        assert "corpus:" in out and "entr(ies)" in out

        assert main(["corpus", "ls", store]) == 0
        out = capsys.readouterr().out
        assert "for firmware 'InfiniTime'" in out

        minset = str(tmp_path / "min")
        assert main(["corpus", "distill", store, "--out", minset]) == 0
        out = capsys.readouterr().out
        assert "distilled" in out

        bundle = str(tmp_path / "corpus.bundle.json")
        assert main(["corpus", "export", minset, bundle]) == 0
        fresh = str(tmp_path / "fresh")
        assert main(["corpus", "import", fresh, bundle]) == 0
        merged = str(tmp_path / "merged")
        assert main(["corpus", "merge", merged, store, minset]) == 0
        capsys.readouterr()

        assert main(["corpus", "ls", merged, "--long"]) == 0
        out = capsys.readouterr().out
        assert "cover" in out

    def test_corpus_ls_rejects_broken_store(self, capsys, tmp_path):
        root = tmp_path / "broken"
        root.mkdir()
        (root / "manifest.json").write_text("not json")
        assert main(["corpus", "ls", str(root)]) == 2
        assert "corrupt" in capsys.readouterr().err

    def test_shard_requires_exactly_one_firmware(self, capsys):
        assert main(["fuzz-all", "--shard", "2", "--budget", "100"]) == 2
        assert "exactly one" in capsys.readouterr().err
