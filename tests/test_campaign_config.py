"""Tests: one :class:`CampaignConfig` carries every knob across every hop.

The round trip below pushes a config with *every* field at a
non-default value from the CLI through a serve spec, admission, the
WAL, a fleet job payload and a TCP frame into the worker's job runner,
and requires the config ``run_campaign`` receives to be the one the
CLI built.  It enumerates ``dataclasses.fields`` so a new knob that
some hop forgets to carry fails here instead of silently defaulting.
"""

import dataclasses
import json
import socket

import pytest

from repro.cli import _campaign_config, build_parser, main
from repro.errors import FuzzerError
from repro.fuzz.campaign import CampaignResult
from repro.fuzz.config import (
    RESUMABLE_FIELDS,
    RETIRED_FIELDS,
    CampaignConfig,
    campaign_config,
)
from repro.fuzz.queue import JobQueue
from repro.fuzz.serve import build_campaign_job, validate_spec
from repro.fuzz.transport import FrameStream, _stage_job
from repro.fuzz.worker import _run_job

#: every field at a value other than its code default
NON_DEFAULT = {
    "firmware": "OpenWRT-armvirt",
    "budget": 300,
    "seed": 7,
    "seeds": (3, 4),
    "sanitizers": ("kasan", "kcsan"),
    "faults": "alloc:every=9;seed=2",
    "crash_budget": 3,
    "watchdog_insns": 4096,
    "watchdog_cycles": 8192.0,
    "seed_schedule": "rarity",
    "surface": "driver",
    "checkpoint_every": 100,
    "shard": (1, 2),
}


def _flag_argv(args_for, names):
    argv = []
    for name in names:
        argv += ["--" + name.replace("_", "-"), str(args_for[name])]
    return argv


def _subcommand(name):
    return build_parser()._subparsers._group_actions[0].choices[name]


@pytest.fixture()
def captured(monkeypatch):
    """Replace run_campaign with a recorder (no fuzzing happens)."""
    seen = []

    def fake(firmware, **kwargs):
        config = campaign_config(firmware, **{
            k: v for k, v in kwargs.items()
            if k in {f.name for f in dataclasses.fields(CampaignConfig)}
        })
        seen.append((config, kwargs))
        return CampaignResult(firmware=config.firmware, fuzzer="fake",
                              execs=0, coverage=0, crashes=0,
                              seed=config.seed, budget=config.budget)

    monkeypatch.setattr("repro.fuzz.campaign.run_campaign", fake)
    return seen


class TestConfigRecord:
    def test_every_field_has_a_non_default_probe(self):
        names = [f.name for f in dataclasses.fields(CampaignConfig)]
        assert sorted(NON_DEFAULT) == sorted(names)
        for f in dataclasses.fields(CampaignConfig):
            if f.default is not dataclasses.MISSING:
                assert NON_DEFAULT[f.name] != f.default, f.name

    def test_frozen_and_deeply_immutable(self):
        config = CampaignConfig("InfiniTime", seeds=[1, 2],
                                sanitizers=["kasan"], shard=[0, 2])
        assert (config.seeds, config.sanitizers, config.shard) == (
            (1, 2), ("kasan",), (0, 2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.seed = 3

    def test_json_codec_omits_defaults_and_round_trips(self):
        assert CampaignConfig("InfiniTime").to_json() == {
            "firmware": "InfiniTime"}
        config = CampaignConfig(**NON_DEFAULT)
        data = json.loads(json.dumps(config.to_json()))
        assert sorted(data) == sorted(NON_DEFAULT)
        assert CampaignConfig.from_json(data) == config

    def test_unknown_keys_refused_unless_ignored(self):
        data = {"firmware": "InfiniTime", "fault_seed": 3}
        with pytest.raises(FuzzerError, match="unknown spec fields"):
            CampaignConfig.from_json(data)
        assert CampaignConfig.from_json(data, ignore_unknown=True) == \
            CampaignConfig("InfiniTime")

    def test_identity_covers_every_knob_but_budget_and_exec_mode(self):
        """``exec_mode`` is retired: no longer a field, so no identity."""
        assert RESUMABLE_FIELDS == {"budget"}
        assert "exec_mode" not in {f.name for f in
                                   dataclasses.fields(CampaignConfig)}
        config = CampaignConfig(**NON_DEFAULT)
        identity = config.identity()
        assert set(identity) == set(NON_DEFAULT) - RESUMABLE_FIELDS
        for f in dataclasses.fields(CampaignConfig):
            if f.name == "firmware":
                continue
            changed = dataclasses.replace(config, **{f.name: f.default})
            differs = changed.identity() != identity
            assert differs == (f.name not in RESUMABLE_FIELDS), f.name


class TestRetiredFields:
    """Retired knobs are dropped in one place, whatever their value."""

    @pytest.mark.parametrize("value", ["journal", "forkserver", "vmfork"])
    def test_from_json_and_campaign_config_drop_exec_mode(self, value):
        assert RETIRED_FIELDS == {"exec_mode"}
        plain = CampaignConfig("InfiniTime", budget=40)
        assert CampaignConfig.from_json(
            {"firmware": "InfiniTime", "budget": 40, "exec_mode": value}
        ) == plain
        assert campaign_config("InfiniTime", budget=40,
                               exec_mode=value) == plain
        assert campaign_config(plain, exec_mode=value) is plain
        assert validate_spec({"firmware": "InfiniTime", "budget": 40,
                              "exec_mode": value}) == plain.to_json()

    def test_fuzzer_constructors_accept_and_discard_exec_mode(self):
        from repro.fuzz.tardis import TardisFuzzer

        fuzzer = TardisFuzzer("InfiniTime", seed=1, exec_mode="journal")
        assert fuzzer.target.fork_server is not None


class TestRoundTrip:
    def test_every_knob_survives_cli_serve_wal_fleet_and_tcp(
            self, tmp_path, captured):
        expected = CampaignConfig(**NON_DEFAULT)
        # CLI: `repro submit` builds the spec from its flag table
        submit = build_parser().parse_args(
            ["submit", expected.firmware, "--connect", "127.0.0.1:1"]
            + _flag_argv(NON_DEFAULT, _subcommand_flags("submit")))
        spec = _campaign_config(submit, submit.firmware).to_json()
        # knobs the submit CLI does not expose ride in the raw spec
        for name in set(NON_DEFAULT) - set(spec):
            value = NON_DEFAULT[name]
            spec[name] = list(value) if isinstance(value, tuple) else value
        # serve admission, then the WAL: written, closed, replayed
        spec = validate_spec(json.loads(json.dumps(spec)))
        queue = JobQueue(str(tmp_path / "q"))
        queue.submit(spec)
        queue.close()
        queue = JobQueue(str(tmp_path / "q"))
        job = build_campaign_job(queue.lease("owner"), str(tmp_path / "ck"))
        queue.close()
        # fleet payload over the TCP frame codec, staged by the worker
        left, right = socket.socketpair()
        a, b = FrameStream(left), FrameStream(right)
        try:
            a.send(job.payload(attempt=1, heartbeat_interval=1.0))
            frame = b.recv(timeout=5.0)
        finally:
            a.close()
            b.close()
        _run_job(_stage_job(frame, str(tmp_path / "scratch")))
        (received, _kwargs), = captured
        assert received == expected
        assert received.identity() == expected.identity()

    def test_fuzz_cli_hands_run_campaign_its_flags(self, captured):
        names = _subcommand_flags("fuzz")
        assert main(["fuzz", NON_DEFAULT["firmware"]]
                    + _flag_argv(NON_DEFAULT, names)) == 0
        (received, _kwargs), = captured
        assert received == CampaignConfig(
            NON_DEFAULT["firmware"],
            **{name: NON_DEFAULT[name] for name in names})

    def test_sequential_fuzz_all_uses_the_job_runner(self, captured):
        names = _subcommand_flags("fuzz-all")
        assert main(["fuzz-all", "--firmware", "OpenWRT-armvirt",
                     "--firmware", "OpenHarmony-rk3566"]
                    + _flag_argv(NON_DEFAULT, names)) == 0
        knobs = {name: NON_DEFAULT[name] for name in names}
        assert [config for config, _ in captured] == [
            CampaignConfig(fw, **knobs)
            for fw in ("OpenWRT-armvirt", "OpenHarmony-rk3566")
        ]


def _subcommand_flags(name):
    """The campaign flags a subcommand declares, as config field names."""
    return list(_subcommand(name).get_default("campaign_flags"))


class TestArgparseSnapshot:
    """The campaign flags each subcommand exposes, with their defaults
    and choices: collapsing the flags into one table kept them all."""

    EXPECTED = {
        "fuzz": {
            "budget": (2000, None), "seed": (1, None),
            "faults": (None, None), "checkpoint_every": (0, None),
            "crash_budget": (None, None), "watchdog_insns": (None, None),
            "watchdog_cycles": (None, None),
            "seed_schedule": ("uniform", ["uniform", "rarity"]),
            "surface": ("syscall", ["syscall", "driver"]),
        },
        "fuzz-all": {
            "budget": (2000, None), "seed": (1, None),
            "faults": (None, None), "crash_budget": (None, None),
            "surface": ("syscall", ["syscall", "driver"]),
        },
        "submit": {
            "budget": (2000, None), "seed": (1, None),
            "faults": (None, None), "checkpoint_every": (0, None),
            "crash_budget": (None, None), "watchdog_insns": (None, None),
            "watchdog_cycles": (None, None),
            "surface": ("syscall", ["syscall", "driver"]),
        },
    }

    @pytest.mark.parametrize("command", sorted(EXPECTED))
    def test_campaign_flags_defaults_and_choices(self, command):
        parser = _subcommand(command)
        expected = self.EXPECTED[command]
        assert sorted(_subcommand_flags(command)) == sorted(expected)
        by_flag = {option: action for action in parser._actions
                   for option in action.option_strings}
        got = {}
        for name in expected:
            action = by_flag["--" + name.replace("_", "-")]
            assert action.dest == name
            got[name] = (action.default, None if action.choices is None
                         else list(action.choices))
        assert got == expected
