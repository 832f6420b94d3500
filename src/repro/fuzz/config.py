"""One frozen record of every campaign knob.

A campaign is one firmware fuzzed by its designated fuzzer;
:class:`CampaignConfig` is everything that decides its trajectory.
Each knob is declared here once, with its code default
and its value check, and every hop a campaign takes — the CLI, a serve
spec, the WAL, a fleet job payload, a TCP job frame — carries the same
record through one JSON codec (:meth:`CampaignConfig.to_json` /
:meth:`CampaignConfig.from_json`) instead of retyping the knobs.

Adding a knob means touching this module, the CLI flag table
(``repro.cli``) and the knob's consumer (usually
:func:`repro.fuzz.campaign.run_campaign`); no fleet, serve or transport
hop needs to know about it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields, replace
from typing import Optional, Tuple

from repro.errors import FuzzerError

#: target reset strategies: per-program journal + rebuild-per-refresh,
#: or a golden fork-server snapshot with dirty-page delta restores
EXEC_MODES = ("journal", "forkserver")
#: fuzz surfaces a frontend can target: the default syscall/task API,
#: or the driver-op surface of a driver=True build (modeled peripherals)
SURFACES = ("syscall", "driver")
#: corpus seed selection: the uniform draw, or rarity/energy weighting
SEED_SCHEDULES = ("uniform", "rarity")

#: the enumerated knobs and their allowed values
CHOICES = {
    "exec_mode": EXEC_MODES,
    "surface": SURFACES,
    "seed_schedule": SEED_SCHEDULES,
}

#: checkpoint cadence a ``checkpoint_every`` of 0 resolves to; matches
#: the engine's refresh interval so checkpoint boundaries align with
#: refreshes the campaign performs anyway
DEFAULT_CHECKPOINT_EVERY = 500

#: knobs a resumed checkpoint may change: a resume may extend the
#: budget, and the exec mode never changes outcomes
RESUMABLE_FIELDS = frozenset({"budget", "exec_mode"})


@dataclass(frozen=True)
class CampaignConfig:
    """Every knob of one campaign; deeply immutable and checked on build.

    ``seeds`` turns the campaign into a repeated one (every seed in
    order, findings merged; see :func:`repro.fuzz.campaign.run_campaign`)
    whose fault plan is seeded from ``seed``.  ``faults`` is the
    fault-plan DSL string (:meth:`repro.emulator.faults.FaultPlan.parse`);
    its own ``seed=N`` clause overrides the campaign seed for the plan.
    ``sanitizers=None`` selects the catalog's sanitizers for the
    firmware.  ``shard=(index, count)`` makes the campaign one shard of
    an intra-firmware fleet.
    """

    firmware: str
    #: fuzz executions (our stand-in for the paper's 7-day budget)
    budget: int = 1500
    seed: int = 0
    seeds: Optional[Tuple[int, ...]] = None
    sanitizers: Optional[Tuple[str, ...]] = None
    faults: Optional[str] = None
    #: host-level crashes tolerated before the campaign degrades
    crash_budget: int = 25
    #: per-program watchdog budgets; generous (3+ orders of magnitude
    #: above a normal program) so only a genuinely wedged guest trips
    watchdog_insns: int = 2_000_000
    watchdog_cycles: float = 5_000_000
    #: the enumerated knobs default to the first of their :data:`CHOICES`
    seed_schedule: str = SEED_SCHEDULES[0]
    exec_mode: str = EXEC_MODES[0]
    surface: str = SURFACES[0]
    #: execs between checkpoints (0 = :data:`DEFAULT_CHECKPOINT_EVERY`)
    checkpoint_every: int = 0
    shard: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        _check("firmware", self.firmware, str)
        for name, minimum in (("budget", 1), ("seed", None),
                              ("crash_budget", 1), ("watchdog_insns", 1),
                              ("checkpoint_every", 0)):
            _check(name, getattr(self, name), int, minimum)
        _check("watchdog_cycles", self.watchdog_cycles, (int, float), 1)
        for name in CHOICES:
            check_choice(name, getattr(self, name))
        # freeze nested sequences so the record is deeply immutable
        for name, kind in (("seeds", int), ("sanitizers", str),
                           ("shard", int)):
            value = getattr(self, name)
            if value is None:
                continue
            if not isinstance(value, (list, tuple)) or not value:
                raise FuzzerError(
                    f"{name} must be a non-empty list, got {value!r}")
            for item in value:
                _check(name, item, kind)
            object.__setattr__(self, name, tuple(value))
        if self.shard is not None:
            check_shard(self.shard)
        if self.faults == "":
            object.__setattr__(self, "faults", None)
        if self.faults is not None:
            from repro.emulator.faults import FaultPlanError, plan_for

            _check("faults", self.faults, str)
            try:
                plan_for(self.faults)
            except FaultPlanError as exc:
                raise FuzzerError(f"faults: {exc}") from None

    # ------------------------------------------------------------------
    # JSON codec
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """The knobs that differ from their code defaults, JSON-ready."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "firmware" or value != f.default:
                out[f.name] = list(value) if isinstance(value, tuple) \
                    else value
        return out

    @classmethod
    def from_json(cls, data, *, ignore_unknown: bool = False
                  ) -> "CampaignConfig":
        """Decode (and check) a :meth:`to_json` object.

        Unknown keys are refused unless ``ignore_unknown`` — the serve
        daemon replays WAL specs an older daemon admitted, which may
        carry retired knobs.
        """
        if not isinstance(data, dict):
            raise FuzzerError(
                f"spec must be an object, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown and not ignore_unknown:
            raise FuzzerError(f"unknown spec fields: {', '.join(unknown)}")
        if "firmware" not in data:
            raise FuzzerError("firmware must be a non-empty string")
        return cls(**{k: v for k, v in data.items() if k in known})

    # ------------------------------------------------------------------
    def identity(self) -> dict:
        """Per-field digests of every knob that fixes the trajectory.

        Checkpoints store this so a resume under a changed knob is
        refused instead of silently producing a different campaign;
        :data:`RESUMABLE_FIELDS` are left out.  Callers digest the
        *resolved* config (sanitizers and checkpoint cadence filled in).
        """
        # 5e6 and 5e6.0 are the same watchdog budget
        values = dict(asdict(self),
                      watchdog_cycles=float(self.watchdog_cycles))
        return {
            name: hashlib.sha256(
                json.dumps(value, sort_keys=True).encode()
            ).hexdigest()[:16]
            for name, value in values.items()
            if name not in RESUMABLE_FIELDS
        }


def campaign_config(firmware, **knobs) -> CampaignConfig:
    """A config from a firmware name and knobs, or a config plus
    overrides (derived with :func:`dataclasses.replace`)."""
    if isinstance(firmware, CampaignConfig):
        return replace(firmware, **knobs) if knobs else firmware
    return CampaignConfig(firmware, **knobs)


def check_choice(name: str, value) -> None:
    """Refuse a value outside an enumerated knob's :data:`CHOICES`."""
    allowed = CHOICES[name]
    if value not in allowed:
        raise FuzzerError(f"unknown {name.replace('_', ' ')} {value!r} "
                          f"(expected one of {', '.join(allowed)})")


def check_shard(shard) -> None:
    """Refuse a ``shard`` other than ``(index, count)``, index < count."""
    if len(shard) != 2 or not 0 <= shard[0] < shard[1]:
        raise FuzzerError(f"shard must be (index, count) with "
                          f"0 <= index < count, got {shard!r}")


_KINDS = {int: "an integer", str: "a non-empty string",
          (int, float): "a number"}


def _check(name: str, value, kind, minimum=None) -> None:
    """Refuse a value of the wrong type (a bool is no number), an empty
    string, or a number below ``minimum``."""
    if not isinstance(value, kind) or isinstance(value, bool) \
            or value == "" or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise FuzzerError(
            f"{name} must be {_KINDS[kind]}{bound}, got {value!r}")
