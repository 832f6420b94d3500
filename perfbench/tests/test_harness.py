"""Tests of the benchmark harness itself (not of the program).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import layertrace  # noqa: E402
import refclock  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402

#: smallest catalog firmware: campaigns of a few dozen execs take ~1 s
SMALL = workloads.Workload(
    "small", "InfiniTime", "syscall", budget=90, census=0, chunk=90,
    nominal_campaign_s=1.0)


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ----------------------------------------------------------------------
# nested self-time accounting
# ----------------------------------------------------------------------
def test_nested_self_time_excludes_children():
    clock = FakeClock()
    spans = layertrace.SpanStack(clock)

    def leaf():
        clock.now += 1.0

    timed_leaf = spans.timed("leaf", leaf)

    def middle():
        clock.now += 2.0
        timed_leaf()
        timed_leaf()
        clock.now += 0.5

    timed_middle = spans.timed("middle", middle)
    spans.start()
    clock.now += 0.25
    timed_middle()
    spans.stop()

    assert spans.self_s["leaf"] == pytest.approx(2.0)
    assert spans.self_s["middle"] == pytest.approx(2.5)
    assert spans.self_s["harness"] == pytest.approx(0.25)
    assert spans.calls == {"leaf": 2, "middle": 1}
    assert sum(spans.self_s.values()) == pytest.approx(spans.wall_s)


def test_recursive_span_counts_each_level_once():
    clock = FakeClock()
    spans = layertrace.SpanStack(clock)

    def recurse(depth):
        clock.now += 1.0
        if depth:
            timed(depth - 1)

    timed = spans.timed("rec", recurse)
    spans.start()
    timed(3)
    spans.stop()
    assert spans.self_s["rec"] == pytest.approx(4.0)
    assert spans.wall_s == pytest.approx(4.0)


def test_span_closes_on_exception_and_tallies_results():
    clock = FakeClock()
    spans = layertrace.SpanStack(clock)

    def boom():
        clock.now += 1.0
        raise ValueError("guest fault")

    def steps():
        clock.now += 1.0
        return 7

    spans.start()
    with pytest.raises(ValueError):
        spans.timed("boom", boom)()
    spans.timed("isa", steps,
                lambda counts, n: counts.__setitem__("insns", n))()
    spans.stop()
    assert spans.self_s["boom"] == pytest.approx(1.0)
    assert spans.counts["insns"] == 7
    assert spans.wall_s == pytest.approx(2.0)


# ----------------------------------------------------------------------
# reference-clock arithmetic
# ----------------------------------------------------------------------
def test_to_reference_divides_by_mean_of_flanking_loops():
    nominal = refclock.NOMINAL_LOOP_S
    # the host ran at half speed: loops took twice the nominal time
    assert refclock.to_reference(4.0, 2 * nominal, 2 * nominal) == \
        pytest.approx(2.0)
    # a speed change mid-interval uses the mean of both sides
    assert refclock.to_reference(3.0, nominal, 2 * nominal) == \
        pytest.approx(2.0)
    with pytest.raises(ValueError):
        refclock.to_reference(1.0, 0.0, 0.0)


def test_refclock_intervals_share_loops():
    clock = refclock.RefClock(buffer_bytes=1 << 16, iters=200)
    result, ref_s, wall_s = clock.interval(lambda: 42)
    clock.interval(lambda: None)
    assert result == 42
    assert ref_s >= 0 and wall_s >= 0
    # one loop before the first interval, one after each interval
    assert len(clock.loops) == 3
    stats = clock.loop_stats()
    assert stats["min_s"] <= stats["median_s"] <= stats["max_s"]


def test_reference_buffer_must_be_power_of_two():
    with pytest.raises(ValueError):
        refclock.make_buffer(3000)


# ----------------------------------------------------------------------
# chunked fuzzing follows the single-call trajectory
# ----------------------------------------------------------------------
def test_chunked_run_matches_single_run_and_run_campaign():
    single = workloads.run_campaign_chunked(SMALL, seed=3)
    chunked = workloads.run_campaign_chunked(SMALL, seed=3, chunk=7)
    assert chunked.digest == single.digest
    assert chunked.totals == single.totals
    assert chunked.coverage == single.coverage
    assert workloads.reference_digest(SMALL, 3) == single.digest


def test_seeds_are_deterministic_and_distinct():
    assert workloads.campaign_seeds(5, 4) == workloads.campaign_seeds(5, 4)
    assert workloads.campaign_seeds(5, 4) != workloads.campaign_seeds(6, 4)
    assert len(set(workloads.campaign_seeds(5, 8))) == 8


# ----------------------------------------------------------------------
# wrappers stay transparent to handler identity
# ----------------------------------------------------------------------
def _sanitizer_like(calls):
    def handler(payload):
        calls.append(payload)

    handler.__module__ = "repro.sanitizers.fake"
    return handler


def test_hook_wrapper_keeps_remove_working():
    from repro.emulator.events import EventKind
    from repro.emulator.hooks import HookRegistry

    original_add = HookRegistry.__dict__["add"]
    spans = layertrace.SpanStack()
    undo = layertrace.install(spans)
    try:
        spans.start()
        registry = HookRegistry()
        calls = []
        handler = _sanitizer_like(calls)
        assert registry.add(EventKind.VMCALL, handler) is handler
        registry.emit(EventKind.VMCALL, "event")
        assert calls == ["event"]
        assert spans.calls["sanitizers.handler"] == 1
        registry.remove(EventKind.VMCALL, handler)
        assert not registry.has_handlers(EventKind.VMCALL)
        # a handler the table does not know is left alone, as before
        registry.remove(EventKind.VMCALL, handler)
        spans.stop()
    finally:
        undo()
    assert HookRegistry.__dict__["add"] is original_add


def test_probe_wrapper_keeps_remove_working():
    from repro.isa.tcg import TcgEngine
    from repro.mem.bus import MemoryBus

    original_add = TcgEngine.__dict__["add_mem_probe"]
    spans = layertrace.SpanStack()
    undo = layertrace.install(spans)
    try:
        engine = TcgEngine(MemoryBus())
        probe = _sanitizer_like([])
        engine.add_mem_probe(probe)
        assert len(engine._mem_probes) == 1
        assert engine._mem_probes[0] is not probe
        engine.remove_mem_probe(probe)
        assert engine._mem_probes == ()
    finally:
        undo()
    assert TcgEngine.__dict__["add_mem_probe"] is original_add


def test_traced_campaign_self_times_add_up_and_match_digest():
    untraced = workloads.run_campaign_chunked(SMALL, seed=4)
    spans = layertrace.SpanStack()
    undo = layertrace.install(spans)
    try:
        spans.start()
        traced = workloads.run_campaign_chunked(SMALL, seed=4)
        spans.stop()
    finally:
        undo()
    assert traced.digest == untraced.digest
    metrics = bench_run._layer_metrics(spans, traced, 1.0, 1.0)
    # every span name maps to a reported metric: the sum is the wall
    assert bench_run.self_time_sum(metrics) == \
        pytest.approx(spans.wall_s, rel=1e-6)
    assert metrics["fuzz.generate_calls"]["value"] > 0
    assert metrics["reset.restores"]["value"] > 0
    assert metrics["periph.dma_descriptors"]["value"] == 0
