"""Aggregator rollups validated against the simulator's internal state.

The critical invariant: survivor curves derived from the event stream
must equal the round loop's own record of each sifting outcome — the
``le.round_outcome`` register every participant writes locally (never
propagated) as it exits a round.
"""

from __future__ import annotations

import pytest

from repro.adversary import ADVERSARY_FACTORIES
from repro.core import Outcome, make_leader_elect
from repro.obs.aggregate import TraceAggregator
from repro.obs.events import Event, EventType, ListSink, MultiSink, feed
from repro.obs.metrics import MetricsSink
from repro.sim.runtime import Simulation


def _run_election(n: int, seed: int, sink) -> Simulation:
    factory = make_leader_elect()
    sim = Simulation(
        n=n,
        participants={pid: factory for pid in range(n)},
        adversary=ADVERSARY_FACTORIES["random"](seed=seed),
        seed=seed,
        sink=sink,
    )
    sim.run()
    return sim


def _ground_truth(sim: Simulation) -> tuple[dict[int, int], dict[int, int]]:
    """Per-round survive/die counts from the ``le.round_outcome`` registers."""
    survived: dict[int, int] = {}
    died: dict[int, int] = {}
    for process in sim.processes:
        r = 1
        while True:
            outcome = process.registers.get("le.round_outcome", r)
            if outcome is None:
                break
            bucket = survived if outcome is Outcome.SURVIVE else died
            bucket[r] = bucket.get(r, 0) + 1
            r += 1
    return survived, died


@pytest.mark.parametrize("n", [8, 32])
@pytest.mark.parametrize("seed", range(5))
def test_survivor_curve_matches_round_loop_internals(n, seed):
    aggregator = TraceAggregator()
    sim = _run_election(n, seed, aggregator)
    survived, died = _ground_truth(sim)
    # The aggregator also sees rounds no register records — the eventual
    # winner's final PreRound ends the loop before any sifting outcome is
    # written — so compare on the rounds the round loop itself completed.
    curve = aggregator.survivors_by_round()
    assert {r: count for r, count in curve.items() if count} == survived
    by_round = {stats.round: stats for stats in aggregator.survivor_curve()}
    assert {r: stats.died for r, stats in by_round.items() if stats.died} == died
    # Every processor that completed round r (survive or die) shows up.
    for r, stats in by_round.items():
        assert stats.completed == survived.get(r, 0) + died.get(r, 0)


def test_phase_stats_match_round_exits():
    aggregator = TraceAggregator()
    _run_election(16, 2, aggregator)
    # Each hpp namespace's survive count equals the matching round's.
    survivors = aggregator.survivors_by_round()
    for stats in aggregator.phase_stats():
        assert stats.kind == "hpp"
        round_index = int(stats.namespace.removeprefix("le.hpp"))
        assert stats.survived == survivors.get(round_index, 0)
        assert stats.entered >= stats.survived + stats.died


def test_message_histogram_and_comm_calls_match_metrics():
    aggregator = TraceAggregator()
    sim = _run_election(8, 0, aggregator)
    metrics = sim.metrics
    assert aggregator.messages_total == metrics.messages_total
    assert aggregator.max_comm_calls == metrics.max_comm_calls
    assert aggregator.comm_calls_by == {
        pid: count
        for pid, count in enumerate(metrics.comm_calls_by)
        if count
    }


def test_decisions_and_report_render():
    aggregator = TraceAggregator()
    sim = _run_election(8, 1, aggregator)
    outcomes = aggregator.outcome_histogram()
    assert outcomes.get("win") == 1
    assert outcomes.get("lose") == 7
    assert len(aggregator.decisions) == 8
    text = aggregator.report(title="t")
    assert "per-round survivors" in text
    assert "messages by kind" in text
    summary = aggregator.comm_duration_summary()
    assert summary is not None and summary.mean > 0
    assert aggregator.comm_timeline(0) == aggregator.comm_durations_by.get(0, [])


def test_every_call_gets_one_duration():
    """Both sinks pair each comm.call with its own comm.done."""
    aggregator, telemetry = TraceAggregator(), MetricsSink()
    _run_election(16, 0, MultiSink(aggregator, telemetry))
    durations = {pid: len(d) for pid, d in aggregator.comm_durations_by.items()}
    assert durations == aggregator.comm_calls_by
    snapshot = telemetry.registry.snapshot()
    histogram = snapshot["histograms"]["comm.duration_ticks"]
    assert histogram["count"] == snapshot["counters"]["comm.calls"]


def test_streaming_equals_batch():
    sink, streamed = ListSink(), TraceAggregator()
    _run_election(8, 4, MultiSink(sink, streamed))
    batch = TraceAggregator()
    feed(sink.events, batch)
    assert streamed.survivors_by_round() == batch.survivors_by_round()
    assert streamed.message_histogram == batch.message_histogram
    assert streamed.events_seen == batch.events_seen == len(sink.events)


def test_preround_tallies():
    event = Event(0, EventType.PREROUND, 3, {"round": 2, "verdict": "win"})
    aggregator = TraceAggregator()
    feed([event], aggregator)
    (stats,) = aggregator.survivor_curve()
    assert (stats.round, stats.entered, stats.preround_wins) == (2, 1, 1)
