"""Replay from tick 0 reaches every state of a run.

A run is a pure function of ``(seed, schedule)``: re-driving the
recorded schedule from tick 0 with a :class:`SchedulePrefixAdversary`
reproduces the original state after every action, and a schedule's
prefix reproduces the original run up to its cut before the fallback
completes it.  The shrinker, the explorer and ``repro replay`` reach
intermediate states this way, with no checkpoint to fork from.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.harness.runners import build_task_simulation
from repro.obs.events import SCHEDULE_EVENT_TYPES, ListSink
from repro.obs.jsonl import event_line
from repro.obs.replay import SchedulePrefixAdversary, schedule_of


def _digest(events) -> str:
    digest = hashlib.sha256()
    for event in events:
        digest.update(event_line(event).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def _metrics_tuple(metrics):
    return (
        metrics.messages_total,
        dict(metrics.messages_by_kind),
        list(metrics.messages_sent_by),
        list(metrics.comm_calls_by),
        metrics.payload_cells,
        metrics.deliveries,
        metrics.steps,
        metrics.crashes,
        metrics.events_executed,
    )


def _record(task, algorithm, adversary, n, seed, k=None):
    sink = ListSink()
    sim = build_task_simulation(
        task, algorithm, n, k, adversary=adversary, seed=seed, sink=sink
    )
    result = sim.run()
    return sim, result, sink.events


def _rerun(task, algorithm, schedule, n, seed, k=None):
    sink = ListSink()
    adversary = SchedulePrefixAdversary(schedule)
    sim = build_task_simulation(
        task, algorithm, n, k, adversary=adversary, seed=seed, sink=sink
    )
    result = sim.run()
    return sim, result, sink.events, adversary


def _states_by_tick(sim):
    """Drive ``sim`` by hand; its metrics after every executed action."""
    adversary = sim.adversary
    adversary.setup(sim)
    states = []
    for action in adversary.actions(sim):
        if action is None or not sim.undecided:
            break
        sim.execute(action)
        states.append(_metrics_tuple(sim.metrics))
    return states


CASES = [
    ("elect", "poison_pill", "random"),
    ("elect", "poison_pill", "eager"),
    ("elect", "tournament", "coin_aware"),
    ("sift", "heterogeneous", "quorum_split"),
    ("rename", "paper", "sequential"),
]


@pytest.mark.parametrize("task,algorithm,adversary", CASES)
@pytest.mark.parametrize("fraction", [3, 2])
def test_prefix_rerun_matches_up_to_the_cut(task, algorithm, adversary, fraction):
    n, seed = 8, 11
    _, base_result, base_events = _record(task, algorithm, adversary, n, seed)
    schedule = schedule_of(base_events)
    assert len(schedule) > 8

    # The whole schedule, from tick 0, is the original run byte for byte.
    _, full_result, full_events, full_adv = _rerun(task, algorithm, schedule, n, seed)
    assert full_adv.first_skip is None
    assert full_result.outcomes == base_result.outcomes
    assert full_result.crashed == base_result.crashed
    assert full_result.undecided == base_result.undecided
    assert _metrics_tuple(full_result.metrics) == _metrics_tuple(base_result.metrics)
    assert _digest(full_events) == _digest(base_events)

    # A prefix reproduces every event up to the cut, then completes.
    cut = len(schedule) // fraction
    _, prefix_result, prefix_events, prefix_adv = _rerun(
        task, algorithm, schedule[:cut], n, seed
    )
    assert prefix_adv.first_skip is None
    assert prefix_result.terminated
    positions = [
        i for i, event in enumerate(base_events)
        if event.etype in SCHEDULE_EVENT_TYPES
    ]
    upto = positions[cut]
    assert [event_line(e) for e in prefix_events[:upto]] == [
        event_line(e) for e in base_events[:upto]
    ]
    assert schedule_of(prefix_events)[:cut] == schedule[:cut]


@pytest.mark.parametrize("task,algorithm,adversary", CASES)
def test_state_after_every_action_is_reproduced(task, algorithm, adversary):
    n, seed = 8, 7
    _, _, events = _record(task, algorithm, adversary, n, seed)
    schedule = schedule_of(events)
    original = build_task_simulation(task, algorithm, n, adversary=adversary, seed=seed)
    rerun = build_task_simulation(
        task, algorithm, n, adversary=SchedulePrefixAdversary(schedule), seed=seed
    )
    original_states = _states_by_tick(original)
    assert len(original_states) == len(schedule)
    assert _states_by_tick(rerun) == original_states
    assert rerun.adversary.first_skip is None
    assert [list(p.coins.all()) for p in rerun.processes] == [
        list(p.coins.all()) for p in original.processes
    ]


def test_repeated_reruns_agree():
    """Every rerun of one schedule is the same run (the shrinker's reuse)."""
    n, seed = 8, 3
    _, base, events = _record("elect", "poison_pill", "random", n, seed)
    schedule = schedule_of(events)
    runs = set()
    for _ in range(3):
        _, result, rerun_events, _ = _rerun("elect", "poison_pill", schedule, n, seed)
        runs.add((_digest(rerun_events), tuple(sorted(result.outcomes))))
    assert runs == {(_digest(events), tuple(sorted(base.outcomes)))}


def test_truncated_schedule_does_not_disturb_later_reruns():
    n, seed = 8, 5
    _, base, events = _record("elect", "poison_pill", "eager", n, seed)
    schedule = schedule_of(events)
    _, full, _, _ = _rerun("elect", "poison_pill", schedule, n, seed)
    # Dropping half the schedule still completes (tolerant replay + fallback).
    _, truncated, _, truncated_adv = _rerun(
        "elect", "poison_pill", schedule[: len(schedule) // 2], n, seed
    )
    _, again, again_events, _ = _rerun("elect", "poison_pill", schedule, n, seed)
    assert truncated.terminated
    assert truncated_adv.first_skip is None
    assert full.outcomes == again.outcomes == base.outcomes
    assert _digest(again_events) == _digest(events)


def test_rerun_with_responders_matches_the_original_run():
    """Responders hold no coin stream; a rerun keeps it that way."""
    n, k, seed = 12, 4, 4
    original, base, events = _record("elect", "poison_pill", "random", n, seed, k=k)
    assert any(p.rng is None for p in original.processes)
    rerun, result, rerun_events, _ = _rerun(
        "elect", "poison_pill", schedule_of(events), n, seed, k=k
    )
    assert [p.rng is None for p in rerun.processes] == [
        not p.is_participant for p in original.processes
    ]
    assert result.decisions == base.decisions
    assert [list(p.coins.all()) for p in rerun.processes] == [
        list(p.coins.all()) for p in original.processes
    ]
    assert _digest(rerun_events) == _digest(events)
