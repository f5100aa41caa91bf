"""Byte-identity tests for simulator checkpoints (:mod:`repro.sim.snapshot`).

The contract under test: a run forked from a mid-schedule checkpoint
produces the same outcomes, the same Metrics, and the same event-stream
fingerprint as the uncheckpointed run of the identical schedule.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.harness.runners import build_task_simulation
from repro.obs.events import ListSink
from repro.obs.jsonl import event_line
from repro.obs.replay import SchedulePrefixAdversary, schedule_of
from repro.sim import CheckpointError, capture, enable_recording


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


def _record_schedule(task, algorithm, adversary, n, seed):
    sink = ListSink()
    sim = build_task_simulation(
        task, algorithm, n, adversary=adversary, seed=seed, sink=sink
    )
    sim.run()
    return schedule_of(sink.events)


def _uncheckpointed(task, algorithm, schedule, n, seed):
    sink = ListSink()
    sim = build_task_simulation(
        task, algorithm, n,
        adversary=SchedulePrefixAdversary(schedule), seed=seed, sink=sink,
    )
    result = sim.run()
    return result, sink.events


def _checkpointed(task, algorithm, schedule, n, seed, cut):
    """Drive ``cut`` schedule entries, capture, fork, finish the suffix."""
    sink = ListSink()
    adversary = SchedulePrefixAdversary(schedule)
    sim = build_task_simulation(
        task, algorithm, n, adversary=adversary, seed=seed, sink=sink,
    )
    enable_recording(sim)
    adversary.setup(sim)
    while adversary._cursor < cut and sim.undecided:
        action = adversary.choose(sim)
        assert action is not None
        sim.execute(action)
    consumed = adversary._cursor
    checkpoint = capture(sim)
    prefix_events = list(sink.events)
    fork_sink = ListSink()
    forked = checkpoint.fork(
        SchedulePrefixAdversary(schedule[consumed:]), sink=fork_sink
    )
    result = forked.run()
    return result, prefix_events + fork_sink.events, checkpoint, consumed


CASES = [
    ("elect", "poison_pill", "random"),
    ("elect", "poison_pill", "eager"),
    ("elect", "tournament", "coin_aware"),
    ("sift", "heterogeneous", "quorum_split"),
    ("rename", "paper", "sequential"),
]


@pytest.mark.parametrize("task,algorithm,adversary", CASES)
@pytest.mark.parametrize("fraction", [3, 2])
def test_forked_run_is_byte_identical(task, algorithm, adversary, fraction):
    n, seed = 8, 11
    schedule = _record_schedule(task, algorithm, adversary, n, seed)
    assert len(schedule) > 8
    base_result, base_events = _uncheckpointed(task, algorithm, schedule, n, seed)
    cut = len(schedule) // fraction
    fork_result, fork_events, _, consumed = _checkpointed(
        task, algorithm, schedule, n, seed, cut
    )
    assert consumed >= cut
    assert fork_result.outcomes == base_result.outcomes
    assert fork_result.crashed == base_result.crashed
    assert fork_result.undecided == base_result.undecided
    assert _metrics_tuple(fork_result.metrics) == _metrics_tuple(base_result.metrics)
    assert _digest(fork_events) == _digest(base_events)


def test_checkpoint_forks_repeatedly():
    """One checkpoint must support many independent forks (ddmin reuse)."""
    n, seed = 8, 3
    schedule = _record_schedule("elect", "poison_pill", "random", n, seed)
    cut = len(schedule) // 2
    sink = ListSink()
    adversary = SchedulePrefixAdversary(schedule)
    sim = build_task_simulation(
        "elect", "poison_pill", n, adversary=adversary, seed=seed, sink=sink,
    )
    enable_recording(sim)
    adversary.setup(sim)
    while adversary._cursor < cut and sim.undecided:
        sim.execute(adversary.choose(sim))
    consumed = adversary._cursor
    checkpoint = capture(sim)
    digests = set()
    for _ in range(3):
        fork_sink = ListSink()
        forked = checkpoint.fork(
            SchedulePrefixAdversary(schedule[consumed:]), sink=fork_sink
        )
        result = forked.run()
        digests.add((_digest(fork_sink.events), tuple(sorted(result.outcomes))))
    assert len(digests) == 1


def test_forks_with_different_suffixes_diverge_independently():
    """Forks see their own state: divergent suffixes must not interfere."""
    n, seed = 8, 5
    schedule = _record_schedule("elect", "poison_pill", "eager", n, seed)
    cut = len(schedule) // 2
    adversary = SchedulePrefixAdversary(schedule)
    sim = build_task_simulation(
        "elect", "poison_pill", n, adversary=adversary, seed=seed,
    )
    enable_recording(sim)
    adversary.setup(sim)
    while adversary._cursor < cut and sim.undecided:
        sim.execute(adversary.choose(sim))
    consumed = adversary._cursor
    checkpoint = capture(sim)
    suffix = schedule[consumed:]
    full = checkpoint.fork(SchedulePrefixAdversary(suffix)).run()
    # Dropping half the suffix still completes (tolerant replay + fallback).
    truncated = checkpoint.fork(
        SchedulePrefixAdversary(suffix[: len(suffix) // 2])
    ).run()
    again = checkpoint.fork(SchedulePrefixAdversary(suffix)).run()
    assert full.outcomes == again.outcomes
    assert truncated.terminated


def test_fork_with_responders_matches_the_original_run():
    """Responders hold no coin stream; capture and fork must carry that."""
    n, k, seed = 12, 4, 4
    sink = ListSink()
    original = build_task_simulation(
        "elect", "poison_pill", n, k, adversary="random", seed=seed, sink=sink,
    )
    base = original.run()
    schedule = schedule_of(sink.events)
    adversary = SchedulePrefixAdversary(schedule)
    sim = build_task_simulation("elect", "poison_pill", n, k, adversary=adversary, seed=seed)
    enable_recording(sim)
    adversary.setup(sim)
    while adversary._cursor < len(schedule) // 2:
        sim.execute(adversary.choose(sim))
    assert sim.undecided and any(p.rng is None for p in sim.processes)
    checkpoint = capture(sim)
    forked = checkpoint.fork(SchedulePrefixAdversary(schedule[adversary._cursor:]))
    result = forked.run()
    assert [p.rng is None for p in forked.processes] == [
        not p.is_participant for p in original.processes
    ]
    assert result.decisions == base.decisions
    assert [list(p.coins.all()) for p in forked.processes] == [
        list(p.coins.all()) for p in original.processes
    ]


def test_capture_without_recording_raises():
    sim = build_task_simulation("elect", "poison_pill", 4, adversary="random", seed=0)
    adversary = sim.adversary
    adversary.setup(sim)
    for _ in range(4):
        sim.execute(next(adversary.actions(sim)))
    with pytest.raises(CheckpointError):
        capture(sim)


def test_enable_recording_rejects_started_run():
    sim = build_task_simulation("elect", "poison_pill", 4, adversary="random", seed=0)
    adversary = sim.adversary
    adversary.setup(sim)
    sim.execute(next(adversary.actions(sim)))
    with pytest.raises(CheckpointError):
        enable_recording(sim)
