"""Record/replay round trips: every adversary must replay byte-identically.

The determinism contract (ROADMAP E4, :mod:`repro.obs.replay`) is that a
trace — seed plus the recorded action schedule — fully determines a run.
These tests record a leader election under each registered adversary,
re-drive it with the :class:`SchedulePrefixAdversary`, and require the
rerun's event stream to match the recording byte for byte.
"""

from __future__ import annotations

import pytest

from repro.adversary import ADVERSARY_FACTORIES
from repro.check.invariants import PROTOCOLS, run_protocol
from repro.obs.jsonl import ArtifactError, iter_events
from repro.obs.replay import (
    ReplayError,
    SchedulePrefixAdversary,
    record_trace,
    replay_trace,
    schedule_of,
)


@pytest.mark.parametrize("adversary", sorted(ADVERSARY_FACTORIES))
def test_elect_replays_byte_identically(tmp_path, adversary):
    path = str(tmp_path / f"elect-{adversary}.jsonl")
    recorded = record_trace(path, task="elect", n=8, adversary=adversary, seed=3)
    assert recorded.events > 0
    report = replay_trace(path)
    assert report.ok, report.describe()
    assert report.recorded_events == recorded.events
    assert report.run.winner == recorded.run.winner


@pytest.mark.parametrize("spec", PROTOCOLS.values(), ids=lambda spec: spec.name)
def test_catalogue_row_replays(tmp_path, spec):
    path = str(tmp_path / f"{spec.name}.jsonl")
    recorded = record_trace(
        path, task=spec.task, n=8, algorithm=spec.algorithm,
        adversary="random", seed=1,
    )
    assert recorded.meta["algorithm"] == spec.algorithm
    report = replay_trace(path)
    assert report.ok, report.describe()


def test_replay_uses_recorded_schedule_not_fresh_randomness(tmp_path):
    # Record under the random adversary, then confirm the replay consumes
    # exactly the recorded schedule: every entry resolves, and the run
    # ends at the last one without a fallback action.
    path = str(tmp_path / "sched.jsonl")
    record_trace(path, task="elect", n=8, adversary="random", seed=9)
    schedule = schedule_of(iter_events(path))
    assert schedule, "a run must contain scheduling events"
    adversary = SchedulePrefixAdversary(schedule)
    run = run_protocol(PROTOCOLS["leader_election"], 8, None, adversary, 9)
    assert adversary.first_skip is None
    assert run.result.metrics.events_executed == len(schedule)
    report = replay_trace(path)
    assert report.ok


def test_tampered_trace_is_detected(tmp_path):
    path = str(tmp_path / "tampered.jsonl")
    record_trace(path, task="elect", n=8, adversary="sequential", seed=0)
    lines = open(path).read().splitlines()
    # Drop one non-scheduling event line from the middle of the stream:
    # the replay stream then has more events than the recording.
    victim = next(
        i for i, line in enumerate(lines[1:], start=1) if '"e":"coin.' in line
    )
    del lines[victim]
    open(path, "w").write("\n".join(lines) + "\n")
    report = replay_trace(path)
    assert not report.ok


def test_meta_header_required(tmp_path):
    path = tmp_path / "bare.jsonl"
    path.write_text('{"t":0,"e":"sched.step","p":0,"f":{}}\n')
    with pytest.raises(ArtifactError):
        replay_trace(str(path))


def test_unknown_task_rejected(tmp_path):
    with pytest.raises(ReplayError):
        record_trace(str(tmp_path / "x.jsonl"), task="nope", n=4)


@pytest.mark.parametrize("bad", [
    {"task": "nope"},
    {"algorithm": "bogus"},
    {"n": 0},
    {"adversary": "nope"},
], ids=lambda bad: next(iter(bad)))
def test_run_that_cannot_start_leaves_the_file_untouched(tmp_path, bad):
    path = tmp_path / "kept.jsonl"
    path.write_text("kept\n")
    with pytest.raises(ReplayError):
        record_trace(str(path), **{"n": 4, **bad})
    assert path.read_text() == "kept\n"
