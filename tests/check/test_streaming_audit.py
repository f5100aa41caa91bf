"""Tests for auditing a JSONL trace: ``iter_events`` fed to the checker.

The soak harness feeds episode traces through this path while the
writer may have died mid-line, so the malformed-stream cases must fail
with a clean one-line :class:`ArtifactError`, never a traceback from the
JSON machinery.
"""

from __future__ import annotations

import json

import pytest

from repro.check.streaming import StreamingChecker, StreamingViolation
from repro.obs.events import Event, EventType, feed
from repro.obs.jsonl import ArtifactError, event_line, iter_events


def audit_trace(path, task, fail_fast=True):
    """Stream the trace at ``path`` through a fresh checker; return it."""
    checker = StreamingChecker(task, fail_fast=fail_fast)
    feed(iter_events(path), checker)
    return checker


def write_trace(path, events, meta=None, tail=""):
    """Write a JSONL trace: optional meta line, events, raw ``tail`` text."""
    lines = []
    if meta is not None:
        lines.append(json.dumps({"meta": meta}))
    lines.extend(event_line(event) for event in events)
    with open(path, "w", encoding="utf-8") as fp:
        fp.write("\n".join(lines))
        if lines:
            fp.write("\n")
        fp.write(tail)
    return str(path)


def decide(time, pid, result):
    """One proc.decide event."""
    return Event(time, EventType.PROC_DECIDE, pid, {"result": result})


class TestCleanStreams:
    def test_clean_election_trace_passes(self, tmp_path):
        path = write_trace(tmp_path / "ok.jsonl", [
            decide(1, 0, "win"), decide(2, 1, "lose"),
        ], meta={"task": "elect"})
        checker = audit_trace(path, "elect")
        assert checker.events_checked == 2

    def test_violation_carries_the_event_index(self, tmp_path):
        path = write_trace(tmp_path / "bad.jsonl", [
            decide(1, 0, "win"), decide(2, 1, "win"),
        ], meta={"task": "elect"})
        with pytest.raises(StreamingViolation) as info:
            audit_trace(path, "elect")
        assert info.value.invariant == "unique_winner"
        assert info.value.event_index == 1


class TestMalformedStreams:
    def assert_one_liner(self, error):
        """The error message must be a single line naming the stream."""
        message = str(error)
        assert "\n" not in message
        assert "Traceback" not in message

    def test_truncated_last_line_is_clean_stream_error(self, tmp_path):
        # The writer died mid-write: the last line is half a JSON object.
        path = write_trace(
            tmp_path / "cut.jsonl",
            [decide(1, 0, "win")],
            meta={"task": "elect"},
            tail='{"t": 2, "e": "proc.decide", "p": 1, "f": {"res',
        )
        with pytest.raises(ArtifactError) as info:
            audit_trace(path, "elect")
        self.assert_one_liner(info.value)
        assert "line 3" in str(info.value)
        assert "truncated or interleaved" in str(info.value)

    def test_interleaved_writers_are_clean_stream_error(self, tmp_path):
        # Two writers raced on the same file: a line is two objects
        # spliced together.
        good = event_line(decide(1, 0, "win"))
        path = tmp_path / "race.jsonl"
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(good + "\n")
            fp.write(good[: len(good) // 2] + good + "\n")
        with pytest.raises(ArtifactError) as info:
            audit_trace(str(path), "elect")
        self.assert_one_liner(info.value)
        assert "line 2" in str(info.value)

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "list.jsonl"
        path.write_text('[1, 2, 3]\n', encoding="utf-8")
        with pytest.raises(ArtifactError) as info:
            audit_trace(str(path), "elect")
        self.assert_one_liner(info.value)

    def test_missing_event_keys_named(self, tmp_path):
        path = tmp_path / "keys.jsonl"
        path.write_text('{"t": 1, "e": "proc.decide"}\n', encoding="utf-8")
        with pytest.raises(ArtifactError) as info:
            audit_trace(str(path), "elect")
        self.assert_one_liner(info.value)
        assert "'f'" in str(info.value) and "'p'" in str(info.value)

    def test_fail_fast_off_collects_instead_of_raising(self, tmp_path):
        path = write_trace(tmp_path / "soft.jsonl", [
            decide(1, 0, "win"), decide(2, 1, "win"),
        ], meta={"task": "elect"})
        checker = audit_trace(path, "elect", fail_fast=False)
        assert any(
            violation.invariant == "unique_winner"
            for violation in checker.violations
        )


class TestLearnedClosureFromFile:
    """Claim 3.3's subset check must see a file-fed stream's Status puts.

    A stream read back from JSONL carries each ``HetStatus`` as its
    ``{"members": ..., "state": ...}`` mapping, not the NamedTuple.
    """

    def test_file_fed_fold_tracks_the_live_members(self, tmp_path):
        from repro.check.invariants import INVARIANTS
        from repro.harness.runners import run_sifting_phase
        from repro.obs.events import ListSink
        from repro.obs.jsonl import write_events

        sink = ListSink()
        run_sifting_phase(
            n=8, kind="heterogeneous", adversary="random", seed=1, sink=sink
        )
        path = str(tmp_path / "het.jsonl")
        write_events(path, sink.events)
        folds = []
        for events in (sink.events, iter_events(path)):
            fold = INVARIANTS["learned_closure"].fold(8)
            for event in events:
                assert fold.observe(event) is None
            folds.append(fold)
        live, file_fed = folds
        assert len(live._members) == 8
        assert file_fed._members == live._members

    def test_forged_learned_set_is_reported_from_file(self, tmp_path):
        # p2's Status lists p5, so an L set of p2 alone omits p5.
        path = write_trace(tmp_path / "forged.jsonl", [
            Event(1, EventType.REG_PUT, 2, {
                "var": "hpp.Status", "key": 2,
                "value": {"members": (1 << 2) | (1 << 5), "state": "low"},
            }),
            Event(2, EventType.REG_PUT, 2, {
                "var": "hpp.learned", "key": 2, "value": 1 << 2,
            }),
        ], meta={"task": "sift"})
        with pytest.raises(StreamingViolation) as info:
            audit_trace(path, "sift")
        assert info.value.invariant == "learned_closure"
        assert "omits [5]" in str(info.value)
        assert info.value.event_index == 1
