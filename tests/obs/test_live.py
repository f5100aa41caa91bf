"""Tests for the live snapshot stream: writer, sink, readers, and tailing.

The stream contract: a canonical meta header, one canonical JSON
snapshot line per cadence tick, and an end marker — flushed per line so
another process can tail it mid-run.  Simulator-side snapshots carry
only logical-clock quantities, so for a fixed seed the whole stream must
be byte-identical across runs (the acceptance criterion for attaching
telemetry without losing determinism).
"""

from __future__ import annotations

import io
import json
import threading

import pytest

from repro.harness.runners import run_leader_election
from repro.obs.events import Event, EventType, RingBufferSink
from repro.obs.live import (
    LiveTelemetry,
    SnapshotWriter,
    follow_snapshots,
    read_snapshots,
    render_snapshot,
)


def _record_stream(path: str, seed: int = 5) -> str:
    """Run one seeded election with live telemetry; return the stream text."""
    telemetry = LiveTelemetry(str(path), meta={"task": "elect", "seed": seed})
    try:
        run_leader_election(
            n=16, adversary="random", seed=seed, sink=telemetry,
        )
    finally:
        telemetry.close()
    with open(path, "r", encoding="utf-8") as fp:
        return fp.read()


class TestSnapshotWriter:
    """Line discipline: canonical JSON, meta first, end marker last."""

    def test_lines_are_canonical_and_ordered(self):
        buffer = io.StringIO()
        writer = SnapshotWriter(buffer, meta={"task": "elect"})
        writer.write_snapshot(10, {"counters": {"a": 1}})
        writer.write_snapshot(20, {"counters": {"a": 2}})
        writer.write_end(20)
        lines = buffer.getvalue().splitlines()
        assert json.loads(lines[0])["meta"]["task"] == "elect"
        assert json.loads(lines[0])["meta"]["snapshot_format"] == 1
        assert [json.loads(line).get("seq") for line in lines[1:3]] == [1, 2]
        assert json.loads(lines[3])["end"] == {"clock": 20, "snapshots": 2}
        for line in lines:
            assert line == json.dumps(
                json.loads(line), sort_keys=True, separators=(",", ":")
            )

    def test_path_target_is_opened_and_closed(self, tmp_path):
        path = tmp_path / "s.jsonl"
        writer = SnapshotWriter(str(path))
        writer.write_snapshot(1, {})
        writer.close()
        meta, snapshots, end = read_snapshots(str(path))
        assert meta == {"snapshot_format": 1}
        assert len(snapshots) == 1 and end is None


class TestLiveTelemetry:
    """Cadence, determinism, and the ring-dropped counter."""

    def test_stream_is_deterministic_for_fixed_seed(self, tmp_path):
        first = _record_stream(tmp_path / "a.jsonl")
        second = _record_stream(tmp_path / "b.jsonl")
        assert first == second
        assert first  # non-empty: at least meta + final snapshot + end

    def test_snapshot_per_round_plus_final(self, tmp_path):
        path = str(tmp_path / "rounds.jsonl")
        _record_stream(path)
        _, snapshots, end = read_snapshots(path)
        rounds = [
            snap["metrics"]["gauges"].get("sim.round") for snap in snapshots
        ]
        # One snapshot per completed round plus the final close() one;
        # the round gauge must be non-decreasing along the stream.
        assert rounds == sorted(rounds)
        assert end is not None and end["snapshots"] == len(snapshots)

    def test_every_events_fallback_cadence(self):
        buffer = io.StringIO()
        telemetry = LiveTelemetry(buffer, every_events=3)
        for time in range(1, 8):
            telemetry.emit(Event(time, EventType.SCHED_STEP, 0, {}))
        telemetry.close()
        lines = [json.loads(l) for l in buffer.getvalue().splitlines()]
        snapshots = [obj for obj in lines if "metrics" in obj]
        # 7 events at every_events=3 -> ticks at 3 and 6, plus the final.
        assert [snap["clock"] for snap in snapshots] == [3, 6, 7]

    def test_every_events_must_be_positive(self):
        with pytest.raises(ValueError):
            LiveTelemetry(io.StringIO(), every_events=0)

    def test_ring_dropped_counter_surfaces_in_snapshots(self):
        # Satellite: bounded-buffer telemetry loss is visible, not silent.
        ring = RingBufferSink(capacity=2)
        buffer = io.StringIO()
        telemetry = LiveTelemetry(buffer, ring=ring)
        for time in range(5):
            event = Event(time, EventType.SCHED_STEP, 0, {})
            ring.emit(event)
            telemetry.emit(event)
        telemetry.close()
        assert ring.dropped == 3
        last = [json.loads(l) for l in buffer.getvalue().splitlines()][-2]
        assert last["metrics"]["counters"]["obs.ring_dropped"] == 3

    def test_close_is_idempotent(self):
        buffer = io.StringIO()
        telemetry = LiveTelemetry(buffer)
        telemetry.close()
        telemetry.close()
        lines = buffer.getvalue().splitlines()
        assert sum(1 for l in lines if "end" in json.loads(l)) == 1


class TestReaders:
    """read_snapshots, follow_snapshots, and the renderer."""

    def test_read_snapshots_rejects_non_snapshot_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"meta":{}}\n{"seq":1,"clock":2}\n')
        with pytest.raises(ValueError, match="missing 'metrics'"):
            read_snapshots(str(path))

    def test_follow_reads_through_end_marker(self, tmp_path):
        path = str(tmp_path / "f.jsonl")
        _record_stream(path)
        objects = list(follow_snapshots(path, poll_interval=0.01, timeout=5))
        assert "meta" in objects[0]
        assert "end" in objects[-1]
        assert all("metrics" in obj for obj in objects[1:-1])

    def test_follow_times_out_without_end_marker(self, tmp_path):
        path = tmp_path / "stalled.jsonl"
        path.write_text('{"meta":{}}\n')
        with pytest.raises(TimeoutError):
            list(follow_snapshots(str(path), poll_interval=0.01, timeout=0.05))

    def test_follow_sees_lines_written_while_tailing(self, tmp_path):
        path = str(tmp_path / "tail.jsonl")
        writer = SnapshotWriter(path, meta={})

        def produce() -> None:
            for clock in (1, 2):
                writer.write_snapshot(clock, {"counters": {}})
            writer.write_end(2)
            writer.close()

        thread = threading.Timer(0.05, produce)
        thread.start()
        try:
            objects = list(
                follow_snapshots(path, poll_interval=0.01, timeout=5)
            )
        finally:
            thread.join()
        assert [obj.get("clock") for obj in objects if "seq" in obj] == [1, 2]
        assert "end" in objects[-1]

    def test_render_snapshot_mentions_every_section(self):
        obj = {
            "seq": 2,
            "clock": 99,
            "metrics": {
                "counters": {"sends": 4},
                "gauges": {"round": 1},
                "histograms": {
                    "lat": {"count": 2, "mean": 3, "p50": 2, "p90": 4,
                            "p99": 4, "max": 4},
                },
            },
        }
        text = render_snapshot(obj, meta={"task": "elect", "n": 8})
        assert "task=elect" in text and "n=8" in text
        assert "sends=4" in text and "round=1" in text
        assert "lat: n=2" in text and "p99=4" in text
