"""Tests for happens-before reconstruction and message lineage.

Synthetic streams pin the chain-depth arithmetic exactly (a relay chain
has depth = hops, a fan-in takes the longest incoming chain, duplicates
are counted not corrupting); a real recorded election then checks the
analysis end-to-end through ``feed(iter_events(path), CausalReport())``
and the report renderers.
"""

from __future__ import annotations

import pytest

from repro.obs.aggregate import TraceAggregator
from repro.obs.causality import CausalReport, critical_path_report, lineage_report
from repro.obs.events import Event, EventType, MultiSink, feed
from repro.obs.jsonl import iter_events
from repro.obs.replay import record_trace


def _analyze(events):
    """A :class:`CausalReport` fed ``events`` in one pass."""
    report = CausalReport()
    feed(events, report)
    return report


def _send(time, src, dst, kind="collect", call=0):
    """A synthetic msg.send event."""
    return Event(time, EventType.MSG_SEND, src,
                 {"src": src, "dst": dst, "kind": kind, "call": call})


def _deliver(time, src, dst, kind="collect", call=0):
    """A synthetic msg.deliver event."""
    return Event(time, EventType.MSG_DELIVER, dst,
                 {"src": src, "dst": dst, "kind": kind, "call": call})


def _decide(time, pid):
    """A synthetic proc.decide event."""
    return Event(time, EventType.PROC_DECIDE, pid, {"outcome": "win"})


class TestSyntheticChains:
    """Exact depth arithmetic on hand-built streams."""

    def test_relay_chain_depth_equals_hop_count(self):
        # 0 -> 1 -> 2 -> 3: each relay extends the chain by one.
        events = []
        for hop, (src, dst) in enumerate([(0, 1), (1, 2), (2, 3)]):
            events.append(_send(10 * hop, src, dst, call=hop))
            events.append(_deliver(10 * hop + 5, src, dst, call=hop))
        events.append(_decide(100, 3))
        report = _analyze(events)
        assert report.depth_by_pid == {1: 1, 2: 2, 3: 3}
        assert report.decision_depths == {3: 3}
        assert report.max_decision_depth == 3
        chain = report.lineage(3)
        assert [(hop.src, hop.dst) for hop in chain] == [(0, 1), (1, 2), (2, 3)]
        assert [hop.depth for hop in chain] == [1, 2, 3]

    def test_fan_in_takes_longest_incoming_chain(self):
        # p2 hears from p0 directly (depth 1) and via p1 (depth 2):
        # its state sits at the deeper of the two.
        events = [
            _send(0, 0, 2, call=0), _deliver(1, 0, 2, call=0),
            _send(2, 0, 1, call=1), _deliver(3, 0, 1, call=1),
            _send(4, 1, 2, call=2), _deliver(5, 1, 2, call=2),
        ]
        report = _analyze(events)
        assert report.depth_by_pid[2] == 2
        # A later shallow delivery must not lower the depth.
        more = events + [_send(6, 0, 2, call=3), _deliver(7, 0, 2, call=3)]
        assert _analyze(more).depth_by_pid[2] == 2

    def test_duplicate_deliver_counted_not_corrupting(self):
        events = [
            _send(0, 0, 1), _deliver(1, 0, 1),
            _deliver(2, 0, 1),  # chaos duplicate: no waiting send
        ]
        report = _analyze(events)
        assert report.matched_messages == 1
        assert report.unmatched_delivers == 1
        assert report.depth_by_pid[1] == 1

    def test_fifo_matching_per_channel(self):
        # Two same-channel sends: delivers consume them in order, so the
        # second delivery carries the second send's (deeper) context.
        events = [
            _send(0, 0, 1, call=7), _send(1, 0, 1, call=7),
            _deliver(2, 0, 1, call=7), _deliver(3, 0, 1, call=7),
        ]
        report = _analyze(events)
        assert report.matched_messages == 2
        chain = report.lineage(1)
        assert chain[-1].send_time == 0  # first match set the depth-1 hop

    def test_decision_without_messages_has_depth_zero(self):
        report = _analyze([_decide(5, 0)])
        assert report.decision_depths == {0: 0}
        assert report.lineage(0) == []


class TestRealTrace:
    """End-to-end over a recorded election."""

    def test_analyze_trace_of_recorded_election(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        recorded = record_trace(
            path, task="elect", n=12, adversary="random", seed=7
        )
        report = _analyze(iter_events(path))
        assert report.events_seen == recorded.events
        assert len(report.decision_depths) == 12
        assert report.unmatched_delivers == 0
        assert report.max_decision_depth >= 1
        # Every decision's lineage terminates at its recorded depth.
        for pid, depth in report.decision_depths.items():
            chain = report.lineage(pid)
            assert len(chain) == depth

    def test_reports_render(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        record_trace(path, task="elect", n=8, adversary="sequential", seed=2)
        report = _analyze(iter_events(path))
        text = critical_path_report(report, title="t")
        assert "max depth" in text and "matched messages" in text
        some_pid = next(iter(report.decision_depths))
        lineage = lineage_report(report, some_pid)
        assert f"message lineage of p{some_pid}" in lineage

    def test_lineage_report_for_uninfluenced_processor(self):
        report = _analyze([])
        text = lineage_report(report, 3)
        assert "no message ever influenced" in text


class TestOnePassEqualsLive:
    """A file fed once gives every sink what it built attached live."""

    @staticmethod
    def _render(aggregator, causal):
        return (
            aggregator.report(title="t"),
            critical_path_report(causal, title="t"),
            lineage_report(causal, 0),
        )

    @pytest.mark.parametrize("task", ["elect", "sift", "rename"])
    def test_file_fed_sinks_equal_live_sinks(self, task, tmp_path):
        path = str(tmp_path / f"{task}.jsonl")
        live = TraceAggregator(), CausalReport()
        record_trace(path, task=task, n=8, adversary="random", seed=3,
                     telemetry=MultiSink(*live))
        fed = TraceAggregator(), CausalReport()
        feed(iter_events(path), *fed)
        assert self._render(*fed) == self._render(*live)
        assert fed[1].matched_messages == live[1].matched_messages > 0
