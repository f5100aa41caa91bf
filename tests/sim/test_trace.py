"""Unit tests for metrics aggregation and the run's event stream."""

from __future__ import annotations

from repro.adversary import EagerAdversary
from repro.obs.events import EventType, ListSink
from repro.sim import Collect, Propagate, Simulation
from repro.sim.messages import MessageKind
from repro.sim.trace import Metrics


class TestMetrics:
    def test_initial_state(self):
        metrics = Metrics(4)
        assert metrics.messages_total == 0
        assert metrics.max_comm_calls == 0
        assert metrics.request_messages == 0
        assert all(count == 0 for count in metrics.messages_sent_by)

    def test_record_send(self):
        metrics = Metrics(4)
        metrics.record_send(2, MessageKind.PROPAGATE)
        metrics.record_send(2, MessageKind.ACK)
        assert metrics.messages_total == 2
        assert metrics.messages_sent_by[2] == 2
        assert metrics.request_messages == 1

    def test_record_send_batch_equals_repeated_sends(self):
        batched = Metrics(4)
        unbatched = Metrics(4)
        batched.record_send_batch(1, MessageKind.PROPAGATE, cells=3, count=5)
        for _ in range(5):
            unbatched.record_send(1, MessageKind.PROPAGATE, cells=3)
        assert batched.summary() == unbatched.summary()
        assert batched.messages_sent_by == unbatched.messages_sent_by
        assert batched.messages_by_kind == unbatched.messages_by_kind

    def test_record_comm_call(self):
        metrics = Metrics(4)
        metrics.record_comm_call(1)
        metrics.record_comm_call(1)
        metrics.record_comm_call(3)
        assert metrics.comm_calls_by == [0, 2, 0, 1]
        assert metrics.max_comm_calls == 2

    def test_max_comm_calls_empty_system(self):
        assert Metrics(0).max_comm_calls == 0


def _put_and_collect(api):
    api.put("X", api.pid, 1)
    yield Propagate("X", (api.pid,))
    yield Collect("X")
    return True


class TestTrace:
    def test_disabled_by_default(self):
        # No sink, no telemetry: no process gets an emission hook, so
        # every emission site is one ``is None`` check.
        sim = Simulation(3, {0: _put_and_collect}, EagerAdversary())
        assert all(process.obs is None for process in sim.processes)
        assert sim.run().outcomes == {0: True}

    def test_enabled_records(self):
        sink = ListSink()
        sim = Simulation(3, {0: _put_and_collect}, EagerAdversary(), sink=sink)
        assert sim.processes[0].obs is not None
        sim.run()
        assert sink.events
        assert [event.time for event in sink.events] == sorted(
            event.time for event in sink.events
        )
        assert sink.of_type(EventType.SCHED_STEP)[0].pid == 0
        (put,) = sink.of_type(EventType.REG_PUT)
        assert (put.pid, put.fields["var"], put.fields["value"]) == (0, "X", 1)

    def test_simulation_trace_contains_lifecycle(self):
        def algorithm(api):
            api.put("X", api.pid, 1)
            yield Propagate("X", (api.pid,))
            views = yield Collect("X")
            return len(views)

        sink = ListSink()
        Simulation(3, {0: algorithm}, EagerAdversary(), sink=sink).run()
        etypes = {event.etype for event in sink.events}
        assert {
            EventType.PROC_START, EventType.SCHED_STEP, EventType.COMM_CALL,
            EventType.MSG_DELIVER, EventType.PROC_DECIDE,
        } <= etypes
        starts = sink.of_type(EventType.PROC_START)
        decides = sink.of_type(EventType.PROC_DECIDE)
        assert len(starts) == 1 and len(decides) == 1
        assert starts[0].time <= decides[0].time

    def test_comm_events_match_metrics(self):
        def algorithm(api):
            api.put("X", api.pid, 1)
            yield Propagate("X", (api.pid,))
            yield Collect("X")
            return True

        sink = ListSink()
        result = Simulation(3, {0: algorithm}, EagerAdversary(), sink=sink).run()
        assert len(sink.of_type(EventType.COMM_CALL)) == result.metrics.comm_calls_by[0]
