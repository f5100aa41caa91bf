"""Unit tests for the process runtime state and the algorithm-facing API."""

from __future__ import annotations

import pytest

from repro.sim.communicate import Collect, Propagate
from repro.sim.errors import ProcessProtocolError
from repro.sim.process import Process, ProcessAPI, ProcessStatus
from repro.sim.rng import make_stream


def dummy_algorithm(api):
    yield  # pragma: no cover - never driven in these tests


def make_process(pid=0, n=4, factory=dummy_algorithm):
    return Process(pid, n, make_stream(0, f"proc/{pid}"), factory)


class TestProcess:
    def test_participant_starts_idle(self):
        process = make_process()
        assert process.status is ProcessStatus.IDLE
        assert process.is_participant
        assert process.alive
        assert not process.decided

    def test_responder_without_factory(self):
        process = Process(1, 4, make_stream(0, "proc/1"), None)
        assert process.status is ProcessStatus.RESPONDER
        assert not process.is_participant

    def test_start_transitions_to_running(self):
        process = make_process()
        coroutine = process.start()
        assert process.status is ProcessStatus.RUNNING
        assert process.coroutine is coroutine

    def test_emits_its_own_lifecycle_events(self):
        def algorithm(api):
            api.put("X", api.pid, 1)
            yield Propagate("X", (api.pid,))
            yield Collect("X")
            return "done"

        events = []
        process = make_process(factory=algorithm)
        process.obs = lambda etype, fields: events.append((etype, fields))
        process.start()
        request = process.resume(None)
        while request is not None:
            process.begin_call(request)
            request = process.resume(None)
        assert events == [
            ("proc.start", {}),
            ("reg.put", {"var": "X", "key": 0, "value": 1}),
            ("comm.call", {"call": 1, "kind": "propagate", "var": "X", "keys": (0,)}),
            ("comm.call", {"call": 2, "kind": "collect", "var": "X", "keys": None}),
            ("proc.decide", {"result": "done"}),
        ]
        assert (process.status, process.result, process.comm_calls) == (
            ProcessStatus.DONE, "done", 2,
        )

    def test_ack_completes_the_call_once(self):
        events = []
        process = make_process(n=5)
        process.obs = lambda etype, fields: events.append((etype, fields))
        process.begin_call(Propagate("X"))
        pending = process.begin_call(Collect("X"))
        assert process.pending is pending and pending.call_id == 2
        assert (pending.needed, pending.views) == (2, [{}])  # the caller's own view
        assert not process.ack(1, {0: "stale"})  # a reply to the earlier call
        assert not process.ack(2, {1: "a"})
        assert process.ack(2, {2: "b"})  # completes the quorum
        assert not process.ack(2, {3: "c"})  # counted and kept, not completed again
        assert pending.acks == 3
        assert pending.result() == [{}, {1: "a"}, {2: "b"}, {3: "c"}]
        assert [event for event in events if event[0] == "comm.done"] == [
            ("comm.done", {"call": 2, "acks": 2}),
        ]

    def test_a_lone_process_completes_its_call_at_once(self):
        events = []
        process = make_process(n=1)
        process.obs = lambda etype, fields: events.append((etype, fields))
        pending = process.begin_call(Propagate("X"))
        assert pending.satisfied and pending.result() is None
        assert events[-1] == ("comm.done", {"call": 1, "acks": 0})

    def test_bad_yield_is_a_protocol_error(self):
        def algorithm(api):
            yield "not a request"

        process = make_process(factory=algorithm)
        process.start()
        with pytest.raises(ProcessProtocolError, match="yielded 'not a request'"):
            process.resume(None)


class TestProcessAPI:
    def test_identity(self):
        api = ProcessAPI(make_process(pid=3, n=9))
        assert api.pid == 3
        assert api.n == 9

    def test_put_get_view(self):
        api = ProcessAPI(make_process())
        api.put("Status", 0, "commit")
        assert api.get("Status", 0) == "commit"
        assert api.get("Status", 5, default="none") == "none"
        assert api.view("Status") == {0: "commit"}

    def test_flip_logs_coin(self):
        process = make_process()
        api = ProcessAPI(process)
        value = api.flip(0.5, label="test.coin")
        assert value in (0, 1)
        assert process.coins.last() == ("test.coin", value)

    def test_flip_extreme_biases(self):
        api = ProcessAPI(make_process())
        assert all(api.flip(1.0) == 1 for _ in range(10))
        assert all(api.flip(0.0) == 0 for _ in range(10))

    def test_flip_reproducible_across_processes_with_same_stream(self):
        first = ProcessAPI(make_process(pid=0))
        second = ProcessAPI(make_process(pid=0))
        assert [first.flip(0.5) for _ in range(20)] == [
            second.flip(0.5) for _ in range(20)
        ]

    def test_choice_logs_index(self):
        process = make_process()
        api = ProcessAPI(process)
        options = ["a", "b", "c"]
        picked = api.choice(options, label="spot")
        label, index = process.coins.last()
        assert label == "spot"
        assert options[index] == picked

    def test_choice_empty_rejected(self):
        api = ProcessAPI(make_process())
        with pytest.raises(ValueError):
            api.choice([])

    def test_choice_roughly_uniform(self):
        api = ProcessAPI(make_process())
        counts = {0: 0, 1: 0, 2: 0}
        for _ in range(600):
            counts[api.choice([0, 1, 2])] += 1
        assert all(count > 120 for count in counts.values())
