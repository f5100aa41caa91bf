"""Unit tests for the event schema, sinks, and JSONL round-tripping."""

from __future__ import annotations

import enum
import json

import pytest

from repro.obs.events import (
    CallbackSink,
    Event,
    EventType,
    ListSink,
    MultiSink,
    RingBufferSink,
    combine_sinks,
    json_safe,
)
from repro.obs.jsonl import (
    JsonlSink,
    event_line,
    event_to_obj,
    iter_events,
    obj_to_event,
    write_events,
)


class Color(enum.Enum):
    RED = "red"


def test_json_safe_handles_simulator_value_types():
    assert json_safe(Color.RED) == "red"
    assert json_safe(frozenset({3, 1, 2})) == [1, 2, 3]
    assert json_safe({"b": (1, 2), "a": None}) == {"b": [1, 2], "a": None}
    assert json_safe((True, 1.5, "x")) == [True, 1.5, "x"]
    # Unknown objects degrade to a deterministic repr, never an error.
    assert isinstance(json_safe(object()), str)


def test_event_line_is_canonical_and_round_trips():
    event = Event(7, EventType.MSG_SEND, 2, {"kind": "collect", "dst": 5})
    line = event_line(event)
    assert line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))
    back = obj_to_event(json.loads(line))
    assert (back.time, back.etype, back.pid) == (7, "msg.send", 2)
    assert dict(back.fields) == {"kind": "collect", "dst": 5}
    assert event_to_obj(event)["e"] == "msg.send"


def test_list_and_ring_sinks():
    events = [Event(i, EventType.SCHED_STEP, i % 2, {}) for i in range(5)]
    listed = ListSink()
    ring = RingBufferSink(capacity=3)
    for event in events:
        listed.emit(event)
        ring.emit(event)
    assert len(listed.events) == 5
    assert listed.of_type(EventType.SCHED_STEP) == events
    assert [event.time for event in ring.events] == [2, 3, 4]


def test_multi_and_callback_sinks_and_combine():
    seen: list[int] = []
    callback = CallbackSink(lambda event: seen.append(event.time))
    listed = ListSink()
    multi = combine_sinks([callback, listed])
    assert isinstance(multi, MultiSink)
    multi.emit(Event(1, EventType.SCHED_STEP, 0, {}))
    multi.close()
    assert seen == [1] and len(listed.events) == 1
    assert combine_sinks([]) is None
    assert combine_sinks([listed]) is listed


def test_jsonl_sink_writes_meta_then_events(tmp_path):
    path = str(tmp_path / "out.jsonl")
    sink = JsonlSink(path, meta={"task": "elect", "n": 4})
    sink.emit(Event(0, EventType.SCHED_STEP, 1, {}))
    sink.emit(Event(1, EventType.PROC_DECIDE, 1, {"result": "win"}))
    sink.close()
    with open(path, encoding="utf-8") as fp:
        assert json.loads(fp.readline()) == {"meta": {"task": "elect", "n": 4}}
    events = list(iter_events(path))
    assert [event.etype for event in events] == ["sched.step", "proc.decide"]


def test_write_and_read_events_helpers(tmp_path):
    path = str(tmp_path / "w.jsonl")
    events = [Event(t, EventType.COIN_FLIP, 0, {"value": t % 2}) for t in range(3)]
    write_events(path, events, meta={"n": 1})
    assert [event.time for event in iter_events(path)] == [0, 1, 2]


def test_frozen_event_rejects_mutation():
    event = Event(0, EventType.SCHED_STEP, 0, {})
    with pytest.raises(AttributeError):
        event.time = 1
