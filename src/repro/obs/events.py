"""Structured event schema and sink protocol for the simulator.

Every observable moment of an execution — scheduling decisions, message
traffic, ``communicate`` quorum completions, coin flips, protocol phase
transitions, decisions — is describable as one :class:`Event`: a logical
timestamp, an event type, the acting processor, and a flat field mapping.
The simulator emits events only when a sink is attached; with no sink the
emission sites compile down to a single ``is None`` check, so the
disabled path costs nothing measurable.

The module is deliberately dependency-free (stdlib only): it sits below
:mod:`repro.sim`, which imports it from the runtime hot path.

Event types are grouped by prefix:

* ``sched.*`` — adversary scheduling actions (step, crash); together with
  ``msg.deliver`` these reconstruct the full schedule, which is what the
  deterministic replayer (:mod:`repro.obs.replay`) re-drives.
* ``msg.*`` — message send/deliver, with kind, endpoints, and call id.
* ``comm.*`` — ``communicate`` call issue and quorum completion, the
  paper's time metric (Claim 2.1).
* ``coin.*`` — coin flips and uniform choices, with label and outcome.
* ``proc.*`` / ``reg.put`` — lifecycle (start/decide) and local register
  writes.
* ``phase.*`` / ``round.*`` / ``preround`` / ``doorway`` / ``rename.*`` —
  protocol-level annotations emitted by the algorithms themselves
  (PoisonPill and Heterogeneous PoisonPill phase entry/exit with
  survivor outcomes, PreRound verdicts, doorway transitions, renaming
  picks), the quantities Lemmas 3.6-3.7 and Theorem A.5 reason about.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from enum import Enum
from typing import Any, Iterable, Mapping, Protocol, runtime_checkable


class EventType:
    """String constants naming every event the simulator can emit.

    Plain strings (not an enum) so emission sites pay no attribute
    resolution beyond a module-level constant load, and so JSONL traces
    are greppable without a decoder ring.
    """

    SCHED_STEP = "sched.step"
    SCHED_CRASH = "sched.crash"
    MSG_SEND = "msg.send"
    MSG_DELIVER = "msg.deliver"
    COMM_CALL = "comm.call"
    COMM_DONE = "comm.done"
    COIN_FLIP = "coin.flip"
    COIN_CHOICE = "coin.choice"
    REG_PUT = "reg.put"
    PROC_START = "proc.start"
    PROC_DECIDE = "proc.decide"
    PHASE_ENTER = "phase.enter"
    PHASE_EXIT = "phase.exit"
    ROUND_EXIT = "round.exit"
    PREROUND = "preround"
    DOORWAY = "doorway"
    RENAME_PICK = "rename.pick"
    RENAME_CLAIM = "rename.claim"


#: Event types that, in order, fully determine the adversary's schedule.
SCHEDULE_EVENT_TYPES = frozenset(
    {EventType.SCHED_STEP, EventType.SCHED_CRASH, EventType.MSG_DELIVER}
)


@dataclasses.dataclass(frozen=True, slots=True)
class Event:
    """One structured observation, stamped with the global logical clock.

    ``fields`` is the serializable payload (see :func:`json_safe`); it is
    everything the event says, so a recorded trace answers every
    analyzer a live stream does.
    """

    time: int
    etype: str
    pid: int
    fields: Mapping[str, Any]


def call_key(event: Event) -> tuple[int, int]:
    """The ``(pid, call)`` identity of a ``comm.call`` / ``comm.done`` event
    (each processor numbers its own calls, so ``call`` alone repeats)."""
    return event.pid, event.fields["call"]


def json_safe(value: Any) -> Any:
    """Convert ``value`` into a deterministic JSON-serializable form.

    Enums map to their value (or name when the value is not primitive),
    sets to sorted lists, NamedTuples and dataclasses to field dicts.
    Anything unrecognized falls back to ``repr`` — lossy but stable for
    the deterministic objects the simulator produces.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Enum):
        inner = value.value
        return inner if isinstance(inner, (bool, int, float, str)) else value.name
    if isinstance(value, tuple) and hasattr(value, "_fields"):  # NamedTuple
        return {name: json_safe(item) for name, item in zip(value._fields, value)}
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((json_safe(item) for item in value), key=repr)
    if isinstance(value, Mapping):
        return {str(json_safe(key)): json_safe(item) for key, item in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: json_safe(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    return repr(value)


@runtime_checkable
class EventSink(Protocol):
    """Anything that can consume the simulator's event stream."""

    def emit(self, event: Event) -> None:
        """Consume one event; called synchronously from the runtime."""
        ...  # pragma: no cover - protocol stub

    def close(self) -> None:
        """Flush and release resources; called when the run is finished."""
        ...  # pragma: no cover - protocol stub


class ListSink:
    """Unbounded in-memory sink; the workhorse for tests."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list[Event] = []

    def emit(self, event: Event) -> None:
        """Append the event to the in-memory list."""
        self.events.append(event)

    def close(self) -> None:
        """No-op: the collected events stay readable."""
        pass

    def of_type(self, etype: str) -> list[Event]:
        """All captured events of one type, in order."""
        return [event for event in self.events if event.etype == etype]


class RingBufferSink:
    """Bounded in-memory sink keeping only the most recent events.

    Useful as an always-on flight recorder: attach it to long benchmark
    runs and inspect the tail after an anomaly without paying unbounded
    memory growth.  Evictions are counted in :attr:`dropped` so bounded
    telemetry loss is visible rather than silent; live snapshot streams
    surface the count as the ``obs.ring_dropped`` counter.
    """

    __slots__ = ("_buffer", "dropped")

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("ring buffer capacity must be at least 1")
        self._buffer: deque[Event] = deque(maxlen=capacity)
        #: Number of events evicted (lost) since creation.
        self.dropped = 0

    @property
    def capacity(self) -> int:
        """Maximum number of retained events."""
        return self._buffer.maxlen or 0

    def emit(self, event: Event) -> None:
        """Append the event, evicting (and counting) the oldest past capacity."""
        buffer = self._buffer
        if len(buffer) == buffer.maxlen:
            self.dropped += 1
        buffer.append(event)

    def close(self) -> None:
        """No-op: the retained window stays readable."""
        pass

    @property
    def events(self) -> list[Event]:
        """The retained tail of the stream, oldest first."""
        return list(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)


class MultiSink:
    """Fan one event stream out to several sinks."""

    __slots__ = ("sinks",)

    def __init__(self, *sinks: EventSink) -> None:
        self.sinks: tuple[EventSink, ...] = sinks

    def emit(self, event: Event) -> None:
        """Forward the event to every child sink."""
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        """Close every child sink."""
        for sink in self.sinks:
            sink.close()


class CallbackSink:
    """Adapt a plain callable into an :class:`EventSink`."""

    __slots__ = ("_callback",)

    def __init__(self, callback) -> None:
        self._callback = callback

    def emit(self, event: Event) -> None:
        """Invoke the callback with the event."""
        self._callback(event)

    def close(self) -> None:
        """No-op: callbacks hold no resources."""
        pass


def feed(events: Iterable[Event], *sinks: EventSink) -> None:
    """Drive every sink through one pass over ``events``, then close them.

    The file-fed counterpart of attaching the sinks live: feeding
    :func:`~repro.obs.jsonl.iter_events` of a trace gives each analyzer
    the state it would have built during the recorded run.
    """
    sink = MultiSink(*sinks)
    for event in events:
        sink.emit(event)
    sink.close()
