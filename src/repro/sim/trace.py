"""Execution metrics and the legacy event-trace adapter.

``Metrics`` aggregates exactly the quantities the paper's complexity
theorems are stated in:

* message complexity — total messages sent, including acknowledgements;
* time complexity — via Claim 2.1, the maximum number of ``communicate``
  calls performed by any single processor;

plus per-processor breakdowns used by the benchmark tables.  Counters are
updated directly by the runtime (the zero-overhead fast path); they can
also be rebuilt from a recorded event stream (:meth:`Metrics.from_events`)
and combined across sweep workers (:meth:`Metrics.merge`).

``Trace`` is the legacy flat event log consumed by the linearizability
checker and the Section 4 execution analyzer.  It is now a thin adapter
over the structured event stream of :mod:`repro.obs`: when a simulation
runs with ``record_events=True``, the runtime attaches a
:class:`TraceAdapterSink` that translates structured events back into the
``TraceEvent`` shape those analyzers were written against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from ..obs.events import Event, EventType
from .messages import MessageKind


@dataclass(slots=True)
class TraceEvent:
    """One scheduling decision, stamped with a global logical time."""

    time: int
    kind: str  # "start" | "step" | "deliver" | "crash" | "decide" | "comm" | "put"
    pid: int
    detail: Any = None


class Metrics:
    """Counters aggregated over one simulation run."""

    __slots__ = (
        "messages_total",
        "messages_by_kind",
        "messages_sent_by",
        "comm_calls_by",
        "payload_cells",
        "deliveries",
        "steps",
        "crashes",
        "events_executed",
    )

    def __init__(self, n: int) -> None:
        self.messages_total = 0
        self.messages_by_kind = {kind: 0 for kind in MessageKind}
        self.messages_sent_by = [0] * n
        self.comm_calls_by = [0] * n
        self.payload_cells = 0
        self.deliveries = 0
        self.steps = 0
        self.crashes = 0
        self.events_executed = 0

    def record_send(self, sender: int, kind: MessageKind, cells: int = 0) -> None:
        """Account one sent message of ``kind`` carrying ``cells`` register cells.

        ``cells`` is the *logical* payload size — the number of register
        cells the message semantically conveys (what full propagation
        would ship).  Delta propagation may physically ship fewer, but
        reports the logical size here so metrics and traces are identical
        across modes; physical savings live in ``Simulation.delta_stats``.
        """
        self.messages_total += 1
        self.messages_by_kind[kind] += 1
        self.messages_sent_by[sender] += 1
        self.payload_cells += cells

    def record_send_batch(
        self, sender: int, kind: MessageKind, cells: int, count: int
    ) -> None:
        """Account ``count`` same-kind sends of ``cells`` logical cells each.

        One ``communicate`` call sends ``n - 1`` messages that differ
        only in recipient; folding them in one call keeps the broadcast
        free of per-message bookkeeping.
        """
        self.messages_total += count
        self.messages_by_kind[kind] += count
        self.messages_sent_by[sender] += count
        self.payload_cells += cells * count

    def record_comm_call(self, pid: int) -> None:
        """Account one ``communicate`` call issued by ``pid``."""
        self.comm_calls_by[pid] += 1

    @property
    def max_comm_calls(self) -> int:
        """Max communicate calls by any processor — the time metric (Claim 2.1).

        For the degenerate ``n == 0`` system (no processors at all, as
        constructed by some unit tests) there is nothing to maximize over
        and the time spent is zero, so the ``default=0`` below is the
        definitionally correct answer, not a sentinel.
        """
        return max(self.comm_calls_by, default=0)

    @property
    def request_messages(self) -> int:
        """Messages excluding acknowledgements (PROPAGATE + COLLECT)."""
        return (
            self.messages_by_kind[MessageKind.PROPAGATE]
            + self.messages_by_kind[MessageKind.COLLECT]
        )

    def merge(self, other: "Metrics") -> "Metrics":
        """Fold another run's counters into this one; returns self.

        Sweep workers use this to combine per-run metrics into one
        accumulator instead of re-summing counter dicts by hand.  The
        per-processor lists are padded when system sizes differ, so
        merging across a sweep's ``n`` grid is well-defined.
        """
        self.messages_total += other.messages_total
        for kind, count in other.messages_by_kind.items():
            self.messages_by_kind[kind] = self.messages_by_kind.get(kind, 0) + count
        if len(other.messages_sent_by) > len(self.messages_sent_by):
            self.messages_sent_by.extend(
                [0] * (len(other.messages_sent_by) - len(self.messages_sent_by))
            )
            self.comm_calls_by.extend(
                [0] * (len(other.comm_calls_by) - len(self.comm_calls_by))
            )
        for pid, count in enumerate(other.messages_sent_by):
            self.messages_sent_by[pid] += count
        for pid, count in enumerate(other.comm_calls_by):
            self.comm_calls_by[pid] += count
        self.payload_cells += other.payload_cells
        self.deliveries += other.deliveries
        self.steps += other.steps
        self.crashes += other.crashes
        self.events_executed += other.events_executed
        return self

    @classmethod
    def from_events(cls, events: Iterable[Event], n: int) -> "Metrics":
        """Rebuild counters from a structured event stream.

        The adapter behind ``repro report``: a recorded JSONL trace holds
        every ``msg.send`` / ``msg.deliver`` / ``sched.*`` / ``comm.call``
        event, which is exactly the information the live counters
        accumulate.
        """
        metrics = cls(n)
        kind_by_value = {kind.value: kind for kind in MessageKind}
        for event in events:
            etype = event.etype
            if etype == EventType.MSG_SEND:
                fields = event.fields
                metrics.record_send(
                    fields["src"],
                    kind_by_value[fields["kind"]],
                    fields.get("cells", 0),
                )
            elif etype == EventType.MSG_DELIVER:
                metrics.deliveries += 1
                metrics.events_executed += 1
            elif etype == EventType.SCHED_STEP:
                metrics.steps += 1
                metrics.events_executed += 1
            elif etype == EventType.SCHED_CRASH:
                metrics.crashes += 1
                metrics.events_executed += 1
            elif etype == EventType.COMM_CALL:
                metrics.record_comm_call(event.pid)
        return metrics

    def summary(self) -> dict[str, int]:
        """The headline counters as a plain dict (stable keys for tests)."""
        return {
            "messages_total": self.messages_total,
            "request_messages": self.request_messages,
            "payload_cells": self.payload_cells,
            "max_comm_calls": self.max_comm_calls,
            "deliveries": self.deliveries,
            "steps": self.steps,
            "crashes": self.crashes,
            "events_executed": self.events_executed,
        }


@dataclass(slots=True)
class Trace:
    """Optional detailed event log; enabled with ``record_events=True``."""

    events: list[TraceEvent] = field(default_factory=list)
    enabled: bool = False
    _kind_index: dict[str, list[TraceEvent]] = field(
        default_factory=dict, repr=False
    )
    _indexed_upto: int = field(default=0, repr=False)

    def record(self, time: int, kind: str, pid: int, detail: Any = None) -> None:
        """Append one event if tracing is enabled; no-op otherwise."""
        if self.enabled:
            self.events.append(TraceEvent(time, kind, pid, detail))

    def of_kind(self, kind: str) -> list[TraceEvent]:
        """All recorded events of one kind, in order.

        Backed by a lazily maintained kind index: the first call after new
        events arrive indexes only the unseen suffix, so analyzers that
        query many kinds (the linearizability checker, the schedulers
        tests) no longer rescan the full log per call.
        """
        events = self.events
        upto = self._indexed_upto
        if upto < len(events):
            index = self._kind_index
            for event in events[upto:]:
                bucket = index.get(event.kind)
                if bucket is None:
                    index[event.kind] = [event]
                else:
                    bucket.append(event)
            self._indexed_upto = len(events)
        return list(self._kind_index.get(kind, ()))


#: Structured event types with a legacy ``TraceEvent`` equivalent, and the
#: flat kind the pre-obs analyzers expect.
_LEGACY_KINDS: Mapping[str, str] = {
    EventType.PROC_START: "start",
    EventType.SCHED_STEP: "step",
    EventType.MSG_DELIVER: "deliver",
    EventType.SCHED_CRASH: "crash",
    EventType.PROC_DECIDE: "decide",
    EventType.COMM_CALL: "comm",
    EventType.REG_PUT: "put",
}


class TraceAdapterSink:
    """Feed a legacy :class:`Trace` from the structured event stream.

    The runtime attaches one when ``record_events=True``; structured
    events whose type has a legacy equivalent are appended as
    ``TraceEvent`` rows, carrying the live object (``event.raw``) as the
    ``detail`` the old analyzers expect — the delivered message, the
    yielded request, the ``(var, key, value)`` register write.
    """

    __slots__ = ("trace",)

    def __init__(self, trace: Trace) -> None:
        self.trace = trace

    def emit(self, event: Event) -> None:
        """Append the legacy ``TraceEvent`` for ``event``, if it has one."""
        kind = _LEGACY_KINDS.get(event.etype)
        if kind is not None:
            self.trace.events.append(
                TraceEvent(event.time, kind, event.pid, event.raw)
            )

    def close(self) -> None:
        """Nothing to flush; the backing :class:`Trace` stays live."""
