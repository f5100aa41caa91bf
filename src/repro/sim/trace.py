"""Execution metrics.

``Metrics`` aggregates exactly the quantities the paper's complexity
theorems are stated in:

* message complexity — total messages sent, including acknowledgements;
* time complexity — via Claim 2.1, the maximum number of ``communicate``
  calls performed by any single processor;

plus per-processor breakdowns used by the benchmark tables.  Counters are
updated directly by the runtime (the zero-overhead fast path) and
combined across sweep workers (:meth:`Metrics.merge`).  A recorded trace
is rolled up by :class:`~repro.obs.aggregate.TraceAggregator` instead.
"""

from __future__ import annotations

from .messages import MessageKind


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

