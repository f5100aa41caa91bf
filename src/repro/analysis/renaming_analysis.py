"""Execution analyzer for Section 4's renaming proof machinery.

The message/time analysis of the renaming algorithm rests on structural
definitions over an execution:

* the name order ``≺`` — names sorted by the first instant at which more
  than half of the processors view them contended (never-quorum names
  after, never-contended names last, index-order ties);
* the partition of the ordered names into groups ``G_1`` (first ~n/2),
  ``G_2`` (next ~n/4), ... and of time into *phases* (phase ``j`` ends
  when every name of ``G_j`` has reached its quorum instant);
* the classification of loop iterations as ``clean(j)`` / ``dirty(j)`` /
  ``cross(j)`` by their start phase and pick-time view.

This module reconstructs all of that from a recorded execution (its
event stream, including the iteration records the algorithm logs as
local register writes) and provides checkers for the structural facts
the proofs rely on:

* **Lemma A.7** — a name viewed contended in an earlier iteration
  ``≺``-precedes any name viewed free in a later iteration;
* **Lemma A.9** — at most ``n / 2^(j-1)`` processors ever contend for
  names in groups ``G_{j' >= j}``;
* **Claim A.11** — each processor runs at most one ``dirty(j)`` and at
  most one ``cross(j)`` iteration for every ``j``.

The input is a run's event stream, live (a
:class:`~repro.obs.events.ListSink`'s ``events``) or read back from a
recorded trace (:func:`~repro.obs.jsonl.iter_events`); both give the
same analysis.  Views grow through two kinds of events: ``reg.put``
(local writes) and the PROPAGATE ``msg.deliver`` legs to live
recipients.  A leg carries the contended names its ``comm.call`` sent:
the call's ``keys`` within the sender's view at that moment, or the
whole view when ``keys`` is null.  Marking a name is idempotent, so
delta propagation, which only drops entries the recipient already
holds, cannot change the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from ..core.protocol import contended_var
from ..obs.events import Event, EventType

_INFINITY = math.inf


@dataclass(slots=True)
class IterationRecord:
    """One getName loop iteration, as logged by the algorithm."""

    pid: int
    index: int
    start_clock: int
    pick_clock: int | None = None
    viewed_contended: frozenset[int] = frozenset()
    spot: int | None = None

    @property
    def completed_pick(self) -> bool:
        """True once this iteration committed to a spot."""
        return self.spot is not None


def group_sizes(n: int) -> list[int]:
    """Group sizes ``~n/2, ~n/4, ...`` covering all ``n`` names."""
    sizes = []
    remaining = n
    half = n
    while remaining > 0:
        half = max(1, half // 2)
        take = min(half, remaining)
        sizes.append(take)
        remaining -= take
    return sizes


@dataclass(slots=True)
class RenamingAnalysis:
    """The Section 4 structure of one recorded renaming execution."""

    n: int
    quorum_times: dict[int, float]
    order: list[int]                      # names sorted by ≺
    rank: dict[int, int]                  # name -> position in ≺
    group_of: dict[int, int]              # name -> group index (1-based)
    phase_ends: list[float]               # phase j ends at phase_ends[j-1]
    iterations: list[IterationRecord] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_events(
        cls, n: int, events: Iterable[Event], namespace: str = "rn"
    ) -> "RenamingAnalysis":
        """Reconstruct per-processor renaming iterations from a run's events.

        ``events`` is the stream of an ``n``-processor run in emission
        order, live or from a trace file.  Raises ``ValueError`` on an
        empty stream.
        """
        var = contended_var(namespace)
        iter_var = f"{namespace}.iter"
        views: list[set[int]] = [set() for _ in range(n)]
        counts = [0] * n
        quorum_times: dict[int, float] = {}
        ever_contended: set[int] = set()
        records: dict[tuple[int, int], IterationRecord] = {}
        # (sender, call) -> the contended names its PROPAGATE legs carry.
        sent: dict[tuple[int, int], set[int]] = {}
        crashed: set[int] = set()

        def mark(pid: int, name: int, clock: int) -> None:
            if name in views[pid]:
                return
            views[pid].add(name)
            counts[name] += 1
            ever_contended.add(name)
            if name not in quorum_times and counts[name] > n // 2:
                quorum_times[name] = clock

        empty = True
        for event in events:
            empty = False
            etype = event.etype
            if etype == EventType.REG_PUT:
                fields = event.fields
                put_var, key, value = fields["var"], fields["key"], fields["value"]
                if put_var == var and value is True:
                    mark(event.pid, key, event.time)
                elif put_var == iter_var:
                    pid, index, stage = key
                    record = records.setdefault(
                        (pid, index),
                        IterationRecord(pid=pid, index=index, start_clock=event.time),
                    )
                    if stage == "start":
                        record.start_clock = event.time
                    else:  # "pick"
                        contended_now, spot = value
                        record.pick_clock = event.time
                        record.viewed_contended = frozenset(contended_now)
                        record.spot = spot
            elif etype == EventType.COMM_CALL:
                fields = event.fields
                if fields["kind"] == "propagate" and fields["var"] == var:
                    view, keys = views[event.pid], fields["keys"]
                    sent[event.pid, fields["call"]] = (
                        set(view) if keys is None else view.intersection(keys)
                    )
            elif etype == EventType.MSG_DELIVER:
                fields = event.fields
                if fields["kind"] == "propagate" and event.pid not in crashed:
                    for name in sent.get((fields["src"], fields["call"]), ()):
                        mark(event.pid, name, event.time)
            elif etype == EventType.SCHED_CRASH:
                crashed.add(event.pid)
        if empty:
            raise ValueError(
                "renaming analysis needs the run's event stream: a "
                "ListSink's events or a recorded trace"
            )

        full_times = {
            name: quorum_times.get(name, _INFINITY) for name in range(n)
        }
        order = sorted(
            range(n),
            key=lambda name: (
                full_times[name],
                0 if name in ever_contended else 1,
                name,
            ),
        )
        rank = {name: position for position, name in enumerate(order)}
        group_of: dict[int, int] = {}
        position = 0
        for group_index, size in enumerate(group_sizes(n), start=1):
            for name in order[position:position + size]:
                group_of[name] = group_index
            position += size
        phase_ends = []
        position = 0
        for size in group_sizes(n):
            block = order[position:position + size]
            phase_ends.append(max(full_times[name] for name in block))
            position += size
        iterations = sorted(
            records.values(), key=lambda record: (record.pid, record.index)
        )
        return cls(
            n=n,
            quorum_times=full_times,
            order=order,
            rank=rank,
            group_of=group_of,
            phase_ends=phase_ends,
            iterations=iterations,
        )

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------

    def phase_of_clock(self, clock: float) -> int:
        """The (1-based) phase containing ``clock``."""
        for index, end in enumerate(self.phase_ends, start=1):
            if clock <= end:
                return index
        return len(self.phase_ends)

    def classify(self, record: IterationRecord) -> tuple[str, int]:
        """Classify an iteration as clean/dirty (by start phase) and note
        cross-ness separately via :meth:`is_cross`."""
        phase = self.phase_of_clock(record.start_clock)
        later_contended = any(
            self.group_of[name] > phase for name in record.viewed_contended
        )
        return ("dirty" if later_contended else "clean", phase)

    def is_cross(self, record: IterationRecord) -> int | None:
        """If the iteration contends for a name of a strictly later group
        than its start phase, return that group (the ``cross(j)`` index)."""
        if record.spot is None:
            return None
        start_phase = self.phase_of_clock(record.start_clock)
        spot_group = self.group_of[record.spot]
        if spot_group > start_phase:
            return spot_group
        return None

    # ------------------------------------------------------------------
    # Structural checks (the facts the Section 4 proofs rely on)
    # ------------------------------------------------------------------

    def check_lemma_a7(self) -> None:
        """A name viewed contended earlier ≺-precedes one viewed free later."""
        by_pid: dict[int, list[IterationRecord]] = {}
        for record in self.iterations:
            if record.completed_pick:
                by_pid.setdefault(record.pid, []).append(record)
        for pid, records in by_pid.items():
            records.sort(key=lambda record: record.index)
            seen_contended: set[int] = set()
            for record in records:
                viewed_free = set(range(self.n)) - set(record.viewed_contended)
                for earlier in seen_contended:
                    for free in viewed_free:
                        if self.rank[earlier] >= self.rank[free]:
                            raise AssertionError(
                                f"Lemma A.7 violated by processor {pid}: name "
                                f"{earlier} was viewed contended before name "
                                f"{free} was viewed free, yet {earlier} does "
                                f"not ≺-precede {free}"
                            )
                seen_contended |= set(record.viewed_contended)

    def check_lemma_a9(self) -> None:
        """At most ``n / 2^(j-1)``-ish processors contend in groups >= j.

        For n not a power of two the exact form of the bound is
        ``n - |names in groups before j|`` (the paper's ``n / 2^(j-1)``
        is this quantity under exact halving): every earlier name is
        contended before any group->=j name is, and its winner-to-be
        never contends at or beyond group j (Lemma A.7).
        """
        sizes = group_sizes(self.n)
        earlier = 0
        for j in range(1, len(sizes) + 1):
            contenders = {
                record.pid
                for record in self.iterations
                if record.spot is not None and self.group_of[record.spot] >= j
            }
            bound = self.n - earlier
            if len(contenders) > bound:
                raise AssertionError(
                    f"Lemma A.9 violated: {len(contenders)} processors "
                    f"contend in groups >= {j}, bound is {bound}"
                )
            earlier += sizes[j - 1]

    def check_claim_a11(self) -> None:
        """Each processor: at most one dirty(j) and one cross(j) per j."""
        dirty_counts: dict[tuple[int, int], int] = {}
        cross_counts: dict[tuple[int, int], int] = {}
        for record in self.iterations:
            if not record.completed_pick:
                continue
            kind, phase = self.classify(record)
            if kind == "dirty":
                key = (record.pid, phase)
                dirty_counts[key] = dirty_counts.get(key, 0) + 1
                if dirty_counts[key] > 1:
                    raise AssertionError(
                        f"Claim A.11 violated: processor {record.pid} ran "
                        f"more than one dirty({phase}) iteration"
                    )
            cross_group = self.is_cross(record)
            if cross_group is not None:
                key = (record.pid, cross_group)
                cross_counts[key] = cross_counts.get(key, 0) + 1
                if cross_counts[key] > 1:
                    raise AssertionError(
                        f"Claim A.11 violated: processor {record.pid} ran "
                        f"more than one cross({cross_group}) iteration"
                    )

    def check_all(self) -> None:
        """Run every structural check; raises AssertionError on violation."""
        self.check_lemma_a7()
        self.check_lemma_a9()
        self.check_claim_a11()
