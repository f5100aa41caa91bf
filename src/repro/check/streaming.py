"""Streaming invariant checking: fail during the run, not after it.

:mod:`repro.check.invariants` defines each invariant once, as a fold;
the chaos soak and election-as-a-service directions need violations
surfaced *while a run is in flight* — a multi-hour soak should die at
the first double-winner, not report it next morning.
:class:`StreamingChecker` is the streaming driver of those folds: an
:class:`~repro.obs.events.EventSink` that passes every event to the
``observe`` part of each streaming fold of its task and raises
:class:`StreamingViolation` the moment one reports, pinpointing the
offending event id (its index in the stream) and logical timestamp.

Folds without an ``observe`` part need the finished run (termination,
winner existence, linearizability) and are judged post hoc only.  What
streams:

* ``unique_winner`` — the second WIN decision is already a violation;
* ``valid_election_outcomes`` / ``valid_sift_outcomes`` — each decision
  is checkable in isolation;
* ``no_false_death`` — a DIE from a processor whose last sifter coin
  was 1 (or from a sole participant) violates the survival rule the
  instant it decides;
* ``learned_closure`` — each announced ``L`` set is checked as it is
  written;
* ``names_unique`` — the first duplicate name is a violation;
* ``sifting_witness`` — the per-run witness of the ensemble invariant
  ``sifting_effective``: once a crash-free phase has
  ``ceil(0.8 * k)`` survivors (``k >= 8``), this run is already an
  ensemble witness.  The naive sifter under the coin-aware adversary
  trips it with participants still undecided — which is how CI
  verifies mid-run detection.

The folds normalize decision values, so the same checker works on live
streams (fields carry :class:`~repro.core.protocol.Outcome` enums) and
on recorded JSONL traces (fields carry their serialized strings):
``feed(iter_events(path), checker)`` audits a file in constant memory,
and a malformed line raises :class:`~repro.obs.jsonl.ArtifactError`
(see :func:`~repro.obs.jsonl.iter_events`).
"""

from __future__ import annotations

from typing import Sequence

from ..obs.events import Event
from .invariants import FOLDED_EVENTS, stream_folds

__all__ = ["StreamingChecker", "StreamingViolation"]


class StreamingViolation(RuntimeError):
    """An invariant broke mid-stream; carries the offending event.

    ``event_index`` is the zero-based position of the event in the
    checked stream — the stable "event id" a recorded trace can be
    seeked to — and ``event`` is the event itself.
    """

    def __init__(
        self, invariant: str, message: str, event_index: int, event: Event
    ) -> None:
        super().__init__(
            f"[{invariant}] {message} (event #{event_index}, "
            f"t={event.time}, {event.etype})"
        )
        self.invariant = invariant
        self.violation_message = message
        self.event_index = event_index
        self.event = event


class StreamingChecker:
    """EventSink that runs the streaming folds of a task as events arrive.

    Attach alongside any other sink (the runtime fans out through
    :class:`~repro.obs.events.MultiSink`); each event is passed to every
    streaming fold of the chosen ``task``
    (:func:`~repro.check.invariants.stream_folds`).  On a violation the
    default is to **fail fast**: raise :class:`StreamingViolation` out of
    the emitting call, aborting the run at the offending event.  With
    ``fail_fast=False`` violations accumulate in :attr:`violations`
    instead (one entry per invariant — folds are dropped after their
    first finding) and the run continues, which is what trace auditing
    (``repro check``'s post-hoc mode and tests) wants.

    ``k`` is the participant count, needed by the sifting witness and the
    sole-participant rule; pass it when checking ``sift`` runs.
    ``invariants`` optionally restricts the check to those stream names.
    """

    __slots__ = ("task", "k", "fail_fast", "violations", "_folds", "_index")

    def __init__(
        self,
        task: str,
        k: int | None = None,
        invariants: Sequence[str] | None = None,
        fail_fast: bool = True,
    ) -> None:
        self.task = task
        self.k = k
        self.fail_fast = fail_fast
        self.violations: list[StreamingViolation] = []
        self._folds = stream_folds(task, k, invariants)
        self._index = -1

    @property
    def events_checked(self) -> int:
        """How many events have been folded so far."""
        return self._index + 1

    def emit(self, event: Event) -> None:
        """Pass one event to every active fold.

        Raises :class:`StreamingViolation` in fail-fast mode; otherwise
        records the violation and drops that invariant's fold.
        """
        self._index += 1
        if event.etype not in FOLDED_EVENTS:
            return
        tripped: list[int] = []
        for position, (name, fold) in enumerate(self._folds):
            message = fold.observe(event)
            if message is None:
                continue
            violation = StreamingViolation(name, message, self._index, event)
            if self.fail_fast:
                raise violation
            self.violations.append(violation)
            tripped.append(position)
        for position in reversed(tripped):
            del self._folds[position]

    def close(self) -> None:
        """No-op: recorded violations stay readable after the run."""
        pass
