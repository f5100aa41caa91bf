"""Deterministic trace recording and the one schedule replayer.

A recorded trace (JSONL, see :mod:`repro.obs.jsonl`) contains a meta
header naming the task configuration and a full event stream.  Because
the simulator is deterministic given ``(seed, schedule)`` — processor
randomness comes from seed-derived streams, and the adversary's choices
are exactly the ``sched.step`` / ``sched.crash`` / ``msg.deliver``
events — the trace doubles as a reproducible artifact: the
:class:`SchedulePrefixAdversary` re-drives the runtime through the
identical action sequence and :func:`replay_trace` verifies that the
rerun emits a byte-identical event stream.  Any benchmark anomaly
therefore reduces to a file that reproduces it exactly, on any machine.
The same adversary drives the shrinker's candidates and violation
artifacts (:mod:`repro.check.shrink`).

The flow::

    record_trace("run.jsonl", task="elect", n=16, adversary="sequential", seed=7)
    report = replay_trace("run.jsonl")
    assert report.ok
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping

from ..adversary.base import Adversary, fallback_action
from ..check.invariants import run_protocol
from ..core.catalogue import protocol_for
from ..errors import ReproError
from ..harness.runners import make_adversary
from ..harness.workloads import choose_participants
from ..sim.runtime import Action, Crash, Step
from .events import Event, EventType, MultiSink, SCHEDULE_EVENT_TYPES
from .jsonl import (
    ArtifactError,
    JsonlSink,
    TRACE_FORMAT_VERSION,
    event_line,
    event_to_obj,
    iter_events,
    iter_trace_lines,
    read_artifact,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..sim.runtime import Simulation

class ReplayError(ReproError):
    """A trace could not be replayed (bad file, missing meta, ...)."""


class SchedulePrefixAdversary(Adversary):
    """Re-drive a run through a recorded schedule, then fall back.

    ``schedule`` is the ordered list of scheduling-event objects
    (``sched.step`` / ``sched.crash`` / ``msg.deliver``, see
    :func:`schedule_of`).  Deliver entries are resolved against the live
    in-flight pool by ``(sender, recipient, kind, call id)`` — unique per
    message, since every communicate call sends one message per
    recipient and each delivery triggers at most one reply per call.

    Entries that no longer resolve (a delivery whose message was never
    sent, a step of a crashed processor, a crash past the budget) are
    skipped, and :attr:`first_skip` records the index of the first.
    Once the schedule is exhausted the run is completed by the
    deterministic :func:`~repro.adversary.base.fallback_action`, so
    every schedule — a faithful recording, a shrink candidate, a
    tampered file — yields a complete execution that is a pure function
    of ``(seed, schedule)``.  On a faithful recording every entry
    resolves and the run ends at the last one.

    Each entry is kept as one ``(etype, pid, src, kind, call)`` tuple
    with interned strings, a fraction of its dict's memory, so a long
    trace's schedule can be streamed in.
    """

    name = "schedule_prefix"

    def __init__(self, schedule: Iterable[Mapping[str, Any]]) -> None:
        self._schedule: list[tuple] = [_compact(entry) for entry in schedule]
        self._cursor = 0
        #: Index of the first entry that failed to resolve, if any.
        self.first_skip: int | None = None

    def setup(self, sim: "Simulation") -> None:
        """Reset cursor and skip record (adversary reuse contract)."""
        self._cursor = 0
        self.first_skip = None

    def _resolve(self, entry: tuple, sim: "Simulation") -> Action | None:
        etype, pid, src, kind, call = entry
        if etype == EventType.SCHED_STEP:
            return Step(pid) if pid not in sim.crashed else None
        if etype == EventType.SCHED_CRASH:
            if pid not in sim.crashed and sim.crashes_remaining > 0:
                return Crash(pid)
            return None
        if etype == EventType.MSG_DELIVER:
            return sim.in_flight.match(src, pid, kind, call)
        raise ReplayError(f"unknown schedule entry type {etype!r}")

    def choose(self, sim: "Simulation") -> Action | None:
        """Next resolvable schedule entry, else the deterministic fallback."""
        while self._cursor < len(self._schedule):
            entry = self._schedule[self._cursor]
            self._cursor += 1
            action = self._resolve(entry, sim)
            if action is not None:
                return action
            if self.first_skip is None:
                self.first_skip = self._cursor - 1
        return fallback_action(sim)


def _compact(entry: Mapping[str, Any]) -> tuple:
    """One schedule entry object as ``(etype, pid, src, kind, call)``."""
    etype = _intern(entry["e"])
    if etype != EventType.MSG_DELIVER:
        return etype, entry["p"], None, None, None
    fields = entry["f"]
    return etype, entry["p"], fields["src"], _intern(fields["kind"]), fields["call"]


def _intern(value: Any) -> Any:
    # A tampered artifact may hold any JSON value here; it must fail to
    # resolve, not fail to load.
    return sys.intern(value) if type(value) is str else value


def schedule_of(events: Iterable[Event]) -> list[dict[str, Any]]:
    """The scheduling subsequence of an event stream, as JSON objects.

    Entries use the recorded-trace object form
    (``{"t":..., "e":..., "p":..., "f":...}``), the form artifacts store
    and :class:`SchedulePrefixAdversary` reads.
    """
    return [
        event_to_obj(event)
        for event in events
        if event.etype in SCHEDULE_EVENT_TYPES
    ]


@dataclass(slots=True)
class RecordedTrace:
    """Outcome of :func:`record_trace`: where it went and what it holds."""

    path: str
    meta: dict[str, Any]
    events: int
    run: Any  # the task's Run object (LeaderElectionRun / SiftingRun / ...)


@dataclass(slots=True)
class ReplayReport:
    """Result of verifying a recorded trace against its rerun."""

    path: str
    recorded_events: int
    replayed_events: int
    divergence_index: int | None
    recorded_line: str | None = None
    replayed_line: str | None = None
    run: Any = None
    #: Why the recorded schedule stopped resolving against the rerun
    #: (names the schedule entry), or ``None`` if it resolved throughout.
    schedule_error: str | None = None

    @property
    def ok(self) -> bool:
        """True iff the rerun's event stream is byte-identical."""
        return (
            self.schedule_error is None
            and self.divergence_index is None
            and self.recorded_events == self.replayed_events
        )

    def describe(self) -> str:
        """Human-readable verdict for the CLI."""
        if self.ok:
            return (
                f"replay OK: {self.replayed_events:,} events match the "
                f"recording byte-for-byte"
            )
        if self.schedule_error is not None:
            return f"replay DIVERGED: {self.schedule_error}"
        if self.divergence_index is None:
            return (
                f"replay DIVERGED: event counts differ "
                f"(recorded {self.recorded_events:,}, "
                f"replayed {self.replayed_events:,})"
            )
        return (
            f"replay DIVERGED at event {self.divergence_index}:\n"
            f"  recorded: {self.recorded_line}\n"
            f"  replayed: {self.replayed_line}"
        )


class _LineComparer:
    """Sink comparing each rerun event's line with the next recorded line.

    Keeps the first mismatch and counts both sides, so neither stream is
    ever held in memory.
    """

    def __init__(self, recorded: Iterator[str]) -> None:
        self._recorded = recorded
        self.recorded_events = self.replayed_events = 0
        self.divergence_index: int | None = None
        self.recorded_line = self.replayed_line = None

    def emit(self, event: Event) -> None:
        """Compare one replayed event with the next recorded line."""
        self.replayed_events += 1
        recorded = next(self._recorded, None)
        if recorded is None:
            return
        self.recorded_events += 1
        if self.divergence_index is None and recorded != (line := event_line(event)):
            self.divergence_index = self.recorded_events - 1
            self.recorded_line, self.replayed_line = recorded, line

    def close(self) -> None:
        """Count the recorded lines the rerun never reached."""
        self.recorded_events += sum(1 for _ in self._recorded)


def _run_meta(meta: Mapping[str, Any], adversary, sink, check: bool):
    """Run the task a trace's meta header describes, with ``adversary``."""
    return run_protocol(
        protocol_for(meta["task"], meta["algorithm"]), meta["n"],
        meta.get("k"), adversary, meta["seed"],
        pattern=meta.get("pattern", "first"), sink=sink, check=check,
    )


def _unresolved(index: int, entry: tuple) -> str:
    """Why compact schedule entry ``index`` did not resolve against the rerun."""
    etype, pid, src, kind, call = entry
    if etype == EventType.MSG_DELIVER:
        reason = (
            f"no in-flight message matches {kind} {src}->{pid} call={call}"
        )
    elif etype == EventType.SCHED_STEP:
        reason = f"processor {pid} has crashed and cannot step"
    else:
        reason = (
            f"cannot crash processor {pid}: crashed already or the crash "
            f"budget is spent"
        )
    return f"schedule entry {index}: {reason} — the rerun diverged from the recording"


def trace_meta(
    task: str = "elect",
    n: int = 16,
    k: int | None = None,
    algorithm: str | None = None,
    adversary: str = "random",
    seed: int = 0,
    pattern: str = "first",
) -> dict[str, Any]:
    """The meta header of a trace of this run, with the algorithm resolved.

    Resolves the catalogue row (the task's default algorithm when
    ``algorithm`` is ``None``), the participant set and the adversary, so
    a run that cannot start raises :class:`ReplayError` before any file
    is opened.
    """
    try:
        algorithm = protocol_for(task, algorithm).algorithm
        choose_participants(n, k, pattern, seed)
        make_adversary(adversary, seed)
    except ValueError as error:
        raise ReplayError(str(error)) from None
    return {
        "version": TRACE_FORMAT_VERSION,
        "task": task,
        "n": n,
        "k": k,
        "algorithm": algorithm,
        "adversary": adversary,
        "seed": seed,
        "pattern": pattern,
    }


def record_trace(
    path: str,
    task: str = "elect",
    n: int = 16,
    k: int | None = None,
    algorithm: str | None = None,
    adversary: str = "random",
    seed: int = 0,
    pattern: str = "first",
    sink=None,
) -> RecordedTrace:
    """Run one task and record its full event stream to ``path``.

    ``adversary`` must be a registry name (not an instance) so the meta
    header alone suffices to describe the run.  ``sink`` (e.g. a
    :class:`~repro.obs.live.LiveTelemetry`) sees the same stream as the
    file; the caller owns closing it.  A run that
    cannot start (:func:`trace_meta`) leaves ``path`` untouched.
    """
    meta = trace_meta(task, n, k, algorithm, adversary, seed, pattern)
    out = JsonlSink(path, meta=meta)
    try:
        run = _run_meta(
            meta, adversary, out if sink is None else MultiSink(out, sink),
            check=True,
        )
    finally:
        events = out.line_count - 1  # meta header excluded
        out.close()
    return RecordedTrace(path=path, meta=meta, events=events, run=run)


def replay_trace(path: str, check: bool = True) -> ReplayReport:
    """Re-drive a recorded trace and compare event streams byte-for-byte.

    A schedule entry that no longer resolves against the rerun is a
    divergence like any other: the report fails and names the first
    such entry (the rest of the run is still completed, tolerantly).
    Raises :class:`~repro.obs.jsonl.ArtifactError` for a file that is
    not a simulator trace (``repro net`` traces record wall-clock
    delivery order, which the simulator does not replay).
    """
    _, meta = read_artifact(path, "trace")
    if meta.get("backend") == "net":
        raise ArtifactError(
            f"{path}: a repro net trace; only simulator traces replay"
        )
    adversary = SchedulePrefixAdversary(
        event_to_obj(event) for event in iter_events(path)
        if event.etype in SCHEDULE_EVENT_TYPES
    )
    recorded = iter_trace_lines(path)
    next(recorded, None)  # the meta header
    compare = _LineComparer(recorded)
    try:
        run = _run_meta(meta, adversary, compare, check=check)
        compare.close()
    finally:
        recorded.close()
    schedule_error = None
    if adversary.first_skip is not None:
        schedule_error = _unresolved(
            adversary.first_skip, adversary._schedule[adversary.first_skip]
        )
    return ReplayReport(
        path=path,
        recorded_events=compare.recorded_events,
        replayed_events=compare.replayed_events,
        divergence_index=compare.divergence_index,
        recorded_line=compare.recorded_line,
        replayed_line=compare.replayed_line,
        run=run,
        schedule_error=schedule_error,
    )
