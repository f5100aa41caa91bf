"""Deterministic trace recording and replay.

A recorded trace (JSONL, see :mod:`repro.obs.jsonl`) contains a meta
header naming the task configuration and a full event stream.  Because
the simulator is deterministic given ``(seed, schedule)`` — processor
randomness comes from seed-derived streams, and the adversary's choices
are exactly the ``sched.step`` / ``sched.crash`` / ``msg.deliver``
events — the trace doubles as a reproducible artifact: the
:class:`ScriptedAdversary` re-drives the runtime through the identical
action sequence and :func:`replay_trace` verifies that the rerun emits a
byte-identical event stream.  Any benchmark anomaly therefore reduces to
a file that reproduces it exactly, on any machine.

The flow::

    record_trace("run.jsonl", task="elect", n=16, adversary="sequential", seed=7)
    report = replay_trace("run.jsonl")
    assert report.ok
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from ..adversary.base import Adversary
from ..errors import ReproError
from ..sim.runtime import Action, Crash, Step
from .events import EventType, ListSink, SCHEDULE_EVENT_TYPES
from .jsonl import (
    ArtifactError,
    JsonlSink,
    TRACE_FORMAT_VERSION,
    event_line,
    iter_trace_lines,
    read_artifact,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..sim.runtime import Simulation

#: Tasks a trace can record; mirrors the CLI's run verbs.
TRACEABLE_TASKS = ("elect", "sift", "rename")


class ReplayError(ReproError):
    """A trace could not be replayed (bad file, missing meta, ...)."""


class ReplayDivergenceError(ReplayError):
    """The rerun's state stopped matching the recorded schedule."""


class ScriptedAdversary(Adversary):
    """Re-drive a simulation through a recorded action sequence.

    ``schedule`` is the ordered list of scheduling-event objects
    (``sched.step`` / ``sched.crash`` / ``msg.deliver``) extracted from a
    trace.  Deliver entries are resolved against the live in-flight pool
    by ``(sender, recipient, kind, call id)`` — unique per message, since
    every communicate call sends one message per recipient and each
    delivery triggers at most one reply per call.
    """

    name = "scripted"

    def __init__(self, schedule: Iterable[Mapping[str, Any]]) -> None:
        self._schedule: list[Mapping[str, Any]] = list(schedule)
        self._cursor = 0

    @property
    def remaining(self) -> int:
        """Schedule entries not yet consumed."""
        return len(self._schedule) - self._cursor

    def choose(self, sim: "Simulation") -> Action | None:
        """Re-issue the next recorded schedule entry as a live action."""
        if self._cursor >= len(self._schedule):
            return None
        entry = self._schedule[self._cursor]
        self._cursor += 1
        etype = entry["e"]
        if etype == EventType.SCHED_STEP:
            return Step(entry["p"])
        if etype == EventType.SCHED_CRASH:
            return Crash(entry["p"])
        if etype == EventType.MSG_DELIVER:
            fields = entry["f"]
            recipient = entry["p"]
            action = sim.in_flight.match(
                fields["src"], recipient, fields["kind"], fields["call"]
            )
            if action is not None:
                return action
            raise ReplayDivergenceError(
                f"schedule entry {self._cursor - 1}: no in-flight message "
                f"matches {fields['kind']} {fields['src']}->{recipient} "
                f"call={fields['call']} — the rerun diverged from the recording"
            )
        raise ReplayError(f"unknown schedule entry type {etype!r}")


def extract_schedule(
    event_objects: Iterable[Mapping[str, Any]],
) -> list[Mapping[str, Any]]:
    """The scheduling subsequence of a parsed event stream."""
    return [obj for obj in event_objects if obj["e"] in SCHEDULE_EVENT_TYPES]


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


def _run_task(
    meta: Mapping[str, Any],
    adversary: str | Adversary,
    sink,
    check: bool = True,
    telemetry=None,
):
    """Run the task a meta header describes, with the given adversary."""
    from ..harness.runners import (
        run_leader_election,
        run_renaming,
        run_sifting_phase,
    )

    task = meta["task"]
    common = dict(
        n=meta["n"],
        k=meta.get("k"),
        adversary=adversary,
        seed=meta["seed"],
        pattern=meta.get("pattern", "first"),
        sink=sink,
        telemetry=telemetry,
    )
    if task == "elect":
        return run_leader_election(algorithm=meta["algorithm"], check=check, **common)
    if task == "sift":
        return run_sifting_phase(kind=meta["algorithm"], check=check, **common)
    if task == "rename":
        return run_renaming(algorithm=meta["algorithm"], check=check, **common)
    raise ReplayError(
        f"unknown task {task!r}; traceable tasks: {TRACEABLE_TASKS}"
    )


_DEFAULT_ALGORITHMS = {"elect": "poison_pill", "sift": "heterogeneous", "rename": "paper"}


def record_trace(
    path: str,
    task: str = "elect",
    n: int = 16,
    k: int | None = None,
    algorithm: str | None = None,
    adversary: str = "random",
    seed: int = 0,
    pattern: str = "first",
    telemetry=None,
) -> RecordedTrace:
    """Run one task and record its full event stream to ``path``.

    ``adversary`` must be a registry name (not an instance) so the meta
    header alone suffices to describe the run.  ``telemetry`` is an
    optional second sink (e.g. :class:`~repro.obs.live.LiveTelemetry`)
    that sees the same stream; the caller owns closing it.
    """
    if task not in TRACEABLE_TASKS:
        raise ReplayError(f"unknown task {task!r}; traceable tasks: {TRACEABLE_TASKS}")
    meta = {
        "version": TRACE_FORMAT_VERSION,
        "task": task,
        "n": n,
        "k": k,
        "algorithm": algorithm or _DEFAULT_ALGORITHMS[task],
        "adversary": adversary,
        "seed": seed,
        "pattern": pattern,
    }
    sink = JsonlSink(path, meta=meta)
    try:
        run = _run_task(meta, adversary, sink, telemetry=telemetry)
    finally:
        events = sink.line_count - 1  # meta header excluded
        sink.close()
    return RecordedTrace(path=path, meta=meta, events=events, run=run)


def replay_trace(path: str, check: bool = True) -> ReplayReport:
    """Re-drive a recorded trace and compare event streams byte-for-byte.

    A schedule entry that no longer resolves against the rerun is a
    divergence like any other: the report fails and names the entry.
    Raises :class:`~repro.obs.jsonl.ArtifactError` for a file that is
    not a simulator trace (``repro net`` traces record wall-clock
    delivery order, which the simulator does not replay).
    """
    _, meta = read_artifact(path, "trace")
    if meta.get("backend") == "net":
        raise ArtifactError(
            f"{path}: a repro net trace; only simulator traces replay"
        )
    recorded_lines = list(iter_trace_lines(path))[1:]
    scripted = ScriptedAdversary(
        extract_schedule(json.loads(line) for line in recorded_lines)
    )
    capture = ListSink()
    run = schedule_error = None
    try:
        run = _run_task(meta, scripted, capture, check=check)
    except ReplayDivergenceError as exc:
        schedule_error = str(exc)
    replayed_lines = [event_line(event) for event in capture.events]
    divergence_index = None
    recorded_line = replayed_line = None
    for index, (recorded, replayed) in enumerate(zip(recorded_lines, replayed_lines)):
        if recorded != replayed:
            divergence_index = index
            recorded_line, replayed_line = recorded, replayed
            break
    return ReplayReport(
        path=path,
        recorded_events=len(recorded_lines),
        replayed_events=len(replayed_lines),
        divergence_index=divergence_index,
        recorded_line=recorded_line,
        replayed_line=replayed_line,
        run=run,
        schedule_error=schedule_error,
    )
