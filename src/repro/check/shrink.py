"""Schedule minimization and replayable violation artifacts.

When the explorer finds an invariant violation it has a *schedule*: the
ordered ``sched.step`` / ``sched.crash`` / ``msg.deliver`` subsequence of
the run's event stream, which — together with the run's seed — fully
determines the execution (the determinism contract of
:mod:`repro.obs.replay`).  This module minimizes that schedule while the
violation persists and packages the result:

* :func:`shrink_schedule` — prefix truncation followed by ddmin-style
  chunk removal.  Candidate schedules are re-executed through
  :class:`SchedulePrefixAdversary`, which tolerates dropped entries
  (skipping any that no longer match an in-flight message) and completes
  the run deterministically past the prefix, so every candidate is a
  complete, evaluable execution.
* :func:`write_artifact` / :func:`replay_artifact` — a violation
  artifact is a single JSON file carrying the protocol configuration,
  the minimized schedule, the violation, and a SHA-256 digest of the
  minimized run's full event stream.  Replaying re-executes the schedule
  and verifies the digest, so "the artifact reproduces the violation"
  is a byte-level statement, not a vibe.
* :func:`write_repro_script` — a human-readable companion describing
  what was violated and the exact commands that reproduce it.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from ..adversary.base import Adversary, fallback_action
from ..obs.events import Event, EventType, ListSink
from ..obs.jsonl import JsonlSink, TRACE_FORMAT_VERSION, event_line
from ..sim.runtime import Action, Crash, Simulation, Step
from ..sim.snapshot import SimulationCheckpoint, capture, enable_recording
from .invariants import CheckContext, Invariant, ProtocolSpec, run_protocol

#: Bumped when the artifact schema changes incompatibly.
ARTIFACT_FORMAT_VERSION = 1

#: Default cap on candidate executions during one shrink.
DEFAULT_MAX_EVALS = 400

#: Cap on checkpoints retained per shrink/exploration store (each holds a
#: deep copy of the simulation state at one schedule prefix).
MAX_STORED_CHECKPOINTS = 256


class SchedulePrefixAdversary(Adversary):
    """Re-drive a run through a schedule, tolerantly, then fall back.

    Unlike the strict :class:`~repro.obs.replay.ScriptedAdversary`, this
    wrapper is built for *candidate* schedules produced by shrinking:
    entries that no longer resolve (a delivery whose message was never
    sent because an earlier entry was removed, a step of a crashed
    processor) are skipped rather than failing the replay, and once the
    schedule is exhausted the run is completed by the deterministic
    :func:`~repro.adversary.base.fallback_action`.  Every candidate
    therefore yields a complete execution that is a pure function of
    ``(seed, schedule)``.
    """

    name = "schedule_prefix"

    def __init__(self, schedule: Sequence[Mapping[str, Any]]) -> None:
        self._schedule = list(schedule)
        self._cursor = 0
        #: Entries that failed to resolve against the live run.
        self.skipped = 0

    def setup(self, sim: Simulation) -> None:
        """Reset cursor and skip count (adversary reuse contract)."""
        self._cursor = 0
        self.skipped = 0

    def _resolve(self, entry: Mapping[str, Any], sim: Simulation) -> Action | None:
        etype = entry["e"]
        pid = entry["p"]
        if etype == EventType.SCHED_STEP:
            if pid not in sim.crashed:
                return Step(pid)
            return None
        if etype == EventType.SCHED_CRASH:
            if pid not in sim.crashed and sim.crashes_remaining > 0:
                return Crash(pid)
            return None
        if etype == EventType.MSG_DELIVER:
            fields = entry["f"]
            return sim.in_flight.match(
                fields["src"], pid, fields["kind"], fields["call"]
            )
        raise ValueError(f"unknown schedule entry type {etype!r}")

    def choose(self, sim: Simulation) -> Action | None:
        """Next resolvable schedule entry, else the deterministic fallback."""
        while self._cursor < len(self._schedule):
            entry = self._schedule[self._cursor]
            self._cursor += 1
            action = self._resolve(entry, sim)
            if action is not None:
                return action
            self.skipped += 1
        return fallback_action(sim)


def run_schedule(
    spec: ProtocolSpec,
    schedule: Sequence[Mapping[str, Any]],
    n: int,
    k: int | None,
    seed: int,
    pattern: str = "first",
) -> CheckContext:
    """Execute one candidate schedule and return its evaluation context."""
    sink = ListSink()
    run = run_protocol(
        spec, n, k, SchedulePrefixAdversary(schedule), seed,
        pattern=pattern, sink=sink,
    )
    return CheckContext(spec, run, sink.events)


class CheckpointingPrefixAdversary(SchedulePrefixAdversary):
    """A :class:`SchedulePrefixAdversary` that snapshots at entry boundaries.

    ``on_boundary(consumed, sim)`` fires from inside :meth:`choose` — an
    action boundary by construction — whenever the absolute number of
    consumed schedule entries (``offset`` + local cursor) first reaches a
    multiple of ``every``.  The simulation state at that moment is a pure
    function of ``(seed, consumed entries)``, which is what makes the
    captured checkpoints reusable across shrink candidates sharing an
    index prefix.
    """

    name = "schedule_prefix_checkpointing"

    def __init__(
        self,
        schedule: Sequence[Mapping[str, Any]],
        every: int,
        offset: int,
        on_boundary: Callable[[int, Simulation], None],
    ) -> None:
        super().__init__(schedule)
        if every < 1:
            raise ValueError(f"checkpoint interval must be >= 1, got {every}")
        self._every = every
        self._offset = offset
        self._on_boundary = on_boundary
        self._total = offset + len(self._schedule)
        # First boundary strictly past the fork point (the fork itself
        # already is a stored checkpoint) and past the empty prefix.
        self._next = (offset // every + 1) * every

    def choose(self, sim: Simulation) -> Action | None:
        """Capture at due boundaries, then delegate to the parent replay."""
        consumed = self._offset + self._cursor
        if self._next <= consumed < self._total:
            self._on_boundary(consumed, sim)
            while self._next <= consumed:
                self._next += self._every
        return super().choose(sim)


def _run_schedule_checkpointed(
    spec: ProtocolSpec,
    candidate: list[Mapping[str, Any]],
    key: tuple[int, ...],
    n: int,
    k: int | None,
    seed: int,
    pattern: str,
    every: int,
    store: dict[tuple[int, ...], tuple[SimulationCheckpoint, list[Event]]],
) -> tuple[CheckContext, int]:
    """Evaluate one candidate, forking from the longest stored prefix.

    Returns the evaluation context plus the number of actions actually
    executed (the uncheckpointed cost minus the skipped prefix).  New
    checkpoints observed along the way are added to ``store``, keyed by
    the tuple of original schedule indices consumed so far — the same
    keys the shrinker's verdict cache uses.
    """
    from ..harness.runners import build_task_simulation

    best: tuple[SimulationCheckpoint, list[Event]] | None = None
    best_c = 0
    for length in sorted({len(prefix) for prefix in store}, reverse=True):
        if 0 < length <= len(key):
            entry = store.get(key[:length])
            if entry is not None:
                best, best_c = entry, length
                break
    sink = ListSink()
    prefix_events: list[Event] = [] if best is None else list(best[1])

    def on_boundary(consumed: int, sim: Simulation) -> None:
        prefix = key[:consumed]
        if prefix not in store and len(store) < MAX_STORED_CHECKPOINTS:
            store[prefix] = (capture(sim), prefix_events + list(sink.events))

    adversary = CheckpointingPrefixAdversary(
        candidate[best_c:], every, best_c, on_boundary
    )
    if best is None:
        sim = build_task_simulation(
            spec.task, spec.algorithm, n, k=k, adversary=adversary,
            seed=seed, pattern=pattern, sink=sink,
        )
        enable_recording(sim)
        replayed_base = 0
    else:
        sim = best[0].fork(adversary, sink=sink)
        replayed_base = best[0].events_executed
    run = run_protocol(
        spec, n, k, adversary, seed, pattern=pattern, simulation=sim,
    )
    ticks = run.result.metrics.events_executed - replayed_base
    return CheckContext(spec, run, prefix_events + sink.events), ticks


def stream_digest(ctx: CheckContext) -> str:
    """SHA-256 over the canonical JSONL lines of a run's event stream."""
    digest = hashlib.sha256()
    for event in ctx.events or ():
        digest.update(event_line(event).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


@dataclass(slots=True)
class ShrinkResult:
    """Outcome of one schedule minimization."""

    schedule: list[Mapping[str, Any]]
    original_len: int
    shrunk_len: int
    evaluations: int
    #: Actions actually executed across all candidate evaluations.  With
    #: checkpointing, forked evaluations skip their shared prefix, so this
    #: is strictly smaller than the uncheckpointed cost of the same
    #: shrink — the measurable win of ``checkpoint_every``.
    ticks_replayed: int = 0

    @property
    def reduction(self) -> float:
        """Fraction of schedule entries removed."""
        if not self.original_len:
            return 0.0
        return 1.0 - self.shrunk_len / self.original_len


def shrink_schedule(
    spec: ProtocolSpec,
    schedule: Sequence[Mapping[str, Any]],
    predicate: Callable[[CheckContext], bool],
    n: int,
    k: int | None,
    seed: int,
    pattern: str = "first",
    max_evals: int = DEFAULT_MAX_EVALS,
    checkpoint_every: int | None = None,
) -> ShrinkResult:
    """Minimize ``schedule`` while ``predicate`` keeps holding.

    Two passes: a binary search for the shortest violating prefix (the
    big win — most violations are determined early and the tolerant
    replayer completes the suffix deterministically), then ddmin-style
    chunk removal inside the surviving prefix.  ``max_evals`` bounds the
    number of candidate executions, so shrinking cost is predictable.

    ``checkpoint_every`` enables mid-schedule checkpoint reuse: every
    that-many consumed entries the candidate's simulation state is
    snapshotted (:mod:`repro.sim.snapshot`), and later candidates sharing
    an index prefix fork from the snapshot instead of re-executing from
    tick 0.  Verdicts are identical either way (forks are byte-identical);
    only :attr:`ShrinkResult.ticks_replayed` shrinks.
    """
    schedule = list(schedule)
    evaluations = 0
    ticks_replayed = 0
    cache: dict[tuple[int, ...], bool] = {}
    store: dict[tuple[int, ...], tuple[SimulationCheckpoint, list[Event]]] = {}

    def holds(candidate: list[Mapping[str, Any]], key: tuple[int, ...]) -> bool:
        nonlocal evaluations, ticks_replayed
        if key in cache:
            return cache[key]
        if evaluations >= max_evals:
            return False
        evaluations += 1
        if checkpoint_every is None:
            ctx = run_schedule(spec, candidate, n, k, seed, pattern)
            ticks_replayed += ctx.result.metrics.events_executed
        else:
            ctx, ticks = _run_schedule_checkpointed(
                spec, candidate, key, n, k, seed, pattern,
                checkpoint_every, store,
            )
            ticks_replayed += ticks
        verdict = predicate(ctx)
        cache[key] = verdict
        return verdict

    indices = list(range(len(schedule)))

    def candidate_of(selected: list[int]) -> list[Mapping[str, Any]]:
        return [schedule[i] for i in selected]

    if not holds(candidate_of(indices), tuple(indices)):
        # The violation does not survive tolerant re-execution (it
        # depended on adversary state the schedule cannot express).
        # Report it unshrunk rather than failing the whole check.
        return ShrinkResult(
            schedule=schedule,
            original_len=len(schedule),
            shrunk_len=len(schedule),
            evaluations=evaluations,
            ticks_replayed=ticks_replayed,
        )

    # Pass 1: shortest violating prefix, by binary search.
    low, high = 0, len(indices)
    while low < high:
        mid = (low + high) // 2
        prefix = indices[:mid]
        if holds(candidate_of(prefix), tuple(prefix)):
            high = mid
        else:
            low = mid + 1
    indices = indices[:high]

    # Pass 2: ddmin-style chunk removal within the prefix.
    chunk = max(1, len(indices) // 2)
    while chunk >= 1:
        removed_any = False
        start = 0
        while start < len(indices):
            selected = indices[:start] + indices[start + chunk:]
            if holds(candidate_of(selected), tuple(selected)):
                indices = selected
                removed_any = True
            else:
                start += chunk
        if chunk == 1 and not removed_any:
            break
        chunk = max(1, chunk // 2) if not removed_any else max(1, chunk)
        if removed_any and chunk > len(indices):
            chunk = max(1, len(indices) // 2)
        if evaluations >= max_evals:
            break

    return ShrinkResult(
        schedule=candidate_of(indices),
        original_len=len(schedule),
        shrunk_len=len(indices),
        evaluations=evaluations,
        ticks_replayed=ticks_replayed,
    )


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def artifact_obj(
    spec: ProtocolSpec,
    record,
    result: ShrinkResult,
    ctx: CheckContext,
    violation_message: str,
    n: int,
    k: int | None,
    pattern: str,
) -> dict[str, Any]:
    """The JSON object form of a violation artifact."""
    trial = record.trial
    return {
        "artifact_version": ARTIFACT_FORMAT_VERSION,
        "trace_version": TRACE_FORMAT_VERSION,
        "protocol": spec.name,
        "task": spec.task,
        "algorithm": spec.algorithm,
        "n": n,
        "k": k,
        "pattern": pattern,
        "seed": trial.seed,
        "invariant": record.invariant,
        "claim": record.claim,
        "scope": record.scope,
        "violation": violation_message,
        "trial": {
            "index": trial.index,
            "mode": trial.mode,
            "adversary": trial.adversary,
            "crash_rate": trial.crash_rate,
            "max_crashes": trial.max_crashes,
            "choices": list(trial.choices),
        },
        "original_schedule_len": result.original_len,
        "shrunk_schedule_len": result.shrunk_len,
        "stream_sha256": stream_digest(ctx),
        "schedule": list(result.schedule),
    }


def write_artifact(path: str, obj: Mapping[str, Any]) -> str:
    """Serialize a violation artifact canonically (sorted keys) to ``path``."""
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(obj, fp, sort_keys=True, indent=1)
        fp.write("\n")
    return path


def load_artifact(path: str) -> dict[str, Any]:
    """Load and minimally validate a violation artifact."""
    with open(path, "r", encoding="utf-8") as fp:
        obj = json.load(fp)
    if obj.get("artifact_version") != ARTIFACT_FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported artifact version "
            f"{obj.get('artifact_version')!r} "
            f"(expected {ARTIFACT_FORMAT_VERSION})"
        )
    return obj


@dataclass(slots=True)
class ArtifactReplay:
    """Result of re-executing an artifact's minimized schedule."""

    path: str
    invariant: str
    expected_violation: str
    replayed_violation: str | None
    digest_matches: bool
    events: int

    @property
    def ok(self) -> bool:
        """True iff the violation and event stream reproduced exactly."""
        return (
            self.digest_matches
            and self.replayed_violation == self.expected_violation
        )

    def describe(self) -> str:
        """Human-readable verdict for the CLI."""
        if self.ok:
            return (
                f"artifact replay OK: {self.invariant} violated again "
                f"({self.events:,} events, stream digest matches)\n"
                f"  {self.expected_violation}"
            )
        lines = [f"artifact replay FAILED for {self.invariant}:"]
        if not self.digest_matches:
            lines.append("  event stream digest differs from the recording")
        if self.replayed_violation != self.expected_violation:
            lines.append(f"  expected: {self.expected_violation}")
            lines.append(f"  replayed: {self.replayed_violation!r}")
        return "\n".join(lines)


def replay_artifact(path: str) -> ArtifactReplay:
    """Re-execute an artifact's schedule and verify it byte-identically.

    The minimized schedule is re-driven through
    :class:`SchedulePrefixAdversary`; the replay is ``ok`` iff the full
    event stream's SHA-256 matches the recording *and* the named
    invariant reports the same violation (run scope) or the witness
    predicate holds again (ensemble scope).
    """
    from .invariants import INVARIANTS, PROTOCOLS

    obj = load_artifact(path)
    spec = PROTOCOLS[obj["protocol"]]
    invariant = INVARIANTS[obj["invariant"]]
    ctx = run_schedule(
        spec, obj["schedule"], obj["n"], obj["k"], obj["seed"], obj["pattern"]
    )
    replayed = _violation_message(invariant, ctx, obj["violation"])
    return ArtifactReplay(
        path=path,
        invariant=obj["invariant"],
        expected_violation=obj["violation"],
        replayed_violation=replayed,
        digest_matches=stream_digest(ctx) == obj["stream_sha256"],
        events=len(ctx.events or ()),
    )


def _violation_message(
    invariant: Invariant, ctx: CheckContext, ensemble_message: str
) -> str | None:
    """The violation a context exhibits, in artifact-comparable form.

    Run-scope invariants report their own message; ensemble invariants
    are witnessed per-run by their predicate, so the stored ensemble
    message is echoed back when the witness still holds.
    """
    if invariant.scope == "run":
        return invariant.check(ctx)
    return ensemble_message if invariant.witness(ctx) else None


def write_repro_script(
    path: str, obj: Mapping[str, Any], artifact_path: str, trace_path: str
) -> str:
    """Write the human-readable companion for a violation artifact."""
    trial = obj["trial"]
    lines = [
        f"# Invariant violation: `{obj['invariant']}` on `{obj['protocol']}`",
        "",
        f"* **claim:** {obj['claim']}",
        f"* **violation:** {obj['violation']}",
        f"* **configuration:** n={obj['n']} k={obj['k']} "
        f"pattern={obj['pattern']} seed={obj['seed']}",
        f"* **found by:** mode={trial['mode']} adversary={trial['adversary']}"
        + (f" crash_rate={trial['crash_rate']}" if trial["mode"] == "crash" else "")
        + (f" choices={trial['choices']}" if trial["mode"] == "systematic" else ""),
        f"* **schedule:** shrunk from {obj['original_schedule_len']} to "
        f"{obj['shrunk_schedule_len']} entries",
        "",
        "## Reproduce",
        "",
        "Re-execute the minimized schedule and verify the violation plus a",
        "byte-identical event stream:",
        "",
        "```bash",
        f"PYTHONPATH=src python -m repro check --replay {artifact_path}",
        "```",
        "",
        "Inspect the original (unshrunk) failing run:",
        "",
        "```bash",
        f"PYTHONPATH=src python -m repro report {trace_path}",
        f"PYTHONPATH=src python -m repro replay {trace_path}",
        "```",
        "",
    ]
    with open(path, "w", encoding="utf-8") as fp:
        fp.write("\n".join(lines))
    return path


def shrink_violation(
    spec: ProtocolSpec,
    record,
    invariant: Invariant,
    n: int,
    k: int | None,
    pattern: str = "first",
    out_dir: str = ".",
    max_evals: int = DEFAULT_MAX_EVALS,
    checkpoint_every: int | None = None,
) -> None:
    """Minimize one violation and write its artifacts into ``out_dir``.

    Mutates ``record`` (a
    :class:`~repro.check.explore.ViolationRecord`) in place with the
    artifact, trace, and repro-script paths plus the shrink sizes.
    ``checkpoint_every`` is forwarded to :func:`shrink_schedule`; the
    final artifact context is always produced by an uncheckpointed
    re-execution, so ``stream_sha256`` never depends on checkpointing.
    """
    from .explore import capture_run, schedule_of

    os.makedirs(out_dir, exist_ok=True)
    trial = record.trial
    run, events = capture_run(spec, trial, n, k, pattern)
    schedule = schedule_of(events)
    base = os.path.join(
        out_dir, f"violation-{spec.name}-{record.invariant}-t{trial.index}"
    )

    trace_path = f"{base}.trace.jsonl"
    meta = {
        "version": TRACE_FORMAT_VERSION,
        "task": spec.task,
        "n": n,
        "k": k,
        "algorithm": spec.algorithm,
        "adversary": trial.adversary,
        "seed": trial.seed,
        "pattern": pattern,
        "check": {
            "protocol": spec.name,
            "invariant": record.invariant,
            "mode": trial.mode,
            "crash_rate": trial.crash_rate,
            "choices": list(trial.choices),
        },
    }
    sink = JsonlSink(trace_path, meta=meta)
    for event in events:
        sink.emit(event)
    sink.close()

    result = shrink_schedule(
        spec, schedule, invariant.witness, n, k, trial.seed,
        pattern=pattern, max_evals=max_evals, checkpoint_every=checkpoint_every,
    )
    ctx = run_schedule(spec, result.schedule, n, k, trial.seed, pattern)
    message = _violation_message(invariant, ctx, record.message)
    if message is None:
        # Defensive: the minimized schedule no longer violates (should
        # not happen — shrink only accepts violating candidates).
        message = record.message
    obj = artifact_obj(
        spec, record, result, ctx, message, n, k, pattern
    )
    artifact_path = write_artifact(f"{base}.shrunk.json", obj)
    script_path = write_repro_script(
        f"{base}.repro.md", obj, artifact_path, trace_path
    )
    record.artifact_path = artifact_path
    record.trace_path = trace_path
    record.script_path = script_path
    record.original_schedule_len = result.original_len
    record.shrunk_schedule_len = result.shrunk_len
    record.ticks_replayed = result.ticks_replayed
