"""Schedule minimization and replayable violation artifacts.

When the explorer finds an invariant violation it has a *schedule*: the
ordered ``sched.step`` / ``sched.crash`` / ``msg.deliver`` subsequence of
the run's event stream, which — together with the run's seed — fully
determines the execution (the determinism contract of
:mod:`repro.obs.replay`).  This module minimizes that schedule while the
violation persists and packages the result:

* :func:`shrink_schedule` — prefix truncation followed by ddmin-style
  chunk removal.  Candidate schedules are re-executed from tick 0
  through :class:`~repro.obs.replay.SchedulePrefixAdversary`, the
  replayer ``repro replay`` uses, which skips entries that no longer
  resolve and completes the run deterministically past the prefix, so
  every candidate is a complete, evaluable execution.
* :func:`artifact_obj` / :func:`replay_artifact` — a violation
  artifact (``"kind": "check-violation"``) is a single JSON file
  carrying the protocol configuration, the minimized schedule, the
  violation, and a SHA-256 digest of the minimized run's full event
  stream.  Replaying re-executes the schedule and verifies the digest,
  so "the artifact reproduces the violation" is a byte-level statement,
  not a vibe.
* :func:`write_repro_script` — a human-readable companion describing
  what was violated and the exact commands that reproduce it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from ..obs.events import ListSink
from ..obs.jsonl import (
    ARTIFACT_VERSIONS,
    TRACE_FORMAT_VERSION,
    event_line,
    read_artifact,
    sha256_lines,
    write_artifact,
    write_events,
)
from ..obs.replay import SchedulePrefixAdversary, schedule_of
from .invariants import CheckContext, Invariant, ProtocolSpec, run_protocol

#: Default cap on candidate executions during one shrink.
DEFAULT_MAX_EVALS = 400


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


@dataclass(slots=True)
class ShrinkResult:
    """Outcome of one schedule minimization."""

    schedule: list[Mapping[str, Any]]
    original_len: int
    shrunk_len: int
    evaluations: int

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
) -> ShrinkResult:
    """Minimize ``schedule`` while ``predicate`` keeps holding.

    Two passes: a binary search for the shortest violating prefix (the
    big win — most violations are determined early and the tolerant
    replayer completes the suffix deterministically), then ddmin-style
    chunk removal inside the surviving prefix.  ``max_evals`` bounds the
    number of candidate executions, so shrinking cost is predictable.
    """
    schedule = list(schedule)
    evaluations = 0
    cache: dict[tuple[int, ...], bool] = {}

    def holds(candidate: list[Mapping[str, Any]], key: tuple[int, ...]) -> bool:
        nonlocal evaluations
        if key in cache:
            return cache[key]
        if evaluations >= max_evals:
            return False
        evaluations += 1
        verdict = predicate(run_schedule(spec, candidate, n, k, seed, pattern))
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
        "kind": "check-violation",
        "version": ARTIFACT_VERSIONS["check-violation"],
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
        "stream_sha256": sha256_lines(map(event_line, ctx.events)),
        "schedule": list(result.schedule),
    }


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
    :class:`~repro.obs.replay.SchedulePrefixAdversary`; the replay is
    ``ok`` iff the full event stream's SHA-256 matches the recording
    *and* the named invariant reports the same violation (run scope) or
    the witness predicate holds again (ensemble scope).
    """
    from .invariants import INVARIANTS, PROTOCOLS

    _, obj = read_artifact(path, "check-violation")
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
        digest_matches=(
            sha256_lines(map(event_line, ctx.events)) == obj["stream_sha256"]
        ),
        events=len(ctx.events),
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
        f"PYTHONPATH=src python -m repro replay {artifact_path}",
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
) -> None:
    """Minimize one violation and write its artifacts into ``out_dir``.

    Mutates ``record`` (a
    :class:`~repro.check.explore.ViolationRecord`) in place with the
    artifact, trace, and repro-script paths plus the shrink sizes.
    """
    from .explore import capture_run

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
    write_events(trace_path, events, meta=meta)

    result = shrink_schedule(
        spec, schedule, invariant.witness, n, k, trial.seed,
        pattern=pattern, max_evals=max_evals,
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
