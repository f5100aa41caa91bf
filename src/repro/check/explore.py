"""Schedule exploration: drive a protocol through many interleavings.

The explorer turns an invariant set into a search problem: run the
target protocol under a *budget* of executions whose schedules are
chosen three ways, evaluate every run-scope invariant on each run, and
every ensemble invariant on the whole batch.

* ``random`` — randomized schedule search: the registry adversaries
  (fair, eager, sequential, coin-aware, quorum-split, ...) each drive
  runs under many per-run seeds.  This is the workhorse mode; the
  attack adversaries bias the search toward the schedules the paper's
  proofs actually fight.
* ``crash`` — crash-storm composition: every registry adversary is
  wrapped in :class:`~repro.adversary.crash.RandomCrashAdversary` at a
  rotating rate, exercising the safety claims under failures.
* ``systematic`` — bounded systematic search: delivery-order choice
  prefixes are enumerated breadth-first up to a depth budget, with the
  remainder of each run completed by the deterministic fallback.  Depth
  and branching are configurable; the mode guarantees coverage of every
  early interleaving up to the budget rather than sampling.

Trials fan out over the process-parallel harness
(:mod:`repro.harness.parallel`) and are bit-reproducible: a trial's
entire behaviour is a pure function of its :class:`TrialSpec`, so any
violation can be re-run locally — which is how the shrinker gets the
failing schedule without shipping event streams across processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from ..adversary import ADVERSARY_FACTORIES, RandomCrashAdversary
from ..adversary.base import Adversary, fallback_action
from ..obs.events import Event, ListSink, SCHEDULE_EVENT_TYPES
from ..obs.jsonl import event_to_obj
from ..sim.rng import derive_seed
from ..sim.runtime import Action, Simulation, Step
from .invariants import (
    PROTOCOLS,
    Invariant,
    ProtocolSpec,
    TrialStats,
    evaluate_run,
    invariants_for,
    run_protocol,
    stats_for,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..sim.snapshot import SimulationCheckpoint

#: Scheduling strategies the explorer rotates through by default.  The
#: "bubble" adversary is excluded: it exists to *prove a lower bound* by
#: stalling progress as long as the model permits, which makes it
#: disproportionately slow as a search vehicle.
DEFAULT_ADVERSARIES = (
    "random",
    "eager",
    "round_robin",
    "oblivious",
    "sequential",
    "coin_aware",
    "quorum_split",
)

#: Crash-storm rates the ``crash`` mode rotates through.
CRASH_RATES = (0.002, 0.01, 0.05)

#: All exploration modes, in planning order.
MODES = ("random", "crash", "systematic")


def enumerate_enabled(sim: Simulation) -> list[Action]:
    """The enabled actions of ``sim`` in a deterministic order.

    Deliveries come first, in send order, then computation steps ordered
    by pid.  Crash actions are deliberately excluded — the systematic
    mode explores delivery orders; crash coverage comes from the
    ``crash`` mode.
    """
    actions: list[Action] = sim.in_flight.actions_in_send_order()
    actions.extend(Step(pid) for pid in sorted(sim.steppable))
    return actions


class SystematicAdversary(Adversary):
    """Follow an explicit choice prefix over the enabled-action list.

    ``choices`` is a tuple of indices; choice ``c`` at a decision point
    with ``m`` enabled actions selects action ``c % m`` of
    :func:`enumerate_enabled`.  Once the prefix is exhausted the run is
    completed by :func:`~repro.adversary.base.fallback_action`, so every
    prefix yields a complete, deterministic execution.
    """

    name = "systematic"

    def __init__(self, choices: Sequence[int]) -> None:
        self._choices = tuple(choices)
        self._cursor = 0

    def setup(self, sim: Simulation) -> None:
        """Reset the prefix cursor (adversary reuse contract)."""
        self._cursor = 0

    def choose(self, sim: Simulation) -> Action | None:
        """Apply the next prefix choice, or fall back past the prefix."""
        if self._cursor < len(self._choices):
            actions = enumerate_enabled(sim)
            if actions:
                index = self._choices[self._cursor] % len(actions)
                self._cursor += 1
                return actions[index]
        return fallback_action(sim)


def choice_prefixes(branching: int, depth: int) -> Iterable[tuple[int, ...]]:
    """Yield choice prefixes breadth-first: (), (0,), (1,), ..., (0,0), ...

    Enumerates ``branching**d`` prefixes at each depth ``d`` up to
    ``depth``; callers truncate to their trial budget.
    """
    if branching < 1 or depth < 0:
        raise ValueError("branching must be >= 1 and depth >= 0")
    frontier: list[tuple[int, ...]] = [()]
    yield ()
    for _ in range(depth):
        next_frontier: list[tuple[int, ...]] = []
        for prefix in frontier:
            for choice in range(branching):
                extended = prefix + (choice,)
                yield extended
                next_frontier.append(extended)
        frontier = next_frontier


@dataclass(frozen=True, slots=True)
class TrialSpec:
    """A fully reproducible description of one explored run.

    Everything a trial does — adversary construction, crash storm
    parameters, systematic choice prefix, per-run seed — lives here, so
    a trial can be re-executed bit-identically in any process.
    """

    index: int
    mode: str  # "random" | "crash" | "systematic"
    adversary: str  # registry name of the (inner) scheduler
    seed: int
    crash_rate: float = 0.0
    max_crashes: int | None = None
    choices: tuple[int, ...] = ()

    def build_adversary(self) -> Adversary:
        """Construct a fresh adversary realizing this trial's schedule."""
        if self.mode == "systematic":
            return SystematicAdversary(self.choices)
        inner = ADVERSARY_FACTORIES[self.adversary](seed=self.seed)
        if self.mode == "crash":
            return RandomCrashAdversary(
                inner,
                rate=self.crash_rate,
                seed=self.seed,
                max_crashes=self.max_crashes,
            )
        return inner

    def describe(self) -> str:
        """One-line human-readable rendering for reports."""
        if self.mode == "systematic":
            return f"systematic prefix={list(self.choices)} seed={self.seed}"
        if self.mode == "crash":
            return (
                f"crash storm rate={self.crash_rate} over "
                f"{self.adversary} seed={self.seed}"
            )
        return f"{self.adversary} seed={self.seed}"


def plan_trials(
    budget: int,
    seed: int,
    adversaries: Sequence[str] = DEFAULT_ADVERSARIES,
    modes: Sequence[str] = MODES,
    branching: int = 4,
    depth: int = 4,
) -> list[TrialSpec]:
    """Allocate ``budget`` trials across the selected exploration modes.

    Random search gets half the budget (it hosts the ensemble
    invariants' per-adversary groups); crash storms and systematic
    enumeration split the rest.  Seeds are derived positionally from the
    master seed, so the plan — and every trial in it — is a pure
    function of the arguments.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    unknown = sorted(set(modes) - set(MODES))
    if unknown:
        raise ValueError(f"unknown modes {unknown}; known: {list(MODES)}")
    unknown = sorted(set(adversaries) - set(ADVERSARY_FACTORIES))
    if unknown:
        raise ValueError(
            f"unknown adversaries {unknown}; known: {sorted(ADVERSARY_FACTORIES)}"
        )
    modes = [mode for mode in MODES if mode in modes]
    shares = {mode: 0 for mode in modes}
    if "random" in shares:
        shares["random"] = budget // 2 if len(modes) > 1 else budget
    others = [mode for mode in modes if mode != "random"]
    remaining = budget - sum(shares.values())
    for position, mode in enumerate(others):
        shares[mode] = remaining // len(others) + (
            1 if position < remaining % len(others) else 0
        )
    trials: list[TrialSpec] = []
    prefixes = list(choice_prefixes(branching, depth))
    for mode in modes:
        for i in range(shares[mode]):
            adversary = adversaries[i % len(adversaries)]
            trial_seed = derive_seed(seed, f"check/{mode}/{i}")
            if mode == "systematic":
                trials.append(TrialSpec(
                    index=len(trials), mode=mode, adversary="systematic",
                    seed=trial_seed,
                    choices=prefixes[i % len(prefixes)],
                ))
            elif mode == "crash":
                trials.append(TrialSpec(
                    index=len(trials), mode=mode, adversary=adversary,
                    seed=trial_seed,
                    crash_rate=CRASH_RATES[i % len(CRASH_RATES)],
                ))
            else:
                trials.append(TrialSpec(
                    index=len(trials), mode=mode, adversary=adversary,
                    seed=trial_seed,
                ))
    return trials


@dataclass(slots=True)
class TrialOutcome:
    """What one explored run produced: a stats digest plus violations."""

    spec: TrialSpec
    stats: TrialStats
    violations: list[tuple[str, str]]


def run_trial(
    protocol: ProtocolSpec,
    trial: TrialSpec,
    n: int,
    k: int | None,
    invariants: Sequence[Invariant],
    pattern: str = "first",
) -> TrialOutcome:
    """Execute one trial and evaluate its run-scope invariants."""
    sink = ListSink()
    run = run_protocol(
        protocol, n, k, trial.build_adversary(), trial.seed,
        pattern=pattern, sink=sink,
    )
    violations = evaluate_run(protocol, run, sink.events, invariants)
    stats = stats_for(
        protocol, run, trial.index, trial.adversary, trial.mode, trial.seed
    )
    return TrialOutcome(spec=trial, stats=stats, violations=violations)


class _CheckpointingSystematic(SystematicAdversary):
    """A :class:`SystematicAdversary` that snapshots when its prefix ends.

    ``on_exhausted(sim)`` fires from inside :meth:`choose` — an action
    boundary — the first time the choice prefix is fully consumed.  With
    a seed shared across the systematic tree, the simulation state at
    that moment is a pure function of the consumed choices, so the
    captured checkpoint is exactly the fork point for every descendant
    prefix.
    """

    name = "systematic_checkpointing"

    def __init__(
        self,
        choices: Sequence[int],
        on_exhausted: "Callable[[Simulation], None]",
    ) -> None:
        super().__init__(choices)
        self._on_exhausted = on_exhausted
        self._captured = False

    def setup(self, sim: Simulation) -> None:
        """Reset cursor and the capture-once latch."""
        super().setup(sim)
        self._captured = False

    def choose(self, sim: Simulation) -> Action | None:
        """Snapshot once at prefix exhaustion, then choose as the parent."""
        if not self._captured and self._cursor == len(self._choices):
            self._captured = True
            self._on_exhausted(sim)
        return super().choose(sim)


def run_trial_checkpointed(
    protocol: ProtocolSpec,
    trial: TrialSpec,
    n: int,
    k: int | None,
    invariants: Sequence[Invariant],
    pattern: str,
    store: "dict[tuple[int, ...], tuple[SimulationCheckpoint, list[Event]]]",
) -> TrialOutcome:
    """Execute one systematic trial, forking from the deepest stored ancestor.

    Requires every systematic trial in the batch to share one seed (the
    explorer rewrites them to a common tree seed before calling this):
    the state after consuming a choice prefix is then a pure function of
    that prefix, so a trial with choices ``p + q`` can resume from the
    checkpoint another trial captured when it exhausted prefix ``p``
    instead of re-executing from tick 0.  Checkpoints are stored keyed by
    the exhausted choice prefix, capped at
    :data:`~repro.check.shrink.MAX_STORED_CHECKPOINTS`.
    """
    from ..harness.runners import build_task_simulation
    from ..sim.snapshot import capture, enable_recording
    from .shrink import MAX_STORED_CHECKPOINTS

    choices = trial.choices
    best: tuple[SimulationCheckpoint, list[Event]] | None = None
    best_depth = 0
    for depth in range(len(choices), 0, -1):
        entry = store.get(choices[:depth])
        if entry is not None:
            best, best_depth = entry, depth
            break
    sink = ListSink()
    prefix_events: list[Event] = [] if best is None else list(best[1])

    def on_exhausted(sim: Simulation) -> None:
        if choices not in store and len(store) < MAX_STORED_CHECKPOINTS:
            store[choices] = (capture(sim), prefix_events + list(sink.events))

    adversary = _CheckpointingSystematic(choices[best_depth:], on_exhausted)
    if best is None:
        sim = build_task_simulation(
            protocol.task, protocol.algorithm, n, k=k, adversary=adversary,
            seed=trial.seed, pattern=pattern, sink=sink,
        )
        enable_recording(sim)
    else:
        sim = best[0].fork(adversary, sink=sink)
    run = run_protocol(
        protocol, n, k, adversary, trial.seed,
        pattern=pattern, simulation=sim,
    )
    events = prefix_events + sink.events
    violations = evaluate_run(protocol, run, events, invariants)
    stats = stats_for(
        protocol, run, trial.index, trial.adversary, trial.mode, trial.seed
    )
    return TrialOutcome(spec=trial, stats=stats, violations=violations)


def capture_run(
    protocol: ProtocolSpec,
    trial: TrialSpec,
    n: int,
    k: int | None,
    pattern: str = "first",
) -> tuple[Any, list[Event]]:
    """Re-execute a trial, returning its Run object and full event stream.

    Trials are pure functions of their spec, so this reproduces the
    original execution exactly — the cheap way to recover a violating
    schedule without shipping event streams between worker processes.
    """
    sink = ListSink()
    run = run_protocol(
        protocol, n, k, trial.build_adversary(), trial.seed,
        pattern=pattern, sink=sink,
    )
    return run, sink.events


def schedule_of(events: Sequence[Event]) -> list[dict[str, Any]]:
    """The serializable scheduling subsequence of an event stream.

    Entries use the same object form as recorded traces
    (``{"t":..., "e":..., "p":..., "f":...}``), so they are interchangeable
    with :func:`repro.obs.replay.extract_schedule` output.
    """
    return [
        event_to_obj(event)
        for event in events
        if event.etype in SCHEDULE_EVENT_TYPES
    ]


@dataclass(slots=True)
class ViolationRecord:
    """One reported invariant violation, with its artifacts when shrunk."""

    invariant: str
    claim: str
    message: str
    trial: TrialSpec
    scope: str
    artifact_path: str | None = None
    trace_path: str | None = None
    script_path: str | None = None
    original_schedule_len: int | None = None
    shrunk_schedule_len: int | None = None
    ticks_replayed: int | None = None

    def describe(self) -> str:
        """Multi-line human-readable rendering for the CLI report."""
        lines = [
            f"VIOLATION {self.invariant} ({self.claim})",
            f"  {self.message}",
            f"  trial: {self.trial.describe()}",
        ]
        if self.shrunk_schedule_len is not None:
            lines.append(
                f"  schedule shrunk {self.original_schedule_len} -> "
                f"{self.shrunk_schedule_len} entries"
            )
        if self.ticks_replayed is not None:
            lines.append(
                f"  shrink cost: {self.ticks_replayed} ticks re-executed"
            )
        if self.artifact_path:
            lines.append(f"  artifact: {self.artifact_path}")
        if self.trace_path:
            lines.append(f"  trace:    {self.trace_path}")
        if self.script_path:
            lines.append(f"  repro:    {self.script_path}")
        return "\n".join(lines)


@dataclass(slots=True)
class CheckReport:
    """The full result of one ``explore`` invocation."""

    protocol: str
    n: int
    k: int | None
    seed: int
    budget: int
    invariant_names: list[str]
    outcomes: list[TrialOutcome] = field(default_factory=list)
    violations: list[ViolationRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True iff no invariant was violated anywhere in the budget."""
        return not self.violations

    def mode_counts(self) -> dict[str, int]:
        """Trials executed per exploration mode."""
        counts: dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.spec.mode] = counts.get(outcome.spec.mode, 0) + 1
        return counts

    def describe(self) -> str:
        """Multi-line human-readable summary for the CLI."""
        modes = ", ".join(
            f"{mode}={count}" for mode, count in sorted(self.mode_counts().items())
        )
        lines = [
            f"checked {self.protocol}: {len(self.outcomes)} runs "
            f"(n={self.n}, seed={self.seed}; {modes})",
            f"invariants: {', '.join(self.invariant_names)}",
        ]
        if self.ok:
            lines.append("result: OK — no invariant violated")
        else:
            lines.append(f"result: {len(self.violations)} violation(s)")
            for record in self.violations:
                lines.append(record.describe())
        return "\n".join(lines)


#: Cap on how many distinct violations get the full shrink-and-artifact
#: treatment per invocation; later duplicates are still reported.
MAX_SHRUNK_VIOLATIONS = 3


def explore(
    protocol: str | ProtocolSpec,
    n: int = 16,
    k: int | None = None,
    budget: int = 200,
    seed: int = 0,
    workers: int = 1,
    invariants: Sequence[str] | None = None,
    adversaries: Sequence[str] = DEFAULT_ADVERSARIES,
    modes: Sequence[str] = MODES,
    branching: int = 4,
    depth: int = 4,
    pattern: str = "first",
    shrink: bool = True,
    out_dir: str | None = None,
    checkpoint_every: int | None = None,
) -> CheckReport:
    """Explore ``budget`` schedules of ``protocol`` and check invariants.

    Returns a :class:`CheckReport`; when ``shrink`` is set, each of the
    first :data:`MAX_SHRUNK_VIOLATIONS` violations is minimized with
    :func:`repro.check.shrink.shrink_schedule` and written to ``out_dir``
    (default: the working directory) as a replayable artifact, a full
    event trace, and a human-readable repro script.

    ``checkpoint_every`` opts into simulation checkpointing
    (:mod:`repro.sim.snapshot`): shrinking forks candidates from
    mid-schedule snapshots taken every that-many entries, and — when
    ``workers == 1`` — the systematic trials share one tree seed so each
    prefix resumes from the checkpoint its parent prefix captured,
    instead of re-executing from tick 0.  The seed rewrite is confined
    to this opt-in; default exploration is unchanged.
    """
    from ..harness.parallel import run_seeded_tasks
    from .shrink import shrink_violation

    spec = PROTOCOLS[protocol] if isinstance(protocol, str) else protocol
    selected = invariants_for(spec.task, invariants)
    trials = plan_trials(
        budget, seed, adversaries=adversaries, modes=modes,
        branching=branching, depth=depth,
    )
    checkpointed_tree = checkpoint_every is not None and workers == 1
    if checkpointed_tree:
        # Cross-trial checkpoint sharing needs a seed shared across the
        # systematic tree (per-trial seeds would make states diverge).
        tree_seed = derive_seed(seed, "check/systematic/tree")
        trials = [
            replace(trial, seed=tree_seed)
            if trial.mode == "systematic" else trial
            for trial in trials
        ]
    run_invariants = [inv for inv in selected if inv.scope == "run"]

    def execute(index: int, _seed: int) -> TrialOutcome:
        return run_trial(spec, trials[index], n, k, run_invariants, pattern)

    if checkpointed_tree:
        store: dict[tuple[int, ...], Any] = {}
        fanout = [trial for trial in trials if trial.mode != "systematic"]
        outcomes = list(run_seeded_tasks(
            execute,
            [(trial.index, trial.seed) for trial in fanout],
            workers=workers,
        ))
        outcomes.extend(
            run_trial_checkpointed(
                spec, trial, n, k, run_invariants, pattern, store
            )
            for trial in trials
            if trial.mode == "systematic"
        )
        outcomes.sort(key=lambda outcome: outcome.spec.index)
    else:
        outcomes = run_seeded_tasks(
            execute,
            [(trial.index, trial.seed) for trial in trials],
            workers=workers,
        )
    report = CheckReport(
        protocol=spec.name, n=n, k=k, seed=seed, budget=budget,
        invariant_names=[inv.name for inv in selected],
        outcomes=list(outcomes),
    )
    by_name = {inv.name: inv for inv in selected}
    for outcome in outcomes:
        for name, message in outcome.violations:
            report.violations.append(ViolationRecord(
                invariant=name,
                claim=by_name[name].claim,
                message=message,
                trial=outcome.spec,
                scope="run",
            ))
    all_stats = [outcome.stats for outcome in outcomes]
    for invariant in selected:
        if invariant.scope != "ensemble":
            continue
        verdict = invariant.check_ensemble(all_stats)
        if verdict is not None:
            report.violations.append(ViolationRecord(
                invariant=invariant.name,
                claim=invariant.claim,
                message=verdict.message,
                trial=trials[verdict.witness_index],
                scope="ensemble",
            ))
    if shrink:
        for record in report.violations[:MAX_SHRUNK_VIOLATIONS]:
            shrink_violation(
                spec, record, by_name[record.invariant], n, k,
                pattern=pattern, out_dir=out_dir or ".",
                checkpoint_every=checkpoint_every,
            )
    return report
