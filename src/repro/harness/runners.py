"""High-level experiment runners: one call, one checked execution.

These wrap the three moving parts — algorithm factory, adversary,
simulation — behind task-shaped entry points that benchmarks, examples,
and tests share.  Every runner validates the execution against the
invariant registry (:mod:`repro.check.invariants`) before returning, so
a benchmark number can never come from a broken run.  The registry is
imported on that check path only, which keeps it out of a bare import.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from ..adversary import ADVERSARY_FACTORIES, Adversary, CrashingAdversary
from ..core import (
    Outcome,
    make_get_name,
    make_heterogeneous_poison_pill,
    make_leader_elect,
    make_poison_pill,
)
from ..core.baselines import (
    make_linear_renaming,
    make_naive_sifter,
    make_tournament,
)
from ..sim.process import AlgorithmFactory
from ..sim.runtime import Simulation, SimulationResult
from .workloads import choose_participants

LEADER_ALGORITHMS = ("poison_pill", "poison_pill_basic", "tournament")
SIFTER_KINDS = ("poison_pill", "heterogeneous", "naive")
RENAMING_ALGORITHMS = ("paper", "linear")


class SpecificationViolation(AssertionError):
    """A checked run broke a registry invariant; ``invariant`` names it."""

    def __init__(self, invariant: str, message: str) -> None:
        super().__init__(f"[{invariant}] {message}")
        self.invariant = invariant


def _checker(task: str, algorithm: str) -> Callable[[Any], None]:
    """The registry check of a ``task``/``algorithm`` run.

    It raises :class:`SpecificationViolation` for the first invariant
    broken.  Get it before the simulation runs: imported while a large
    run is still alive, the registry's modules keep its freed memory from
    being reused, which raises every later run's peak RSS (by 2-4 MB for
    the coin-aware election at n=256).
    """
    from ..check.invariants import evaluate_run, protocol_for

    spec = protocol_for(task, algorithm)

    def check(run: Any) -> None:
        violations = evaluate_run(spec, run)
        if violations:
            raise SpecificationViolation(*violations[0])

    return check


def make_adversary(spec: str | Adversary, seed: int = 0) -> Adversary:
    """Resolve an adversary spec: a registry name or a ready instance."""
    if isinstance(spec, Adversary):
        return spec
    try:
        return ADVERSARY_FACTORIES[spec](seed=seed)
    except KeyError:
        raise ValueError(
            f"unknown adversary {spec!r}; known: {sorted(ADVERSARY_FACTORIES)}"
        ) from None


def task_factory(
    task: str,
    algorithm: str,
    bias: float | None = None,
    use_lists: bool = True,
) -> AlgorithmFactory:
    """Resolve a (task, algorithm) pair to its coroutine factory."""
    if task == "elect":
        if algorithm == "poison_pill":
            return make_leader_elect()
        if algorithm == "poison_pill_basic":
            return make_leader_elect(sifter="poison_pill")
        if algorithm == "tournament":
            return make_tournament()
        raise ValueError(
            f"unknown algorithm {algorithm!r}; expected one of {LEADER_ALGORITHMS}"
        )
    if task == "sift":
        if bias is not None and not 0.0 <= bias <= 1.0:
            raise ValueError(f"bias must be within [0, 1], got {bias}")
        if algorithm == "poison_pill":
            return make_poison_pill(bias=bias)
        if algorithm == "heterogeneous":
            if bias is not None:
                raise ValueError(
                    "the heterogeneous sifter's coin bias depends on its "
                    "view; bias applies to poison_pill and naive"
                )
            return make_heterogeneous_poison_pill(use_lists=use_lists)
        if algorithm == "naive":
            return make_naive_sifter(bias=bias)
        raise ValueError(
            f"unknown sifter {algorithm!r}; expected one of {SIFTER_KINDS}"
        )
    if task == "rename":
        if algorithm == "paper":
            return make_get_name()
        if algorithm == "linear":
            return make_linear_renaming()
        raise ValueError(
            f"unknown algorithm {algorithm!r}; expected one of {RENAMING_ALGORITHMS}"
        )
    raise ValueError(f"unknown task {task!r}; expected elect, sift, or rename")


def build_task_simulation(
    task: str,
    algorithm: str,
    n: int,
    k: int | None = None,
    adversary: str | Adversary = "random",
    seed: int = 0,
    pattern: str = "first",
    max_events: int | None = None,
    sink=None,
    profiler=None,
    delta_propagation: bool = True,
    telemetry=None,
) -> Simulation:
    """Build (without running) the simulation a task runner would drive.

    Callers that need the :class:`~repro.sim.runtime.Simulation` before
    execution — to enable checkpoint recording
    (:func:`repro.sim.snapshot.enable_recording`) or to drive the action
    loop manually — build it here, then hand it back to the matching
    runner via its ``simulation=`` parameter.
    """
    factory = task_factory(task, algorithm)
    participants = choose_participants(n, k, pattern, seed)
    return _build_simulation(
        n, factory, participants, adversary, seed, None,
        max_events, sink, profiler, delta_propagation, telemetry,
    )


def _build_simulation(
    n: int,
    factory: AlgorithmFactory,
    participants: Sequence[int],
    adversary: str | Adversary,
    seed: int,
    crash_schedule: Sequence[tuple[int, int]] | None,
    max_events: int | None,
    sink=None,
    profiler=None,
    delta_propagation: bool = True,
    telemetry=None,
) -> Simulation:
    scheduler = make_adversary(adversary, seed)
    if crash_schedule:
        scheduler = CrashingAdversary(scheduler, crash_schedule)
    return Simulation(
        n=n,
        participants={pid: factory for pid in participants},
        adversary=scheduler,
        seed=seed,
        max_events=max_events,
        sink=sink,
        profiler=profiler,
        delta_propagation=delta_propagation,
        telemetry=telemetry,
    )


def _coin_rounds(result_sim: Simulation, label_fragment: str) -> int:
    """Max per-processor count of coins whose label contains the fragment.

    Each Heterogeneous PoisonPill round flips exactly one coin labelled
    ``...hpp<r>.coin``, so this counts sifting rounds without tracing.
    """
    best = 0
    for process in result_sim.processes:
        count = sum(
            1 for coin_label, _ in process.coins.all() if label_fragment in coin_label
        )
        best = max(best, count)
    return best


@dataclass(frozen=True, slots=True)
class LeaderElectionReport:
    """Digest of a leader-election execution's decisions."""

    winner: int | None
    losers: tuple[int, ...]
    crashed: tuple[int, ...]
    undecided: tuple[int, ...]

    @classmethod
    def of(cls, result: SimulationResult) -> "LeaderElectionReport":
        """Read the report off ``result``'s decisions (lowest WIN pid wins)."""
        decided = sorted(result.decisions.items())
        winners = [pid for pid, d in decided if d.result is Outcome.WIN]
        return cls(
            winner=winners[0] if winners else None,
            losers=tuple(pid for pid, d in decided if d.result is Outcome.LOSE),
            crashed=tuple(sorted(result.crashed)),
            undecided=tuple(sorted(result.undecided)),
        )


@dataclass(slots=True)
class LeaderElectionRun:
    """A checked leader-election execution plus its headline measurements."""

    n: int
    k: int
    algorithm: str
    adversary: str
    seed: int
    result: SimulationResult
    report: LeaderElectionReport
    rounds: int

    @property
    def winner(self) -> int | None:
        """The elected processor id, or None if nobody won."""
        return self.report.winner

    @property
    def max_comm_calls(self) -> int:
        """Maximum communicate calls made by any single processor."""
        return self.result.metrics.max_comm_calls

    @property
    def messages_total(self) -> int:
        """Total messages sent across the execution."""
        return self.result.metrics.messages_total


def run_leader_election(
    n: int,
    k: int | None = None,
    algorithm: str = "poison_pill",
    adversary: str | Adversary = "random",
    seed: int = 0,
    pattern: str = "first",
    crash_schedule: Sequence[tuple[int, int]] | None = None,
    max_events: int | None = None,
    check: bool = True,
    sink=None,
    profiler=None,
    delta_propagation: bool = True,
    telemetry=None,
    simulation: Simulation | None = None,
) -> LeaderElectionRun:
    """Run one leader election to completion and check it.

    ``algorithm`` selects the paper's PoisonPill-based algorithm or the
    [AGTV92] tournament baseline.  ``sink`` receives the structured event
    stream (:mod:`repro.obs`) and ``profiler`` accumulates wall-clock
    spans; both default to off.  ``delta_propagation=False`` forces full
    PROPAGATE payloads — semantically identical, used by the equivalence
    regression tests.  ``telemetry`` is a second sink slot for live
    consumers (:class:`~repro.obs.metrics.MetricsSink`,
    :class:`~repro.obs.live.LiveTelemetry`, or a
    :class:`~repro.check.streaming.StreamingChecker`).
    ``simulation`` runs a pre-built (possibly checkpoint-forked)
    simulation instead of constructing one; the construction arguments
    are then recorded verbatim but otherwise unused.
    """
    if simulation is not None:
        sim = simulation
        participants = [p.pid for p in sim.processes if p.is_participant]
    else:
        factory = task_factory("elect", algorithm)
        participants = choose_participants(n, k, pattern, seed)
        sim = _build_simulation(
            n, factory, participants, adversary, seed, crash_schedule,
            max_events, sink, profiler, delta_propagation, telemetry,
        )
    check_run = _checker("elect", algorithm) if check else None
    result = sim.run(require_termination=check and not crash_schedule)
    adversary_name = adversary if isinstance(adversary, str) else adversary.name
    run = LeaderElectionRun(
        n=n,
        k=len(participants),
        algorithm=algorithm,
        adversary=adversary_name,
        seed=seed,
        result=result,
        report=LeaderElectionReport.of(result),
        rounds=_coin_rounds(sim, ".hpp"),
    )
    if check_run is not None:
        check_run(run)
    return run


@dataclass(slots=True)
class SiftingRun:
    """A checked single sifting phase plus its survivor count."""

    n: int
    k: int
    kind: str
    adversary: str
    seed: int
    result: SimulationResult
    survivors: int

    @property
    def survivor_fraction(self) -> float:
        """Surviving fraction of the participant set."""
        return self.survivors / self.k if self.k else 0.0


def run_sifting_phase(
    n: int,
    k: int | None = None,
    kind: str = "heterogeneous",
    adversary: str | Adversary = "random",
    seed: int = 0,
    pattern: str = "first",
    bias: float | None = None,
    use_lists: bool = True,
    max_events: int | None = None,
    check: bool = True,
    sink=None,
    profiler=None,
    delta_propagation: bool = True,
    telemetry=None,
    simulation: Simulation | None = None,
) -> SiftingRun:
    """Run one sifting phase (PoisonPill / heterogeneous / naive)."""
    if simulation is not None:
        sim = simulation
        participants = [p.pid for p in sim.processes if p.is_participant]
    else:
        factory = task_factory("sift", kind, bias=bias, use_lists=use_lists)
        participants = choose_participants(n, k, pattern, seed)
        sim = _build_simulation(
            n, factory, participants, adversary, seed, None,
            max_events, sink, profiler, delta_propagation, telemetry,
        )
    check_run = _checker("sift", kind) if check else None
    result = sim.run()
    adversary_name = adversary if isinstance(adversary, str) else adversary.name
    run = SiftingRun(
        n=n,
        k=len(participants),
        kind=kind,
        adversary=adversary_name,
        seed=seed,
        result=result,
        survivors=sum(
            1 for d in result.decisions.values() if d.result is Outcome.SURVIVE
        ),
    )
    if check_run is not None:
        check_run(run)
    return run


@dataclass(slots=True)
class RenamingRun:
    """A checked renaming execution plus its headline measurements."""

    n: int
    k: int
    algorithm: str
    adversary: str
    seed: int
    result: SimulationResult
    names: Mapping[int, Any]
    max_trials: int

    @property
    def max_comm_calls(self) -> int:
        """Maximum communicate calls made by any single processor."""
        return self.result.metrics.max_comm_calls

    @property
    def messages_total(self) -> int:
        """Total messages sent across the execution."""
        return self.result.metrics.messages_total


def run_renaming(
    n: int,
    k: int | None = None,
    algorithm: str = "paper",
    adversary: str | Adversary = "random",
    seed: int = 0,
    pattern: str = "first",
    crash_schedule: Sequence[tuple[int, int]] | None = None,
    max_events: int | None = None,
    check: bool = True,
    sink=None,
    profiler=None,
    delta_propagation: bool = True,
    telemetry=None,
    simulation: Simulation | None = None,
) -> RenamingRun:
    """Run one renaming execution to completion and check it."""
    if algorithm == "paper":
        spot_label = "rn.spot"
    elif algorithm == "linear":
        spot_label = "lr.spot"
    else:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; expected one of {RENAMING_ALGORITHMS}"
        )
    if simulation is not None:
        sim = simulation
        participants = [p.pid for p in sim.processes if p.is_participant]
    else:
        factory = task_factory("rename", algorithm)
        participants = choose_participants(n, k, pattern, seed)
        sim = _build_simulation(
            n, factory, participants, adversary, seed, crash_schedule,
            max_events, sink, profiler, delta_propagation, telemetry,
        )
    check_run = _checker("rename", algorithm) if check else None
    result = sim.run(require_termination=check and not crash_schedule)
    max_trials = max(
        (
            sum(1 for label, _ in process.coins.all() if spot_label in label)
            for process in sim.processes
        ),
        default=0,
    )
    adversary_name = adversary if isinstance(adversary, str) else adversary.name
    run = RenamingRun(
        n=n,
        k=len(participants),
        algorithm=algorithm,
        adversary=adversary_name,
        seed=seed,
        result=result,
        names=dict(result.outcomes),
        max_trials=max_trials,
    )
    if check_run is not None:
        check_run(run)
    return run
