"""High-level experiment runners: one call, one checked execution.

These wrap the three moving parts — algorithm factory, adversary,
simulation — behind task-shaped entry points that benchmarks, examples,
and tests share.  The factory comes from the task catalogue
(:mod:`repro.core.catalogue`), the one place an algorithm name is
resolved.  Every runner validates the execution against the
invariant registry (:mod:`repro.check.invariants`) before returning, so
a benchmark number can never come from a broken run.  The registry is
imported on that check path only, which keeps it out of a bare import.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from ..adversary import ADVERSARY_FACTORIES, Adversary, CrashingAdversary
from ..core import Outcome
from ..core.catalogue import ProtocolSpec, protocol_for
from ..sim.process import AlgorithmFactory
from ..sim.runtime import Simulation, SimulationResult
from .workloads import choose_participants


class SpecificationViolation(AssertionError):
    """A checked run broke a registry invariant; ``invariant`` names it."""

    def __init__(self, invariant: str, message: str) -> None:
        super().__init__(f"[{invariant}] {message}")
        self.invariant = invariant


def _checker(spec: ProtocolSpec) -> Callable[[Any], None]:
    """The registry check of a run of ``spec``.

    It raises :class:`SpecificationViolation` for the first invariant
    broken.  Get it before the simulation runs: imported while a large
    run is still alive, the registry's modules keep its freed memory from
    being reused, which raises every later run's peak RSS (by 2-4 MB for
    the coin-aware election at n=256).
    """
    from ..check.invariants import evaluate_run

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


def build_task_simulation(
    task: str,
    algorithm: str | None,
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

    Hand it back to the matching runner via its ``simulation=``
    parameter; the end-to-end benchmark builds first so that it can time
    :meth:`~repro.sim.runtime.Simulation.run` on its own.
    """
    return _build_simulation(
        protocol_for(task, algorithm).make(), n, k, pattern, adversary, seed,
        None, max_events, sink, profiler, delta_propagation, telemetry,
    )


def _build_simulation(
    factory: AlgorithmFactory,
    n: int,
    k: int | None,
    pattern: str,
    adversary: str | Adversary,
    seed: int,
    crash_schedule: Sequence[tuple[int, int]] | None,
    max_events: int | None,
    sink=None,
    profiler=None,
    delta_propagation: bool = True,
    telemetry=None,
) -> Simulation:
    participants = choose_participants(n, k, pattern, seed)
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


def _run_checked(
    spec: ProtocolSpec,
    summarize: Callable[..., Any],
    simulation: Simulation | None,
    check: bool,
    require_termination: bool,
    factory: AlgorithmFactory | None = None,
    **build: Any,
) -> Any:
    """The runners' one path: build, fetch the check, run, then check.

    ``build`` holds :func:`_build_simulation`'s arguments after the
    factory, used only when ``simulation`` is ``None``; ``factory``
    defaults to the row's.  ``summarize(spec, sim, result, **common)``
    makes the task's Run object from the finished simulation.
    """
    if simulation is None:
        simulation = _build_simulation(factory or spec.make(), **build)
    check_run = _checker(spec) if check else None
    result = simulation.run(require_termination=require_termination)
    adversary = build["adversary"]
    run = summarize(
        spec, simulation, result,
        n=build["n"],
        k=sum(1 for process in simulation.processes if process.is_participant),
        adversary=adversary if isinstance(adversary, str) else adversary.name,
        seed=build["seed"],
    )
    if check_run is not None:
        check_run(run)
    return run


def _coin_rounds(result_sim: Simulation, label_fragment: str) -> int:
    """Max per-processor count of coins whose label contains the fragment.

    Each Heterogeneous PoisonPill round flips exactly one coin labelled
    ``...hpp<r>.coin``, and each renaming trial one ``<namespace>.spot``
    choice, so this counts rounds or trials without tracing.
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


def _election_run(spec, sim, result, **common) -> LeaderElectionRun:
    return LeaderElectionRun(
        algorithm=spec.algorithm,
        result=result,
        report=LeaderElectionReport.of(result),
        rounds=_coin_rounds(sim, ".hpp"),
        **common,
    )


def run_leader_election(
    n: int,
    k: int | None = None,
    algorithm: str | None = None,
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
    [AGTV92] tournament baseline (the catalogue default when ``None``).
    ``sink`` receives the structured event stream (:mod:`repro.obs`) and
    ``profiler`` accumulates wall-clock spans; both default to off.
    ``delta_propagation=False`` forces full PROPAGATE payloads —
    semantically identical, used by the equivalence regression tests.
    ``telemetry`` is a second sink slot for live consumers
    (:class:`~repro.obs.metrics.MetricsSink`,
    :class:`~repro.obs.live.LiveTelemetry`, or a
    :class:`~repro.check.streaming.StreamingChecker`).  ``simulation``
    runs one built by :func:`build_task_simulation` instead of
    constructing one; the construction arguments are then recorded
    verbatim but otherwise unused.
    """
    return _run_checked(
        protocol_for("elect", algorithm), _election_run, simulation,
        check=check, require_termination=check and not crash_schedule,
        n=n, k=k, pattern=pattern, adversary=adversary, seed=seed,
        crash_schedule=crash_schedule, max_events=max_events, sink=sink,
        profiler=profiler, delta_propagation=delta_propagation, telemetry=telemetry,
    )


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


def _sifting_run(spec, sim, result, **common) -> SiftingRun:
    return SiftingRun(
        kind=spec.algorithm,
        result=result,
        survivors=sum(
            1 for d in result.decisions.values() if d.result is Outcome.SURVIVE
        ),
        **common,
    )


def run_sifting_phase(
    n: int,
    k: int | None = None,
    kind: str | None = None,
    adversary: str | Adversary = "random",
    seed: int = 0,
    pattern: str = "first",
    bias: float | None = None,
    max_events: int | None = None,
    check: bool = True,
    sink=None,
    profiler=None,
    delta_propagation: bool = True,
    telemetry=None,
    simulation: Simulation | None = None,
) -> SiftingRun:
    """Run one sifting phase (PoisonPill / heterogeneous / naive).

    ``bias`` overrides the coin bias of ``poison_pill`` and ``naive``.
    """
    spec = protocol_for("sift", kind)
    factory = None
    if bias is not None:
        if not 0.0 <= bias <= 1.0:
            raise ValueError(f"bias must be within [0, 1], got {bias}")
        if spec.algorithm == "heterogeneous":
            raise ValueError(
                "the heterogeneous sifter's coin bias depends on its "
                "view; bias applies to poison_pill and naive"
            )
        factory = spec.make(bias=bias)
    return _run_checked(
        spec, _sifting_run, simulation,
        check=check, require_termination=True, factory=factory,
        n=n, k=k, pattern=pattern, adversary=adversary, seed=seed,
        crash_schedule=None, max_events=max_events, sink=sink,
        profiler=profiler, delta_propagation=delta_propagation, telemetry=telemetry,
    )


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


def _renaming_run(spec, sim, result, **common) -> RenamingRun:
    return RenamingRun(
        algorithm=spec.algorithm,
        result=result,
        names=dict(result.outcomes),
        max_trials=_coin_rounds(sim, ".spot"),
        **common,
    )


def run_renaming(
    n: int,
    k: int | None = None,
    algorithm: str | None = None,
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
    return _run_checked(
        protocol_for("rename", algorithm), _renaming_run, simulation,
        check=check, require_termination=check and not crash_schedule,
        n=n, k=k, pattern=pattern, adversary=adversary, seed=seed,
        crash_schedule=crash_schedule, max_events=max_events, sink=sink,
        profiler=profiler, delta_propagation=delta_propagation, telemetry=telemetry,
    )
