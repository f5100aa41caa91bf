"""Machine-checkable invariants and the protocol registry behind them.

The paper's guarantees are adversarial: they must hold under *every*
schedule, not just benign ones.  This module turns each guarantee into a
named, machine-checkable :class:`Invariant` and maps every runnable
protocol of the task catalogue (:mod:`repro.core.catalogue`: the real
algorithms *and* the deliberately broken baselines) to the invariant set
it claims:

* ``unique_winner`` / ``winner_exists`` / ``election_linearizable`` —
  leader election's test-and-set specification (Lemmas A.1-A.3);
* ``at_least_one_survivor`` / ``no_false_death`` — PoisonPill and
  Heterogeneous PoisonPill safety (Claim 3.1 and the commit-before-flip
  survival rule of Figures 1-2);
* ``names_unique`` / ``names_in_range`` / ``renaming_terminates`` —
  strong renaming (Lemma A.6);
* ``sifting_effective`` — the *ensemble* guarantee that a sifter
  actually eliminates contenders in expectation (Claim 3.2 /
  Lemmas 3.6-3.7).  Per-schedule this is only an expectation, so it is
  evaluated over the whole exploration budget, grouped by adversary;
  the naive sifter of the paper's introduction fails it spectacularly
  under the coin-aware adversary (every run keeps ~100% of
  participants), which is exactly how ``repro check`` flags it.

Invariants come in two scopes:

* ``run`` — must hold on every single execution; a violation pinpoints
  one schedule, which the shrinker then minimizes.
* ``ensemble`` — a statistical property of many executions; a violation
  names a *witness* run (the worst offender) plus a per-run witness
  predicate that the shrinker can preserve while minimizing.

Every invariant is defined once, as a :class:`Fold`: ``observe`` judges
one event or service grant at a time, ``verdict`` what only the finished
run shows.  Three drivers run it: :func:`evaluate_run` after the run,
:class:`~repro.check.streaming.StreamingChecker` while events are
emitted, and the chaos soak's grant hook on each grant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Iterable, Sequence

# Re-exported: the checker's protocol registry is the task catalogue.
from ..core.catalogue import CORE_PROTOCOLS as CORE_PROTOCOLS
from ..core.catalogue import PROTOCOLS as PROTOCOLS
from ..core.catalogue import ProtocolSpec
from ..core.protocol import HetStatus, Outcome
from ..obs.events import Event, EventType
from ..sim import pidset
from ..sim.runtime import SimulationResult

#: The event types a fold observes; drivers skip every other event.
FOLDED_EVENTS = frozenset({
    EventType.PROC_DECIDE, EventType.COIN_FLIP, EventType.SCHED_CRASH,
    EventType.REG_PUT,
})


# ---------------------------------------------------------------------------
# Protocol registry: the rows of :mod:`repro.core.catalogue`, plus the service
# ---------------------------------------------------------------------------


#: The election service (``repro serve``).  Deliberately *not* in
#: :data:`PROTOCOLS`: the ``--protocol`` choices of ``repro check`` must
#: all be runnable through :func:`run_protocol`, while service runs are
#: produced live by :class:`~repro.net.service.ElectionService` and
#: checked through :func:`evaluate_service_run`.
SERVICE_SPEC = ProtocolSpec(
    "service", "serve", "lease", make=None,
    claim="Figure 3 / Theorem 4.2 generalized: one independent, epoch-fenced "
    "leader election per key in the service namespace",
)


def run_protocol(
    spec: ProtocolSpec,
    n: int,
    k: int | None,
    adversary,
    seed: int,
    pattern: str = "first",
    sink=None,
    check: bool = False,
    telemetry=None,
):
    """Run one execution of ``spec`` and return its Run object.

    Checking is off by default (``check=False``) so specification
    violations surface as invariant verdicts rather than raised
    exceptions — the explorer wants to *record* a violation, not die on
    it.  Trace recording and replay run checked, with ``telemetry`` as a
    second sink.
    """
    from ..harness.runners import (
        run_leader_election,
        run_renaming,
        run_sifting_phase,
    )

    common = dict(
        n=n, k=k, adversary=adversary, seed=seed, pattern=pattern,
        check=check, sink=sink, telemetry=telemetry,
    )
    if spec.task == "elect":
        return run_leader_election(algorithm=spec.algorithm, **common)
    if spec.task == "sift":
        return run_sifting_phase(kind=spec.algorithm, **common)
    if spec.task == "rename":
        return run_renaming(algorithm=spec.algorithm, **common)
    raise ValueError(f"unknown task {spec.task!r} for protocol {spec.name!r}")


# ---------------------------------------------------------------------------
# Per-run evaluation context
# ---------------------------------------------------------------------------


class CheckContext:
    """Everything a verdict may inspect about one finished execution.

    Wraps the Run object the harness produced, its
    :class:`~repro.sim.runtime.SimulationResult`, and (when available)
    the full structured event stream — which is how coin-flip-dependent
    invariants such as ``no_false_death`` see the flips.
    """

    __slots__ = ("spec", "run", "result", "events")

    def __init__(
        self,
        spec: ProtocolSpec,
        run: Any,
        events: Sequence[Event] | None = None,
    ) -> None:
        self.spec = spec
        self.run = run
        self.result: SimulationResult = run.result
        self.events = list(events) if events is not None else None

    @property
    def k(self) -> int:
        """Number of participants in the execution."""
        return self.run.k

    @property
    def crash_free(self) -> bool:
        """True iff no processor crashed during the execution."""
        return not self.result.crashed

    @property
    def survivors(self) -> int:
        """Participants that returned SURVIVE (sifting tasks)."""
        return sum(
            1 for decision in self.result.decisions.values()
            if decision.result is Outcome.SURVIVE
        )

    @property
    def winners(self) -> list[int]:
        """Pids that returned WIN (election tasks)."""
        return [
            pid for pid, decision in self.result.decisions.items()
            if decision.result is Outcome.WIN
        ]

    def items(self) -> Iterable[Any]:
        """What the folds observe, in order.

        A service run's grants; else the captured events of
        :data:`FOLDED_EVENTS`; with no stream, the decide events rebuilt
        from the decisions in decide-time order.
        """
        if self.spec.task == "serve":
            return self.run.history
        if self.events is not None:
            return (e for e in self.events if e.etype in FOLDED_EVENTS)
        decided = sorted(
            self.result.decisions.values(), key=attrgetter("decide_time")
        )
        return (
            Event(d.decide_time, EventType.PROC_DECIDE, d.pid, {"result": d.result})
            for d in decided
        )


# ---------------------------------------------------------------------------
# Ensemble statistics
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class TrialStats:
    """Compact, picklable digest of one explored run.

    This is what crosses process boundaries from explorer workers and
    what ensemble invariants aggregate over.
    """

    index: int
    adversary: str
    mode: str
    seed: int
    n: int
    k: int
    terminated: bool
    crashed: int
    survivors: int
    winner_count: int
    decided: int

    @property
    def survivor_fraction(self) -> float:
        """Surviving fraction of the participant set."""
        return self.survivors / self.k if self.k else 0.0


@dataclass(frozen=True, slots=True)
class EnsembleVerdict:
    """An ensemble invariant's violation: message plus witness run."""

    message: str
    witness_index: int


# ---------------------------------------------------------------------------
# Invariant definitions
# ---------------------------------------------------------------------------


class Fold:
    """One invariant's state over one run, built fresh from ``k``.

    Each method returns a violation message or ``None``.  A fold that
    overrides ``observe`` *streams*: it can fail a run mid-flight.
    Drivers stop asking a fold once it has reported.
    """

    __slots__ = ()

    def __init__(self, k: int | None = None) -> None:
        pass

    def observe(self, item: Any) -> str | None:
        """Judge one item; ``None`` while the run so far is clean."""
        return None

    def verdict(self, ctx: CheckContext) -> str | None:
        """Judge the finished run; ``None`` when it holds."""
        return None


def _verdict_only(check: Callable[[CheckContext], str | None]) -> type[Fold]:
    """The fold of an invariant only the finished run can judge."""
    return type(check.__name__, (Fold,), {
        "__slots__": (), "verdict": lambda self, ctx: check(ctx),
    })


@dataclass(frozen=True)
class Invariant:
    """One named, machine-checkable property of a protocol.

    ``fold`` is the invariant's one definition.  For scope ``run`` it is
    the property itself; for scope ``ensemble`` it is the per-run
    witness, and ``check_ensemble`` maps the full :class:`TrialStats`
    list to an :class:`EnsembleVerdict` or ``None``.  ``stream_name`` is
    the name a stream reports the fold under (default ``name``).
    """

    name: str
    claim: str
    scope: str  # "run" | "ensemble"
    tasks: tuple[str, ...]
    description: str
    fold: type[Fold]
    check_ensemble: Callable[[Sequence[TrialStats]], EnsembleVerdict | None] | None = None
    stream_name: str = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.scope not in ("run", "ensemble"):
            raise ValueError(f"unknown invariant scope {self.scope!r}")
        if self.scope == "ensemble" and self.check_ensemble is None:
            raise ValueError(
                f"ensemble invariant {self.name!r} needs check_ensemble()"
            )
        if self.stream_name is None:
            object.__setattr__(self, "stream_name", self.name)

    @property
    def streams(self) -> bool:
        """True when the fold judges items one at a time."""
        return self.fold.observe is not Fold.observe

    def check(self, ctx: CheckContext) -> str | None:
        """Fold one finished run: the violation message, or ``None``."""
        return _fold_run(ctx, [self]).get(self.name)

    def witness(self, ctx: CheckContext) -> bool:
        """The per-run predicate the shrinker preserves while minimizing.

        A run-scope invariant is witnessed by its own violation; an
        ensemble one by a complete, crash-free run its fold flags.
        """
        if self.scope == "ensemble" and not (
            ctx.crash_free and ctx.result.terminated
        ):
            return False
        return self.check(ctx) is not None


def _fold_run(
    ctx: CheckContext, invariants: Sequence[Invariant]
) -> dict[str, str]:
    """Fold ``ctx``'s items through fresh folds, then ask each verdict.

    Returns ``{invariant name: first violation message}``; a fold that
    reported while observing is not asked for a verdict.
    """
    folds = [(inv.name, inv.fold(ctx.k)) for inv in invariants]
    watching = [pair for pair, inv in zip(folds, invariants) if inv.streams]
    found: dict[str, str] = {}
    if watching:
        for item in ctx.items():
            for name, fold in watching:
                if name in found:
                    continue
                message = fold.observe(item)
                if message is not None:
                    found[name] = message
    for name, fold in folds:
        if name not in found:
            message = fold.verdict(ctx)
            if message is not None:
                found[name] = message
    return found


def _decided(item: Event) -> Any:
    """A ``proc.decide`` event's value as a plain value.

    Live streams carry :class:`~repro.core.protocol.Outcome` members,
    replayed JSONL traces their strings; names (ints) pass through.
    """
    result = item.fields.get("result")
    return result._value_ if isinstance(result, Outcome) else result


class _ValidOutcomes(Fold):
    """Each decision, checked in isolation, is one of ``allowed``."""

    __slots__ = ()
    allowed: tuple[str, ...] = ()

    def observe(self, item: Event) -> str | None:
        if item.etype != EventType.PROC_DECIDE:
            return None
        if _decided(item) not in self.allowed:
            value = item.fields.get("result")
            return f"outcomes outside {list(self.allowed)}: p{item.pid}={value!r}"
        return None


class _ValidElectionOutcomes(_ValidOutcomes):
    __slots__ = ()
    allowed = ("win", "lose")


class _ValidSiftOutcomes(_ValidOutcomes):
    __slots__ = ()
    allowed = ("survive", "die")


class _UniqueWinner(Fold):
    """The second WIN decision is a violation the instant it happens."""

    __slots__ = ("_winner",)

    def __init__(self, k: int | None = None) -> None:
        self._winner: int | None = None

    def observe(self, item: Event) -> str | None:
        if (
            item.etype != EventType.PROC_DECIDE
            or _decided(item) != "win"
        ):
            return None
        if self._winner is not None:
            return f"multiple winners: {sorted((self._winner, item.pid))}"
        self._winner = item.pid
        return None


def _check_winner_exists(ctx: CheckContext) -> str | None:
    if (
        ctx.crash_free
        and ctx.result.terminated
        and ctx.result.decisions
        and not ctx.winners
    ):
        return "every participant returned LOSE in a crash-free execution"
    return None


def _check_election_linearizable(ctx: CheckContext) -> str | None:
    """Lemma A.3 in closed form: the test-and-set linearizability rule.

    Encode the winner's operation as a WRITE over its invocation
    interval and every LOSE as a READ that must see it.  That history is
    linearizable iff no LOSE responds before the earliest winner's
    invocation, or — with no winner decided — before some pending
    (crashed or undecided) invoker's.
    """
    decisions = ctx.result.decisions
    first_lose = min(
        (
            decision.decide_time for decision in decisions.values()
            if decision.result is Outcome.LOSE
        ),
        default=None,
    )
    if first_lose is None:
        return None
    winners = ctx.winners
    if winners:
        winner = min(winners, key=lambda pid: decisions[pid].start_time)
        start = decisions[winner].start_time
        if start <= first_lose:
            return None
        return (
            f"not linearizable: some LOSE responded before winner "
            f"p{winner}'s invocation at t={start}"
        )
    result = ctx.result
    if any(
        start <= first_lose
        for pid, start in result.start_times.items()
        if pid in result.crashed or pid in result.undecided
    ):
        return None
    return (
        "not linearizable: processors lost but no pending operation can "
        "be ordered as the winner before the first LOSE"
    )


def _check_terminates(ctx: CheckContext) -> str | None:
    if ctx.crash_free and not ctx.result.terminated:
        return (
            f"crash-free execution left participants "
            f"{sorted(ctx.result.undecided)} undecided"
        )
    return None


def _check_at_least_one_survivor(ctx: CheckContext) -> str | None:
    if (
        ctx.crash_free
        and ctx.result.terminated
        and ctx.result.decisions
        and ctx.survivors == 0
    ):
        return (
            f"all {len(ctx.result.decisions)} participants died in a "
            f"crash-free sifting phase"
        )
    return None


class _NoFalseDeath(Fold):
    """A DIE after a high (1) sifter coin, or by a sole participant."""

    __slots__ = ("_sole", "_last_coin")

    def __init__(self, k: int | None = None) -> None:
        self._sole = k == 1
        self._last_coin: dict[int, Any] = {}

    def observe(self, item: Event) -> str | None:
        if item.etype == EventType.COIN_FLIP:
            if str(item.fields.get("label", "")).endswith(".coin"):
                self._last_coin[item.pid] = item.fields.get("value")
            return None
        if (
            item.etype != EventType.PROC_DECIDE
            or _decided(item) != "die"
        ):
            return None
        if self._sole:
            return "the sole participant died"
        if self._last_coin.get(item.pid) == 1:
            return f"p{item.pid} flipped 1 (high priority) but returned DIE"
        return None


class _LearnedClosure(Fold):
    """Claim 3.3 bookkeeping, checked at each announced ``L`` set.

    A ``*.learned`` put must contain its announcer and the members of
    the announcer's own ``*.Status`` entry, both pidset bitmask ints.
    """

    __slots__ = ("_members",)

    def __init__(self, k: int | None = None) -> None:
        self._members: dict[int, int] = {}

    def observe(self, item: Event) -> str | None:
        if item.etype != EventType.REG_PUT:
            return None
        var = str(item.fields.get("var", ""))
        value = item.fields.get("value")
        pid = item.pid
        if var.endswith(".learned") and isinstance(value, int):
            if not pidset.contains(value, pid):
                return f"p{pid} announced an L set that omits itself"
            members = self._members.get(pid, pidset.EMPTY)
            if not pidset.is_subset(members, value):
                missing = pidset.to_frozenset(members & ~value)
                return (
                    f"p{pid}'s L set omits {sorted(missing)} from its own "
                    f"observed list — the closure bookkeeping of Figure 2 "
                    f"lines 26-27 was violated"
                )
        elif var.endswith(".Status") and item.fields.get("key") == pid:
            # Live streams carry the HetStatus; a stream read back from
            # JSONL carries its {"members": ..., "state": ...} mapping.
            if isinstance(value, HetStatus):
                self._members[pid] = value.members
            elif isinstance(value, dict) and isinstance(value.get("members"), int):
                self._members[pid] = value["members"]
        return None


class _NamesUnique(Fold):
    """The first duplicate name is flagged at its decide event."""

    __slots__ = ("_owner",)

    def __init__(self, k: int | None = None) -> None:
        self._owner: dict[Any, int] = {}

    def observe(self, item: Event) -> str | None:
        if item.etype != EventType.PROC_DECIDE:
            return None
        name = _decided(item)
        owner = self._owner.setdefault(name, item.pid)
        if owner == item.pid:
            return None
        duplicates = {name: sorted((owner, item.pid))}
        return f"duplicate names assigned: {duplicates}"


def _check_names_in_range(ctx: CheckContext) -> str | None:
    bad = {
        pid: decision.result
        for pid, decision in ctx.result.decisions.items()
        if not isinstance(decision.result, int)
        or not 0 <= decision.result < ctx.result.n
    }
    if bad:
        return f"names outside [0, {ctx.result.n}): {bad}"
    return None


#: A run qualifies for the sifting-effectiveness ensemble when it is a
#: full, crash-free phase over a non-trivial participant set.
SIFTING_MIN_K = 8
#: Minimum qualifying runs per adversary group before the mean is judged.
SIFTING_MIN_GROUP = 4
#: Maximum tolerated mean survivor fraction per adversary group.  The
#: real sifters stay under ~0.45 at simulation scale under every
#: adversary; the naive sifter under the coin-aware adversary sits at
#: ~0.95 (see docs/checking.md for the calibration data).
SIFTING_MAX_MEAN_FRACTION = 0.8
#: The per-run witness predicate threshold for shrinking.
SIFTING_WITNESS_FRACTION = 0.8


class _SiftingWitness(Fold):
    """The per-run witness of ``sifting_effective`` (Claim 3.2).

    Counts SURVIVE decisions; once ``ceil(SIFTING_WITNESS_FRACTION * k)``
    participants (``k >= SIFTING_MIN_K``) survived, this one run already
    meets the ensemble's witness predicate, before the rest decide.  The
    first crash disarms it: the ensemble judges crash-free phases only.
    """

    __slots__ = ("_k", "_threshold", "_survivors")

    def __init__(self, k: int | None = None) -> None:
        self._k = k
        self._threshold: int | None = (
            math.ceil(SIFTING_WITNESS_FRACTION * k)
            if k is not None and k >= SIFTING_MIN_K else None
        )
        self._survivors = 0

    def observe(self, item: Event) -> str | None:
        if self._threshold is None:
            return None
        if item.etype == EventType.SCHED_CRASH:
            self._threshold = None
            return None
        if (
            item.etype != EventType.PROC_DECIDE
            or _decided(item) != "survive"
        ):
            return None
        self._survivors += 1
        if self._survivors < self._threshold:
            return None
        return (
            f"{self._survivors}/{self._k} participants already survived "
            f"(>= {SIFTING_WITNESS_FRACTION:.0%} witness threshold) in a "
            f"crash-free phase: the sifter is not sifting"
        )


def _sifting_qualifies(stats: TrialStats) -> bool:
    return (
        stats.terminated
        and stats.crashed == 0
        and stats.k >= SIFTING_MIN_K
        and stats.decided == stats.k
    )


def _check_sifting_effective(
    trials: Sequence[TrialStats],
) -> EnsembleVerdict | None:
    groups: dict[str, list[TrialStats]] = {}
    for stats in trials:
        if _sifting_qualifies(stats):
            groups.setdefault(stats.adversary, []).append(stats)
    for adversary, group in sorted(groups.items()):
        if len(group) < SIFTING_MIN_GROUP:
            continue
        mean = sum(stats.survivor_fraction for stats in group) / len(group)
        if mean >= SIFTING_MAX_MEAN_FRACTION:
            witness = max(group, key=lambda stats: stats.survivor_fraction)
            return EnsembleVerdict(
                message=(
                    f"mean survivor fraction {mean:.2f} >= "
                    f"{SIFTING_MAX_MEAN_FRACTION} over {len(group)} runs "
                    f"under adversary {adversary!r}: the sifter fails to "
                    f"eliminate contenders (worst run kept "
                    f"{witness.survivors}/{witness.k})"
                ),
                witness_index=witness.index,
            )
    return None


def _check_lease_unique_holder(ctx: CheckContext) -> str | None:
    """At most one grant per ``(key, epoch)`` — the service's Lemma A.2.

    Post hoc only: in grant order a second holder for a ``(key, epoch)``
    is also an epoch regression, so the grant gate needs only the fence.
    """
    seen: dict[tuple[str, int], str] = {}
    for record in ctx.run.history:
        slot = (record.key, record.epoch)
        if slot in seen and seen[slot] != record.holder:
            return (
                f"two holders for {record.key!r} epoch {record.epoch}: "
                f"{seen[slot]!r} and {record.holder!r}"
            )
        seen.setdefault(slot, record.holder)
    return None


class _LeaseEpochMonotonic(Fold):
    """Per key, grant epochs strictly increase in grant order."""

    __slots__ = ("_floor",)

    def __init__(self, k: int | None = None) -> None:
        self._floor: dict[str, int] = {}

    def observe(self, item: Any) -> str | None:
        previous = self._floor.get(item.key)
        if previous is not None and item.epoch <= previous:
            return (
                f"key {item.key!r} granted to {item.holder!r} at epoch "
                f"{item.epoch} but the fencing floor is {previous} — "
                f"stale-epoch double grant"
            )
        self._floor[item.key] = item.epoch
        return None


def _check_lease_no_overlap(ctx: CheckContext) -> str | None:
    """Per key, grant intervals never overlap: one leader at a time.

    A still-open grant (``ended_ns is None``) is fine only as the *last*
    grant of its key; any grant that starts before its predecessor ended
    means two sessions simultaneously believed they held the key.
    """
    by_key: dict[str, list[Any]] = {}
    for record in ctx.run.history:
        by_key.setdefault(record.key, []).append(record)
    for key, records in by_key.items():
        records.sort(key=lambda record: record.granted_ns)
        for previous, current in zip(records, records[1:]):
            if previous.ended_ns is None:
                return (
                    f"{key!r} epoch {current.epoch} granted while epoch "
                    f"{previous.epoch} (holder {previous.holder!r}) was "
                    f"still open"
                )
            if current.granted_ns < previous.ended_ns:
                return (
                    f"{key!r} epoch {current.epoch} granted at "
                    f"t={current.granted_ns} before epoch "
                    f"{previous.epoch} ended at t={previous.ended_ns}"
                )
    return None


def evaluate_service_run(run: Any) -> list[tuple[str, str]]:
    """Check every serve-task invariant against one service history.

    ``run`` is a :class:`~repro.net.service.ServiceRun` digest.  Returns
    ``(invariant name, violation message)`` pairs, empty when the
    namespace kept at most one fenced leader per ``(key, epoch)``.
    """
    return evaluate_run(SERVICE_SPEC, run)


#: Registry of every invariant, keyed by name.
INVARIANTS: dict[str, Invariant] = {
    inv.name: inv
    for inv in (
        Invariant(
            "valid_election_outcomes", "Section 2 (problem statement)",
            "run", ("elect",),
            "Every decided participant returns WIN or LOSE.",
            fold=_ValidElectionOutcomes,
        ),
        Invariant(
            "unique_winner", "Lemma A.2",
            "run", ("elect",),
            "At most one participant returns WIN.",
            fold=_UniqueWinner,
        ),
        Invariant(
            "winner_exists", "Lemma A.1",
            "run", ("elect",),
            "A crash-free, fully-decided election elects somebody.",
            fold=_verdict_only(_check_winner_exists),
        ),
        Invariant(
            "election_linearizable", "Lemma A.3",
            "run", ("elect",),
            "No LOSE responds before the (possibly pending) winner's "
            "invocation — the closed form of linearizing the execution as "
            "an atomic test-and-set.",
            fold=_verdict_only(_check_election_linearizable),
        ),
        Invariant(
            "election_terminates", "Lemma A.1 (termination)",
            "run", ("elect",),
            "Crash-free executions decide every participant.",
            fold=_verdict_only(_check_terminates),
        ),
        Invariant(
            "valid_sift_outcomes", "Figures 1-2 (return values)",
            "run", ("sift",),
            "Every decided participant returns SURVIVE or DIE.",
            fold=_ValidSiftOutcomes,
        ),
        Invariant(
            "at_least_one_survivor", "Claim 3.1",
            "run", ("sift",),
            "If every participant returns, at least one survives.",
            fold=_verdict_only(_check_at_least_one_survivor),
        ),
        Invariant(
            "no_false_death", "Figures 1-2 (survival rule)",
            "run", ("sift",),
            "A participant that flipped high priority never dies, and a "
            "sole participant always survives.",
            fold=_NoFalseDeath,
        ),
        Invariant(
            "learned_closure", "Claim 3.3 (closure bookkeeping)",
            "run", ("sift",),
            "Every announced L set (a pidset bitmask) contains its "
            "announcer and the announcer's own observed list; skipped "
            "for non-heterogeneous sifters and uncaptured event streams.",
            fold=_LearnedClosure,
        ),
        Invariant(
            "sifting_effective", "Claim 3.2 / Lemmas 3.6-3.7",
            "ensemble", ("sift",),
            "Across the exploration budget, no adversary holds the mean "
            "survivor fraction at ~1: a sifter must actually sift.  Its "
            "per-run witness streams as sifting_witness.",
            fold=_SiftingWitness,
            check_ensemble=_check_sifting_effective,
            stream_name="sifting_witness",
        ),
        Invariant(
            "names_unique", "Lemma A.6 (uniqueness)",
            "run", ("rename",),
            "No two participants decide the same name.",
            fold=_NamesUnique,
        ),
        Invariant(
            "names_in_range", "Lemma A.6 (namespace)",
            "run", ("rename",),
            "Every decided name is an integer in [0, n).",
            fold=_verdict_only(_check_names_in_range),
        ),
        Invariant(
            "renaming_terminates", "Lemma A.6 (termination)",
            "run", ("rename",),
            "Crash-free executions decide every participant.",
            fold=_verdict_only(_check_terminates),
        ),
        Invariant(
            "lease_unique_holder", "Theorem 4.2 per name (service)",
            "run", ("serve",),
            "At most one holder is ever granted a given (key, epoch).",
            fold=_verdict_only(_check_lease_unique_holder),
        ),
        Invariant(
            "lease_epoch_monotonic", "epoch fencing (service)",
            "run", ("serve",),
            "Per key, grant epochs strictly increase: a stale fencing "
            "token can never win a later election.",
            fold=_LeaseEpochMonotonic,
        ),
        Invariant(
            "lease_no_overlap", "mutual exclusion (service)",
            "run", ("serve",),
            "Per key, grant intervals never overlap: successive leaders "
            "hand off, they do not coexist.",
            fold=_verdict_only(_check_lease_no_overlap),
        ),
    )
}


def invariants_for(
    task: str, names: Sequence[str] | None = None
) -> list[Invariant]:
    """The invariants applicable to ``task``, optionally filtered by name.

    Unknown names raise ``ValueError`` so CLI typos fail loudly rather
    than silently checking nothing.
    """
    if names is not None:
        unknown = sorted(set(names) - set(INVARIANTS))
        if unknown:
            raise ValueError(
                f"unknown invariants {unknown}; known: {sorted(INVARIANTS)}"
            )
    selected = [
        inv for inv in INVARIANTS.values()
        if task in inv.tasks and (names is None or inv.name in names)
    ]
    return selected


def stream_folds(
    task: str, k: int | None = None, names: Sequence[str] | None = None
) -> list[tuple[str, Fold]]:
    """Fresh ``(stream name, fold)`` pairs of every streaming fold of ``task``.

    ``names`` filters by stream name; a name no fold streams under
    raises ``ValueError``.
    """
    streaming = [inv for inv in INVARIANTS.values() if inv.streams]
    if names is not None:
        unknown = sorted(set(names) - {inv.stream_name for inv in streaming})
        if unknown:
            raise ValueError(
                f"unknown streaming invariants {unknown}; known: "
                f"{sorted(inv.stream_name for inv in streaming)}"
            )
    return [
        (inv.stream_name, inv.fold(k)) for inv in streaming
        if task in inv.tasks and (names is None or inv.stream_name in names)
    ]


def evaluate_run(
    spec: ProtocolSpec,
    run: Any,
    events: Sequence[Event] | None = None,
    invariants: Sequence[Invariant] | None = None,
) -> list[tuple[str, str]]:
    """Evaluate every run-scope invariant against one execution.

    ``invariants`` defaults to all of ``spec``'s task.  Returns
    ``(invariant name, violation message)`` pairs in registry order; an
    empty list means the run satisfied all of them.
    """
    if invariants is None:
        invariants = invariants_for(spec.task)
    selected = [inv for inv in invariants if inv.scope == "run"]
    found = _fold_run(CheckContext(spec, run, events), selected)
    return [(inv.name, found[inv.name]) for inv in selected if inv.name in found]


def stats_for(
    spec: ProtocolSpec,
    run: Any,
    index: int,
    adversary: str,
    mode: str,
    seed: int,
) -> TrialStats:
    """Build the compact :class:`TrialStats` digest of one execution."""
    ctx = CheckContext(spec, run)
    return TrialStats(
        index=index,
        adversary=adversary,
        mode=mode,
        seed=seed,
        n=run.n,
        k=run.k,
        terminated=ctx.result.terminated,
        crashed=len(ctx.result.crashed),
        survivors=ctx.survivors,
        winner_count=len(ctx.winners),
        decided=len(ctx.result.decisions),
    )
