"""Seeded fault-injection plans for the socket backend.

The simulator gives the adversary total scheduling power; a real network
gives whatever the kernel does.  A :class:`ChaosPlan` closes part of that
gap by perturbing the data-plane links deterministically from a seed:

* **drop** — the frame is never written (the sender's RPC times out and
  retries with backoff, exactly as it would on a lossy network);
* **delay** — the write is postponed by a uniform draw from
  ``delay_ms``, reordering traffic across links;
* **duplicate** — the frame is written twice (receivers must be
  idempotent — register merges are, by the join-semilattice argument);
* **partition** — every frame on the named directed links is dropped
  until the partition heals at ``heal_ms`` (``None`` = never heals).

Every sender — a node's peer links, the service's replies, a client's
requests — applies a drawn fate through :func:`apply_fate`: drop the
frame, or write it and its duplicates together once any delay passes.

Decisions are drawn per ``(src, dst)`` link from independent RNG streams
(:func:`~repro.sim.rng.make_stream`), so the *plan* — which frame
numbers on which links are dropped, delayed, or duplicated — is a pure
function of the seed, even though wall-clock interleaving is not.

Liveness: the quorum ``communicate`` primitive needs ``floor(n/2) + 1``
reachable processors (the caller included).  A plan with ``drop < 1``
and healing partitions always terminates (retries eventually land); a
permanent partition that cuts the caller off from every quorum makes the
run hang until the driver's deadline — the faithful analogue of the
paper's crashed-majority regime.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Any, Callable

from ..sim.rng import derive_seed, make_stream


@dataclass(frozen=True, slots=True)
class Partition:
    """A directed link cut: frames from ``src`` pids to ``dst`` pids drop.

    Cutting both directions takes two entries (or listing the pids in
    both ``src`` and ``dst``).  ``heal_ms`` is measured from node start.
    """

    src: tuple[int, ...]
    dst: tuple[int, ...]
    heal_ms: float | None = None

    def blocks(self, src: int, dst: int, elapsed_ms: float) -> bool:
        """True iff this partition currently drops ``src -> dst`` frames."""
        if self.heal_ms is not None and elapsed_ms >= self.heal_ms:
            return False
        return src in self.src and dst in self.dst

    def to_obj(self) -> dict[str, Any]:
        """The JSON object form used inside a plan file."""
        return {"src": list(self.src), "dst": list(self.dst), "heal_ms": self.heal_ms}

    @classmethod
    def from_obj(cls, obj: dict[str, Any]) -> "Partition":
        """Rebuild a partition from its :meth:`to_obj` form."""
        return cls(
            src=tuple(int(pid) for pid in obj["src"]),
            dst=tuple(int(pid) for pid in obj["dst"]),
            heal_ms=None if obj.get("heal_ms") is None else float(obj["heal_ms"]),
        )


@dataclass(frozen=True, slots=True)
class FrameFate:
    """What the plan decided for one frame on one link."""

    drop: bool = False
    delay_s: float = 0.0
    duplicates: int = 0

    @property
    def clean(self) -> bool:
        """True iff the frame passes through untouched."""
        return not self.drop and self.delay_s == 0.0 and self.duplicates == 0


#: The fate of a frame under no chaos (shared: FrameFate is frozen).
CLEAN_FATE = FrameFate()


@dataclass(frozen=True, slots=True)
class ChaosPlan:
    """A complete, seed-deterministic fault-injection configuration."""

    seed: int = 0
    drop: float = 0.0
    delay: float = 0.0
    delay_ms: tuple[float, float] = (1.0, 25.0)
    duplicate: float = 0.0
    partitions: tuple[Partition, ...] = ()

    def __post_init__(self) -> None:
        for name in ("drop", "delay", "duplicate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} rate must be within [0, 1], got {rate}")
        if self.drop >= 1.0 and self.drop != 0.0:
            # drop == 1.0 is allowed only through a partition (which can
            # heal); a blanket always-drop plan can never terminate.
            raise ValueError("blanket drop rate 1.0 can never terminate; "
                             "use a partition with heal_ms instead")
        lo, hi = self.delay_ms
        if lo < 0 or hi < lo:
            raise ValueError(f"delay_ms must be 0 <= lo <= hi, got {self.delay_ms}")

    @property
    def active(self) -> bool:
        """True iff the plan injects any fault at all."""
        return bool(
            self.drop or self.delay or self.duplicate or self.partitions
        )

    def link(self, src: int, dst: int) -> "LinkChaos":
        """The per-link decision stream for frames from ``src`` to ``dst``."""
        return LinkChaos(self, src, dst)

    def to_obj(self) -> dict[str, Any]:
        """The JSON object form of the plan."""
        return {
            "seed": self.seed,
            "drop": self.drop,
            "delay": self.delay,
            "delay_ms": list(self.delay_ms),
            "duplicate": self.duplicate,
            "partitions": [partition.to_obj() for partition in self.partitions],
        }

    def to_json(self) -> str:
        """Canonical JSON text of the plan (sorted keys)."""
        return json.dumps(self.to_obj(), sort_keys=True, indent=2)

    @classmethod
    def from_obj(cls, obj: dict[str, Any]) -> "ChaosPlan":
        """Rebuild a plan from its :meth:`to_obj` form."""
        unknown = set(obj) - {
            "seed", "drop", "delay", "delay_ms", "duplicate", "partitions"
        }
        if unknown:
            raise ValueError(f"unknown chaos plan keys: {sorted(unknown)}")
        delay_ms = obj.get("delay_ms", (1.0, 25.0))
        return cls(
            seed=int(obj.get("seed", 0)),
            drop=float(obj.get("drop", 0.0)),
            delay=float(obj.get("delay", 0.0)),
            delay_ms=(float(delay_ms[0]), float(delay_ms[1])),
            duplicate=float(obj.get("duplicate", 0.0)),
            partitions=tuple(
                Partition.from_obj(partition)
                for partition in obj.get("partitions", ())
            ),
        )


#: The no-fault plan, shared (ChaosPlan is frozen).
CLEAN_PLAN = ChaosPlan()


def load_plan(path: str) -> ChaosPlan:
    """Load a chaos plan from a JSON file written by :meth:`ChaosPlan.to_json`."""
    with open(path, "r", encoding="utf-8") as fp:
        obj = json.load(fp)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: chaos plan must be a JSON object")
    return ChaosPlan.from_obj(obj)


class LinkChaos:
    """The deterministic fate stream of one directed link.

    Frame ``i`` on link ``src -> dst`` always gets the same fate under
    the same plan, no matter how the surrounding run interleaves: each
    link owns an independent RNG stream derived from the plan seed.
    """

    __slots__ = ("_plan", "src", "dst", "_rng", "frames_seen")

    def __init__(self, plan: ChaosPlan, src: int, dst: int) -> None:
        self._plan = plan
        self.src = src
        self.dst = dst
        self._rng = make_stream(plan.seed, f"chaos/{src}->{dst}")
        self.frames_seen = 0

    def next_fate(self, elapsed_ms: float) -> FrameFate:
        """Decide the fate of the link's next frame.

        ``elapsed_ms`` (since node start) only gates partitions; the
        drop/delay/duplicate draws advance regardless, keeping the
        decision sequence aligned with the frame counter.
        """
        plan = self._plan
        self.frames_seen += 1
        if not plan.active:
            return CLEAN_FATE
        rng = self._rng
        dropped = plan.drop > 0.0 and rng.random() < plan.drop
        delay_s = 0.0
        if plan.delay > 0.0 and rng.random() < plan.delay:
            lo, hi = plan.delay_ms
            delay_s = rng.uniform(lo, hi) / 1000.0
        duplicates = 1 if plan.duplicate > 0.0 and rng.random() < plan.duplicate else 0
        for partition in plan.partitions:
            if partition.blocks(self.src, self.dst, elapsed_ms):
                dropped = True
                break
        if not dropped and delay_s == 0.0 and duplicates == 0:
            return CLEAN_FATE
        return FrameFate(drop=dropped, delay_s=delay_s, duplicates=duplicates)


def apply_fate(
    fate: FrameFate, tasks: set[asyncio.Task], write: Callable[..., None], *args: Any
) -> bool:
    """Apply ``fate`` to one frame that ``write(*args)`` writes.

    A dropped frame is not written, and the result is False.  Otherwise
    the frame is written ``1 + fate.duplicates`` times: now, or, after a
    delay, by one task kept in ``tasks`` until it finishes, so frames
    sent meanwhile overtake it.  The sender counts its own drops and
    delays from the result and ``fate``.
    """
    if fate.drop:
        return False
    if fate.delay_s > 0.0:
        task = asyncio.get_running_loop().create_task(_write_later(fate, write, args))
        tasks.add(task)
        task.add_done_callback(tasks.discard)
    else:
        for _ in range(1 + fate.duplicates):
            write(*args)
    return True


async def _write_later(fate: FrameFate, write: Callable[..., None], args: tuple) -> None:
    await asyncio.sleep(fate.delay_s)
    for _ in range(1 + fate.duplicates):
        write(*args)


def fates_for(
    plan: ChaosPlan, src: int, dst: int, count: int, elapsed_ms: float = 0.0
) -> list[FrameFate]:
    """The first ``count`` fates of one link — the testable plan surface."""
    link = plan.link(src, dst)
    return [link.next_fate(elapsed_ms) for _ in range(count)]


# ---------------------------------------------------------------------------
# Rolling (phased) chaos
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ChaosPhase:
    """One named segment of a rolling chaos schedule."""

    name: str
    duration_ms: float
    plan: ChaosPlan

    def __post_init__(self) -> None:
        if self.duration_ms <= 0:
            raise ValueError(
                f"phase {self.name!r}: duration_ms must be > 0, "
                f"got {self.duration_ms}"
            )

    def to_obj(self) -> dict[str, Any]:
        """The JSON object form used inside a phased plan file."""
        return {
            "name": self.name,
            "duration_ms": self.duration_ms,
            "plan": self.plan.to_obj(),
        }

    @classmethod
    def from_obj(cls, obj: dict[str, Any]) -> "ChaosPhase":
        """Rebuild a phase from its :meth:`to_obj` form."""
        return cls(
            name=str(obj["name"]),
            duration_ms=float(obj["duration_ms"]),
            plan=ChaosPlan.from_obj(obj["plan"]),
        )


@dataclass(frozen=True, slots=True)
class PhasedChaosPlan:
    """A rolling schedule of :class:`ChaosPhase` segments.

    The plan is duck-type compatible with :class:`ChaosPlan` where the
    data plane cares — ``active`` and ``link()`` — so the socket backend
    and the election service accept either.  ``plan_at(elapsed_ms)``
    resolves which phase governs a moment; with ``cycle`` the schedule
    wraps around, so a soak of any duration keeps rotating through
    drop/delay/duplicate/partition/heal weather.

    Phased fates are deterministic *given the frame order within each
    phase*: each ``(phase, link)`` pair owns an independent RNG stream,
    but which phase a frame lands in depends on wall-clock timing.  The
    simulator keeps full determinism; the soak harness records the phase
    schedule (seed + profile) so incidents replay under the same plan.
    """

    seed: int = 0
    phases: tuple[ChaosPhase, ...] = ()
    cycle: bool = True

    @property
    def total_ms(self) -> float:
        """One full rotation of the schedule, in milliseconds."""
        return sum(phase.duration_ms for phase in self.phases)

    @property
    def active(self) -> bool:
        """True iff any phase injects any fault."""
        return any(phase.plan.active for phase in self.phases)

    def resolve(self, elapsed_ms: float) -> tuple[int, ChaosPhase, float] | None:
        """``(index, phase, ms into the phase)`` governing ``elapsed_ms``.

        ``None`` once a non-cycling schedule is exhausted (or if the
        plan has no phases): the weather is clean from then on.
        """
        total = self.total_ms
        if not self.phases or total <= 0:
            return None
        if elapsed_ms >= total:
            if not self.cycle:
                return None
            elapsed_ms = elapsed_ms % total
        at = 0.0
        for index, phase in enumerate(self.phases):
            if elapsed_ms < at + phase.duration_ms:
                return index, phase, elapsed_ms - at
            at += phase.duration_ms
        return len(self.phases) - 1, self.phases[-1], elapsed_ms - (
            total - self.phases[-1].duration_ms
        )

    def plan_at(self, elapsed_ms: float) -> ChaosPlan:
        """The :class:`ChaosPlan` governing ``elapsed_ms`` (clean if none)."""
        resolved = self.resolve(elapsed_ms)
        return CLEAN_PLAN if resolved is None else resolved[1].plan

    def link(self, src: int, dst: int) -> "PhasedLinkChaos":
        """The phase-aware decision stream for frames from ``src`` to ``dst``."""
        return PhasedLinkChaos(self, src, dst)

    def to_obj(self) -> dict[str, Any]:
        """The JSON object form of the phased plan."""
        return {
            "seed": self.seed,
            "cycle": self.cycle,
            "phases": [phase.to_obj() for phase in self.phases],
        }

    def to_json(self) -> str:
        """Canonical JSON text of the phased plan (sorted keys)."""
        return json.dumps(self.to_obj(), sort_keys=True, indent=2)

    @classmethod
    def from_obj(cls, obj: dict[str, Any]) -> "PhasedChaosPlan":
        """Rebuild a phased plan from its :meth:`to_obj` form."""
        unknown = set(obj) - {"seed", "cycle", "phases"}
        if unknown:
            raise ValueError(f"unknown phased plan keys: {sorted(unknown)}")
        return cls(
            seed=int(obj.get("seed", 0)),
            cycle=bool(obj.get("cycle", True)),
            phases=tuple(
                ChaosPhase.from_obj(phase) for phase in obj.get("phases", ())
            ),
        )


class PhasedLinkChaos:
    """The fate stream of one directed link under a rolling schedule.

    Each ``(phase index, link)`` pair owns an independent
    :class:`LinkChaos` stream (created lazily, reused across cycles), so
    fates within a phase stay a pure function of the phase plan's seed
    and the frame order on the link.  Partitions inside a phase are
    gated by time *into the phase*, so ``heal_ms`` shorter than the
    phase duration heals mid-phase.
    """

    __slots__ = ("_plan", "src", "dst", "_links", "frames_seen")

    def __init__(self, plan: PhasedChaosPlan, src: int, dst: int) -> None:
        self._plan = plan
        self.src = src
        self.dst = dst
        self._links: dict[int, LinkChaos] = {}
        self.frames_seen = 0

    def next_fate(self, elapsed_ms: float) -> FrameFate:
        """Decide the next frame's fate under the phase at ``elapsed_ms``."""
        self.frames_seen += 1
        resolved = self._plan.resolve(elapsed_ms)
        if resolved is None:
            return CLEAN_FATE
        index, phase, phase_elapsed = resolved
        link = self._links.get(index)
        if link is None:
            link = self._links[index] = phase.plan.link(self.src, self.dst)
        return link.next_fate(phase_elapsed)


def _split(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A quorum-preserving cut: (strict minority, rest of the cluster)."""
    quorum = n // 2 + 1
    majority = tuple(range(quorum))
    minority = tuple(range(quorum, n))
    return minority, majority


def _profile_gentle(seed: int, n: int) -> PhasedChaosPlan:
    """Light weather: mild loss and jitter with calm recovery windows."""
    def plan(label: str, **kwargs: Any) -> ChaosPlan:
        return ChaosPlan(seed=derive_seed(seed, f"chaos/{label}"), **kwargs)

    return PhasedChaosPlan(seed=seed, phases=(
        ChaosPhase("calm", 2000.0, plan("calm")),
        ChaosPhase("drizzle", 4000.0, plan("drizzle", drop=0.05, delay=0.1)),
        ChaosPhase("recover", 2000.0, plan("recover")),
    ))


def _profile_rolling(seed: int, n: int) -> PhasedChaosPlan:
    """The full rotation: drop, delay, duplicate, partition, heal."""
    def plan(label: str, **kwargs: Any) -> ChaosPlan:
        return ChaosPlan(seed=derive_seed(seed, f"chaos/{label}"), **kwargs)

    minority, majority = _split(n)
    partitions = (
        Partition(src=minority, dst=majority, heal_ms=2000.0),
        Partition(src=majority, dst=minority, heal_ms=2000.0),
    ) if minority else ()
    return PhasedChaosPlan(seed=seed, phases=(
        ChaosPhase("calm", 1500.0, plan("calm")),
        ChaosPhase("drop", 2500.0, plan("drop", drop=0.15)),
        ChaosPhase("delay", 2500.0, plan(
            "delay", delay=0.4, delay_ms=(1.0, 40.0)
        )),
        ChaosPhase("dup", 2000.0, plan("dup", duplicate=0.1)),
        # heal_ms < duration: the cut heals mid-phase, so every rotation
        # exercises the heal boundary while frames are still in flight.
        ChaosPhase("partition", 3000.0, plan(
            "partition", drop=0.02, partitions=partitions
        )),
        ChaosPhase("heal", 1500.0, plan("heal")),
    ))


def _profile_partition_heavy(seed: int, n: int) -> PhasedChaosPlan:
    """Long minority cuts with lossy recovery — the failover grinder."""
    def plan(label: str, **kwargs: Any) -> ChaosPlan:
        return ChaosPlan(seed=derive_seed(seed, f"chaos/{label}"), **kwargs)

    minority, majority = _split(n)
    partitions = (
        Partition(src=minority, dst=majority, heal_ms=3500.0),
        Partition(src=majority, dst=minority, heal_ms=3500.0),
    ) if minority else ()
    return PhasedChaosPlan(seed=seed, phases=(
        ChaosPhase("cut", 4000.0, plan("cut", partitions=partitions)),
        ChaosPhase("lossy-heal", 3000.0, plan(
            "lossy-heal", drop=0.1, delay=0.2
        )),
        ChaosPhase("calm", 2000.0, plan("calm")),
    ))


#: Named chaos profiles: ``name -> builder(seed, n) -> PhasedChaosPlan``.
#: Every builder is a pure function of ``(seed, n)``, so a profile name
#: plus a seed fully determines the soak's fault weather.
CHAOS_PROFILES: dict[str, Callable[[int, int], PhasedChaosPlan]] = {
    "gentle": _profile_gentle,
    "rolling": _profile_rolling,
    "partition-heavy": _profile_partition_heavy,
}


def make_phased_plan(profile: str, seed: int, n: int) -> PhasedChaosPlan:
    """Build a registered chaos profile for an ``n``-node cluster."""
    try:
        builder = CHAOS_PROFILES[profile]
    except KeyError:
        raise ValueError(
            f"unknown chaos profile {profile!r}; "
            f"known: {sorted(CHAOS_PROFILES)}"
        ) from None
    return builder(seed, n)


# Re-exported for plan-construction convenience in tests and tooling.
__all__ = [
    "ChaosPlan",
    "ChaosPhase",
    "PhasedChaosPlan",
    "PhasedLinkChaos",
    "Partition",
    "FrameFate",
    "LinkChaos",
    "CLEAN_PLAN",
    "CLEAN_FATE",
    "CHAOS_PROFILES",
    "load_plan",
    "make_phased_plan",
    "fates_for",
    "apply_fate",
]
