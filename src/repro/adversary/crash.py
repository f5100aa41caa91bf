"""Crash-failure injection, composable with any scheduling strategy.

The model allows the adversary to crash up to ``t <= ceil(n/2) - 1``
processors at any point.  These wrappers add that capability to an inner
scheduler:

* :class:`CrashingAdversary` crashes specific processors at specific
  event counts (deterministic failure injection for tests);
* :class:`RandomCrashAdversary` crashes uniformly random alive processors
  at a configured rate until a budget is spent (stochastic fault storms
  for property tests).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..sim.rng import make_stream
from ..sim.runtime import Action, Crash
from .base import Adversary

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.runtime import Simulation


class CrashingAdversary(Adversary):
    """Crash ``pid`` once ``events_executed`` reaches ``at_event``.

    ``schedule`` is a sequence of ``(at_event, pid)`` pairs; crashes fire in
    order, each as soon as the event counter passes its trigger.
    """

    name = "crashing"

    def __init__(self, inner: Adversary, schedule: Sequence[tuple[int, int]]) -> None:
        self._inner = inner
        self._schedule = sorted(schedule)
        self._next = 0
        self.name = f"crashing+{inner.name}"
        # Pool-capability needs are the inner scheduler's; crash injection
        # itself never reads the pool.
        self.uses_endpoint_indexes = inner.uses_endpoint_indexes
        self.uses_message_objects = inner.uses_message_objects

    def setup(self, sim: "Simulation") -> None:
        """Rewind the crash-schedule cursor (adversary reuse contract).

        Without the rewind, a reused instance would skip every crash the
        previous run already fired — e.g. when re-running a recorded
        execution for analysis or shrinking — silently producing a
        crash-free schedule instead of the recorded one.
        """
        self._next = 0
        self._inner.setup(sim)

    def choose(self, sim: "Simulation") -> Action | None:
        """Fire any due scheduled crash, else defer to the inner scheduler."""
        while self._next < len(self._schedule):
            at_event, pid = self._schedule[self._next]
            if sim.metrics.events_executed < at_event:
                break
            self._next += 1
            if pid not in sim.crashed and sim.crashes_remaining > 0:
                return Crash(pid)
        return self._inner.choose(sim)


class RandomCrashAdversary(Adversary):
    """Crash a random alive processor with probability ``rate`` per action."""

    name = "random_crash"

    def __init__(
        self,
        inner: Adversary,
        rate: float = 0.001,
        seed: int = 0,
        max_crashes: int | None = None,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be within [0, 1]")
        self._inner = inner
        self._rate = rate
        self._seed = seed
        self._rng = make_stream(seed, "adversary/random_crash")
        self._max_crashes = max_crashes
        self.name = f"random_crash+{inner.name}"
        # Pool-capability needs are the inner scheduler's; crash injection
        # itself never reads the pool.
        self.uses_endpoint_indexes = inner.uses_endpoint_indexes
        self.uses_message_objects = inner.uses_message_objects

    def setup(self, sim: "Simulation") -> None:
        """Re-derive the crash RNG (adversary reuse contract).

        The stream is consumed as the run progresses; re-deriving it from
        the stored seed makes a reused instance crash at the same points
        as a fresh one, so runs stay pure functions of ``(seed, inner)``.
        """
        self._rng = make_stream(self._seed, "adversary/random_crash")
        self._inner.setup(sim)

    def choose(self, sim: "Simulation") -> Action | None:
        """Maybe crash a random alive processor, else defer to the inner scheduler."""
        crashed = sim.crashed  # a fresh frozenset per read: read it once
        budget = sim.crashes_remaining
        if self._max_crashes is not None:
            budget = min(budget, self._max_crashes - len(crashed))
        if budget > 0 and self._rng.random() < self._rate:
            alive = [pid for pid in range(sim.n) if pid not in crashed]
            if alive:
                return Crash(alive[self._rng.randrange(len(alive))])
        return self._inner.choose(sim)
