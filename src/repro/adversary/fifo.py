"""Deterministic eager scheduling — the closest thing to a synchronous run.

``EagerAdversary`` always delivers the most recently sent message first
(LIFO over the pool, which is O(1)); when nothing is in flight it steps
the lowest-pid steppable processor.  Deterministic given the protocol's
coin flips, so it is the workhorse scheduler for fast unit tests and for
benchmark baselines where adversarial scheduling is not the point.

``RoundRobinAdversary`` interleaves processors in pid order, stepping each
steppable processor once per sweep and delivering its traffic in between —
an approximation of a synchronous round structure under which per-phase
behaviour is easiest to eyeball.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim.runtime import Action, Step
from .base import Adversary, fallback_action

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.runtime import Simulation


class EagerAdversary(Adversary):
    """Deliver newest-first, then step lowest pid.  Deterministic, fast."""

    name = "eager"
    uses_endpoint_indexes = False  # positional pool API only

    def choose(self, sim: "Simulation") -> Action | None:
        """Deliver newest-first via the deterministic fallback."""
        return fallback_action(sim)


class RoundRobinAdversary(Adversary):
    """Step processors in a rotating pid order; drain messages in between."""

    name = "round_robin"
    uses_endpoint_indexes = False  # positional pool API only

    def __init__(self) -> None:
        self._next_pid = 0

    def setup(self, sim: "Simulation") -> None:
        """Rewind the rotation cursor (adversary reuse contract)."""
        self._next_pid = 0

    def choose(self, sim: "Simulation") -> Action | None:
        """Drain in-flight messages, else step the next processor in rotation."""
        action = sim.in_flight.last_action()
        if action is not None:
            return action
        steppable = sim.steppable
        if not steppable:
            return None
        for offset in range(sim.n):
            pid = (self._next_pid + offset) % sim.n
            if pid in steppable:
                self._next_pid = (pid + 1) % sim.n
                return Step(pid)
        return None
