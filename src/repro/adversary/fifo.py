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

from typing import TYPE_CHECKING, Iterator

from ..sim.messages import deliver_at
from ..sim.runtime import Action, Step
from .base import Adversary

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.runtime import Simulation


class EagerAdversary(Adversary):
    """Deliver newest-first, then step lowest pid.  Deterministic, fast."""

    name = "eager"
    uses_endpoint_indexes = False  # positional pool API only

    def actions(self, sim: "Simulation") -> Iterator[Action | None]:
        """Deliver the newest in-flight leg, else step the lowest pid."""
        descs = sim.in_flight.descriptors
        steppable = sim.steppable
        while True:
            if descs:
                yield deliver_at((len(descs) - 1, descs[-1]))
            elif steppable:
                yield Step(min(steppable))
            else:
                yield None


class RoundRobinAdversary(Adversary):
    """Step processors in a rotating pid order; drain messages in between."""

    name = "round_robin"
    uses_endpoint_indexes = False  # positional pool API only

    def __init__(self) -> None:
        self._next_pid = 0

    def setup(self, sim: "Simulation") -> None:
        """Rewind the rotation cursor (adversary reuse contract)."""
        self._next_pid = 0

    def actions(self, sim: "Simulation") -> Iterator[Action | None]:
        """Drain in-flight messages, else step the next processor in rotation."""
        descs = sim.in_flight.descriptors
        steppable = sim.steppable
        n = sim.n
        while True:
            if descs:
                yield deliver_at((len(descs) - 1, descs[-1]))
            elif steppable:
                pid = self._next_pid
                while pid not in steppable:
                    pid = (pid + 1) % n
                self._next_pid = (pid + 1) % n
                yield Step(pid)
            else:
                yield None
