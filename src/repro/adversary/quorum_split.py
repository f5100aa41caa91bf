"""View-fragmenting scheduler.

Section 1 of the paper distinguishes two extreme schedules for a phase:
everyone communicating with everyone (similar views) versus processors
observing "fragmented views, observing just a subset of other processors".
This adversary produces the second extreme: it partitions the processors
into two halves and preferentially delivers messages whose endpoints lie
in the same half, letting cross-half messages through only when nothing
same-half is available.  Because a quorum needs ``floor(n/2) + 1``
processors, each communicate call is forced to graze the other half only
minimally, so collected views stay as lopsided as the model allows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from ..sim.runtime import Action, Step
from .base import Adversary

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.runtime import Simulation


class QuorumSplitAdversary(Adversary):
    """Prefer same-half deliveries to keep the two halves' views disjoint."""

    name = "quorum_split"
    uses_endpoint_indexes = False  # positional pool API only

    def __init__(self, first_half: Iterable[int] | None = None) -> None:
        self._half_arg: frozenset[int] | None = (
            frozenset(first_half) if first_half is not None else None
        )
        self._half: frozenset[int] | None = self._half_arg

    def setup(self, sim: "Simulation") -> None:
        """Re-derive the default split per run (adversary reuse contract)."""
        self._half = (
            self._half_arg
            if self._half_arg is not None
            else frozenset(range(sim.n // 2))
        )

    def _same_half(self, sender: int, recipient: int) -> bool:
        assert self._half is not None
        return (sender in self._half) == (recipient in self._half)

    def choose(self, sim: "Simulation") -> Action | None:
        """Deliver same-half traffic when possible, leaking cross-half minimally."""
        pool = sim.in_flight
        count = len(pool)
        # Newest-first bounded scan: same-half messages are usually near the
        # top because cross-half ones are exactly the ones we keep skipping.
        for index in range(count - 1, max(count - 64, 0) - 1, -1):
            if self._same_half(*pool.endpoints_at(index)):
                return pool.action_at(index)
        steppable = sim.steppable
        if steppable:
            return Step(min(steppable))
        if count:
            for index in range(count - 1, -1, -1):
                if self._same_half(*pool.endpoints_at(index)):
                    return pool.action_at(index)
            return pool.action_at(count - 1)  # forced cross-half leakage
        return None
