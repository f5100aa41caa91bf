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

from typing import TYPE_CHECKING, Iterable, Iterator

from ..sim.messages import BROADCAST_SHIFT, PID_MASK, deliver_at
from ..sim.runtime import Action, Deliver, Step
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

    def actions(self, sim: "Simulation") -> Iterator[Action | None]:
        """Deliver same-half traffic when possible, leaking cross-half minimally."""
        assert self._half is not None
        half = self._half
        side = [pid in half for pid in range(sim.n)]
        pool = sim.in_flight
        descs, broadcasts = pool.descriptors, pool.broadcasts
        steppable = sim.steppable

        def newest_same_half(start: int, stop: int) -> Deliver | None:
            # A leg is same-half iff its broadcaster and its endpoint pid
            # (recipient of a request, replier of a reply) share a side.
            for index in range(start, stop, -1):
                desc = descs[index]
                sender = broadcasts[desc >> BROADCAST_SHIFT].sender
                if side[sender] == side[desc & PID_MASK]:
                    return deliver_at((index, desc))
            return None

        while True:
            # Newest-first bounded scan: same-half messages are usually
            # near the top because cross-half ones are exactly the ones
            # we keep skipping.
            count = len(descs)
            window = max(count - 64, 0) - 1
            action = newest_same_half(count - 1, window)
            if action is None:
                if steppable:
                    action = Step(min(steppable))
                elif count:
                    # The bounded window held none: scan the rest.
                    action = newest_same_half(window, -1)
                    if action is None:
                        action = deliver_at((count - 1, descs[-1]))  # forced leakage
            yield action
