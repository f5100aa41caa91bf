"""The coin-examining attack from the paper's introduction.

Against the *naive* sifting strawman — flip a biased coin first, then
announce it, and survive unless you flipped 0 and saw a 1 — the strong
adversary wins by looking at the flips: it starts every participant (so
all coins are flipped and announcements are in flight but undelivered),
then runs the 0-flippers to completion *before any 1-flipper's
announcement is delivered*.  Every 0-flipper sees no 1 and survives;
every 1-flipper survives by definition: nobody is eliminated.

The attack needs delivery isolation: while a 0-flipper is the focus, only
messages sent by or addressed to the focus are delivered, so the
1-flippers' announcements stay in flight.  Against PoisonPill the same
schedule is harmless — participants only *commit* in their first step, the
coin is flipped after the commit is propagated, so the commit states kill
the late 0-flippers regardless (the "catch-22" of Section 1).
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Iterator

from ..sim.messages import deliver_at
from ..sim.runtime import Action, Step
from .base import Adversary, FocusCursor, fallback_action

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.runtime import Simulation

_NO_LEGS: dict[int, int] = {}


class CoinAwareAdversary(Adversary):
    """Start everyone, inspect coins, then serialize 0-flippers first."""

    name = "coin_aware"
    uses_endpoint_indexes = True  # reads the endpoint indexes and slot map

    def __init__(self) -> None:
        self._started_all = False
        self._cursor: FocusCursor | None = None
        self._dirty: set[int] = set()
        self._dirty_at: int | None = None

    def setup(self, sim: "Simulation") -> None:
        """Forget the previous run's coin ordering and 1-flipper cache
        (adversary reuse contract)."""
        self._started_all = False
        self._cursor = None
        self._dirty_at = None

    def actions(self, sim: "Simulation") -> Iterator[Action | None]:
        """Start everyone once, then run 0-flippers to completion first."""
        steppable, processes, metrics = sim.steppable, sim.processes, sim.metrics
        pool = sim.in_flight
        # Each raises RuntimeError on an unindexed pool: checked once here.
        slots, by_sender, by_recipient = pool.slots, pool.by_sender, pool.by_recipient
        # Phase A: give every participant exactly one computation step so
        # each one flips (or commits) and its first announcement is parked
        # in flight.
        while not self._started_all:
            for pid in sorted(steppable):
                if processes[pid].coroutine is None:
                    yield Step(pid)
                    break
            else:
                self._started_all = True
        if self._cursor is None:
            # All coins that will ever matter for ordering are flipped by
            # now; 0-flippers (and processors with no flips yet) go first.
            def sort_key(pid: int) -> tuple[int, int]:
                last = processes[pid].coins.last()
                return ((last[1] if last is not None else 0), pid)

            self._cursor = FocusCursor(sorted(sim.undecided, key=sort_key))
        cursor = self._cursor
        # The focus moves only when it decides (in a step) or crashes; a
        # crash may come from a wrapper, between two of our actions.
        steps = crashes = None
        while True:
            if metrics.steps != steps or metrics.crashes != crashes:
                steps, crashes = metrics.steps, metrics.crashes
                focus = cursor.current(sim)
            if focus is None:
                yield fallback_action(sim)
                continue
            if focus in steppable:
                yield Step(focus)
                continue
            # Coins are flipped only by coroutines, which run only in
            # steps, so the 1-flippers are re-read only after a step.
            if steps != self._dirty_at:
                self._dirty = {
                    process.pid for process in processes
                    if process.is_participant
                    and (last := process.coins.last()) is not None
                    and last[1] == 1
                }
                self._dirty_at = steps
            dirty = self._dirty
            # Serve the focus's quorums only through "clean" channels: a
            # participant that flipped 1 would reveal its coin through its
            # parked announcement or through a COLLECT reply, so all
            # traffic to or from 1-flippers stays frozen as long as enough
            # clean processors exist (the adversary never needs more than a
            # bare majority to resolve a communicate call).  No leg has the
            # focus at both ends, so the focus's own coin never blocks it.
            chosen = None
            for chosen, peer in chain(
                by_recipient.get(focus, _NO_LEGS).items(),
                by_sender.get(focus, _NO_LEGS).items(),
            ):
                if peer not in dirty:
                    break
            # Without a clean channel, ``chosen`` is the last dirty leg:
            # leak minimally rather than deadlock.  Nothing involves the
            # focus at all: it genuinely needs traffic from a blocked
            # source, so fall back to keep the run live.
            if chosen is None:
                yield fallback_action(sim)
            else:
                yield deliver_at((slots[chosen], chosen))
