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

from typing import TYPE_CHECKING

from ..sim.runtime import Action, Step
from .base import Adversary, FocusCursor, fallback_action

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.runtime import Simulation


class CoinAwareAdversary(Adversary):
    """Start everyone, inspect coins, then serialize 0-flippers first."""

    name = "coin_aware"
    uses_endpoint_indexes = True  # reads sent_by / addressed_to

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

    def _ordered_focus(self, sim: "Simulation") -> int | None:
        if self._cursor is None:
            # All coins that will ever matter for ordering are flipped by
            # now; 0-flippers (and processors with no flips yet) go first.
            def sort_key(pid: int) -> tuple[int, int]:
                last = sim.process(pid).coins.last()
                return ((last[1] if last is not None else 0), pid)

            self._cursor = FocusCursor(sorted(sim.undecided, key=sort_key))
        return self._cursor.current(sim)

    def _one_flippers(self, sim: "Simulation") -> set[int]:
        """Participants whose latest coin is 1.

        Coins are flipped only by coroutines, and coroutines run only in
        ``Simulation._step``, which counts itself in ``metrics.steps``; so
        the set is rebuilt only when a step happened since the last call.
        """
        steps = sim.metrics.steps
        if steps != self._dirty_at:
            dirty = set()
            for process in sim.processes:
                if not process.is_participant:
                    continue
                last = process.coins.last()
                if last is not None and last[1] == 1:
                    dirty.add(process.pid)
            self._dirty, self._dirty_at = dirty, steps
        return self._dirty

    def choose(self, sim: "Simulation") -> Action | None:
        """Start everyone once, then run 0-flippers to completion first."""
        if not self._started_all:
            # Phase A: give every participant exactly one computation step
            # so each one flips (or commits) and its first announcement is
            # parked in flight.
            for pid in sorted(sim.steppable):
                if sim.process(pid).coroutine is None:
                    return Step(pid)
            self._started_all = True
        focus = self._ordered_focus(sim)
        if focus is None:
            return fallback_action(sim)
        if focus in sim.steppable:
            return Step(focus)
        # Serve the focus's quorums only through "clean" channels: a
        # participant that flipped 1 would reveal its coin through its
        # parked announcement or through a COLLECT reply, so all traffic to
        # or from 1-flippers stays frozen as long as enough clean
        # processors exist (the adversary never needs more than a bare
        # majority to resolve a communicate call).  The focus's own coin
        # never blocks its channels.
        dirty = self._one_flippers(sim)
        pool = sim.in_flight
        held_back = None
        for desc, sender in pool.addressed_to(focus):
            if sender == focus or sender not in dirty:
                return pool.action_for(desc)
            held_back = desc
        for desc, recipient in pool.sent_by(focus):
            if recipient == focus or recipient not in dirty:
                return pool.action_for(desc)
            held_back = desc
        if held_back is not None:
            # Not enough clean channels to complete the quorum; leak
            # minimally rather than deadlock.
            return pool.action_for(held_back)
        # Nothing involves the focus: it genuinely needs traffic from a
        # blocked source.  Fall back to keep the run live.
        return fallback_action(sim)
