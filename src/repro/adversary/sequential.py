"""The sequential attack of Section 3.2.

The adversary serializes the participants: it lets exactly one "focus"
processor advance its protocol at a time, delivering whatever traffic is
needed for the focus's quorums while never scheduling a computation step
for anyone else.  Everyone else still acknowledges (acknowledgement happens
at delivery in this model), so the focus completes its entire procedure
solo, then the next participant runs, and so on.

Against plain PoisonPill this is the worst case: the first processors to
run all flip 0, see nobody else, and survive, so the expected number of
survivors is Theta(sqrt(n)) — the lower bound the paper's Section 3.2 uses
to motivate the heterogeneous variant.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..sim.runtime import Action, Step
from .base import Adversary, FocusCursor

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.runtime import Simulation


class SequentialAdversary(Adversary):
    """Run participants one at a time, in ``order`` (default: pid order)."""

    name = "sequential"
    uses_endpoint_indexes = False  # positional pool API only
    uses_message_objects = False  # delivers via last_action()

    def __init__(self, order: Sequence[int] | None = None) -> None:
        self._order_arg = list(order) if order is not None else None
        self._cursor: FocusCursor | None = None

    def setup(self, sim: "Simulation") -> None:
        """Re-derive the default order per run (adversary reuse contract)."""
        self._cursor = FocusCursor(
            self._order_arg
            if self._order_arg is not None
            else sorted(sim.undecided)
        )

    def choose(self, sim: "Simulation") -> Action | None:
        """Advance the current focus processor; feed it only the traffic it needs."""
        assert self._cursor is not None
        focus = self._cursor.current(sim)
        if focus is not None and focus in sim.steppable:
            return Step(focus)
        action = sim.in_flight.last_action()
        if action is not None:
            return action
        steppable = sim.steppable
        if steppable:
            # The focus is blocked with no traffic left (quorum unreachable,
            # e.g. due to crashes); degrade gracefully to keep others live.
            return Step(min(steppable))
        return None
