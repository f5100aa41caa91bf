"""The lower-bound "bubble" strategy of Theorem B.2.

The adversary picks a subset ``S`` of roughly ``k/4`` participants and
places them in a bubble: every message sent by or addressed to a bubbled
processor is suspended in a buffer.  A processor is freed from the bubble
only once at least ``n/4`` messages have accumulated for it.  Processors
outside the bubble run in lock-step.

The indistinguishability argument of Theorem B.2 shows a bubbled processor
can never decide while inside the bubble (it has neither sent nor received
anything), so each of the ``~k/4`` bubbled processors is forced to
send-or-receive ``~n/4`` messages before returning — at least
``alpha * k * n / 16`` messages in expectation.  The bench E6 measures the
realized message count under this strategy and compares it to that floor.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from ..sim.runtime import Action, Step
from .base import Adversary

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.runtime import Simulation


class BubbleAdversary(Adversary):
    """Buffer all traffic of a chosen subset until ``n/4`` messages pile up."""

    name = "bubble"
    uses_endpoint_indexes = True  # counts buffered traffic per pid

    def __init__(
        self,
        bubble: Iterable[int] | None = None,
        threshold: int | None = None,
    ) -> None:
        self._bubble_arg = frozenset(bubble) if bubble is not None else None
        self._threshold_arg = threshold
        self._unreleased: set[int] = set()
        self._threshold = 0

    def setup(self, sim: "Simulation") -> None:
        """Build this run's bubble set and release threshold."""
        if self._bubble_arg is not None:
            bubble = set(self._bubble_arg)
        else:
            participants = sorted(sim.undecided)
            bubble = set(participants[: max(1, len(participants) // 4)])
        self._unreleased = bubble
        self._threshold = (
            self._threshold_arg if self._threshold_arg is not None else max(1, sim.n // 4)
        )

    @property
    def unreleased(self) -> frozenset[int]:
        """Processors currently held in the bubble."""
        return frozenset(self._unreleased)

    def _apply_releases(self, sim: "Simulation") -> None:
        pool = sim.in_flight
        for pid in list(self._unreleased):
            buffered = len(pool.sent_by(pid)) + len(pool.addressed_to(pid))
            if buffered >= self._threshold:
                self._unreleased.discard(pid)

    def choose(self, sim: "Simulation") -> Action | None:
        """Deliver/step outside the bubble; release members as traffic piles up."""
        self._apply_releases(sim)
        pool = sim.in_flight
        unreleased = self._unreleased
        for index in range(len(pool) - 1, -1, -1):
            sender, recipient = pool.endpoints_at(index)
            if sender not in unreleased and recipient not in unreleased:
                return pool.action_at(index)
        steppable = [pid for pid in sim.steppable if pid not in self._unreleased]
        if steppable:
            return Step(min(steppable))
        # Only bubbled traffic and bubbled processors remain.  The system
        # would otherwise deadlock (the theorem's argument has played out:
        # bubbled processors cannot decide inside the bubble), so force the
        # fullest member out to preserve liveness.
        if self._unreleased:
            fullest = max(
                self._unreleased,
                key=lambda pid: len(sim.in_flight.sent_by(pid))
                + len(sim.in_flight.addressed_to(pid)),
            )
            self._unreleased.discard(fullest)
            return self.choose(sim)
        return pool.last_action()
