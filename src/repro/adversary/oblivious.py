"""A weak (oblivious) adversary: schedules without looking at state.

The oblivious adversary of [AA11, GW12a] fixes its schedule in advance.
We realize it as a randomized scheduler whose choices are a pure function
of its private seed and the *shape* of the enabled-action sets (counts,
never contents): it never inspects register views, coin logs, or message
payloads, so its decisions are statistically independent of the
processors' randomness.

Useful for contrasting with :class:`CoinAwareAdversary`: the naive sifter
from the paper's introduction actually works against this adversary, and
fails only once the scheduler can see the flips.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim.rng import make_stream
from ..sim.runtime import Action, Step
from .base import Adversary

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.runtime import Simulation


class ObliviousAdversary(Adversary):
    """State-blind randomized scheduler (the paper's weak adversary)."""

    name = "oblivious"
    uses_endpoint_indexes = False  # positional pool API only

    def __init__(self, seed: int = 0, deliver_bias: float = 0.75) -> None:
        self._seed = seed
        self._rng = make_stream(seed, "adversary/oblivious")
        self._deliver_bias = deliver_bias

    def setup(self, sim: "Simulation") -> None:
        """Re-derive the scheduling RNG (adversary reuse contract)."""
        self._rng = make_stream(self._seed, "adversary/oblivious")

    def choose(self, sim: "Simulation") -> Action | None:
        """Pick a delivery or step from private randomness only (state-blind)."""
        pool = sim.in_flight
        count = len(pool)
        steppable = sim.steppable
        if count and (not steppable or self._rng.random() < self._deliver_bias):
            return pool.action_at(self._rng.randrange(count))
        if steppable:
            candidates = sorted(steppable)
            return Step(candidates[self._rng.randrange(len(candidates))])
        if count:
            return pool.action_at(self._rng.randrange(count))
        return None
