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

from .random_adversary import RandomAdversary


class ObliviousAdversary(RandomAdversary):
    """State-blind randomized scheduler (the paper's weak adversary).

    The :class:`RandomAdversary` schedule on its own RNG stream, drawing
    steps from the steppable pids in ascending order.
    """

    name = "oblivious"
    _stream = "adversary/oblivious"
    _candidates = staticmethod(sorted)
