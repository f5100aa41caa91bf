"""Uniformly random (but fair) scheduling.

At each decision point, flips between delivering a uniformly random
in-flight message and stepping a uniformly random steppable processor.
This is the standard "average-case" schedule: it exercises heavy
asynchrony and interleaving without targeting any algorithm weakness, and
it terminates with probability 1 for every protocol in this repository.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..sim.messages import deliver_at
from ..sim.rng import make_stream
from ..sim.runtime import Action, Step
from .base import Adversary

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.runtime import Simulation


class RandomAdversary(Adversary):
    """Fair random scheduler.

    ``deliver_bias`` is the probability of choosing a delivery when both
    deliveries and steps are enabled.  Biasing towards deliveries keeps the
    in-flight pool small, which keeps memory bounded on large runs.
    """

    name = "random"
    uses_endpoint_indexes = False  # positional pool API only
    #: Name of the scheduling RNG stream derived from the seed.
    _stream = "adversary/random"
    #: Lists the steppable pids in the order a step is drawn from.
    _candidates = staticmethod(tuple)

    def __init__(self, seed: int = 0, deliver_bias: float = 0.75) -> None:
        if not 0.0 < deliver_bias < 1.0:
            raise ValueError("deliver_bias must be strictly between 0 and 1")
        self._seed = seed
        self._rng = make_stream(seed, self._stream)
        self._deliver_bias = deliver_bias

    def setup(self, sim: "Simulation") -> None:
        """Re-derive the scheduling RNG (adversary reuse contract)."""
        self._rng = make_stream(self._seed, self._stream)

    def actions(self, sim: "Simulation") -> Iterator[Action | None]:
        """Deliver or step a uniformly random enabled target."""
        descs = sim.in_flight.descriptors
        steppable = sim.steppable
        rng = self._rng
        random, getrandbits, randrange = rng.random, rng.getrandbits, rng.randrange
        bias = self._deliver_bias
        candidates = self._candidates
        while True:
            count = len(descs)
            if count and (not steppable or random() < bias):
                # randrange(count), inlined: CPython's
                # _randbelow_with_getrandbits loop draws the same slots
                # bit for bit without randrange's two Python frames.
                k = count.bit_length()
                slot = getrandbits(k)
                while slot >= count:
                    slot = getrandbits(k)
                yield deliver_at((slot, descs[slot]))
            elif steppable:
                pids = candidates(steppable)
                yield Step(pids[randrange(len(pids))])
            else:
                yield None
