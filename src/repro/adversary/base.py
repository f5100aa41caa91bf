"""Adversary interface: the scheduler of the asynchronous system.

An adversary is asked, one action at a time, what happens next: deliver
some in-flight message, schedule a computation step of some processor, or
crash a processor (within the ``t <= ceil(n/2) - 1`` budget).  It may read
the entire simulation state — register views, outstanding calls, and every
coin a processor has flipped — which makes it the *strong adaptive*
adversary of the paper.  Oblivious (weak) adversaries are modelled by
simply not looking.

Every adversary used with :meth:`Simulation.run` must be *fair in the
limit*: as long as actions remain enabled it keeps choosing them, and it
starves no message or processor forever once nothing else is enabled.
:func:`fallback_action` implements that safety net; concrete adversaries
express their strategy first and fall back when out of targeted moves.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Sequence

from ..sim.process import ProcessStatus
from ..sim.runtime import Action, Step

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.runtime import Simulation


def fallback_action(sim: "Simulation") -> Action | None:
    """A progress-guaranteeing default: deliver something, else step someone.

    Returns ``None`` only when no action is enabled (quiescence).  Built
    on the pool's positional
    :meth:`~repro.sim.messages.InFlightPool.last_action`, so it works on
    indexed and unindexed pools alike.
    """
    action = sim.in_flight.last_action()
    if action is not None:
        return action
    steppable = sim.steppable
    if steppable:
        return Step(min(steppable))
    return None


_UNDECIDED = (ProcessStatus.IDLE, ProcessStatus.RUNNING)


class FocusCursor:
    """The first still-undecided pid of a fixed ``order``, found incrementally.

    A pid is in ``sim.undecided`` exactly while its status is ``IDLE`` or
    ``RUNNING`` (responders and decided or crashed processors are never
    undecided), and within one run that set only shrinks.  So the first
    undecided pid of ``order`` only moves forward: :meth:`current` resumes
    its scan where the previous call stopped instead of rescanning
    ``order`` against a fresh ``sim.undecided`` copy on every action.
    Build a new cursor per run (in :meth:`Adversary.setup`); every pid of
    ``order`` must be in ``range(sim.n)``.
    """

    __slots__ = ("_order", "_next")

    def __init__(self, order: Sequence[int]) -> None:
        self._order = order
        self._next = 0

    def current(self, sim: "Simulation") -> int | None:
        """The first pid of ``order`` that has not decided or crashed yet."""
        order, processes, i = self._order, sim.processes, self._next
        while i < len(order) and processes[order[i]].status not in _UNDECIDED:
            i += 1
        self._next = i
        return order[i] if i < len(order) else None


class Adversary(abc.ABC):
    """Base class for scheduling strategies."""

    #: Short machine-readable identifier used in benchmark tables.
    name: str = "adversary"

    #: Whether this adversary reads the pool's per-endpoint index API
    #: (``sent_by``/``addressed_to``/``involving``/``action_for``/
    #: ``actions_in_send_order``/``match``).  Declaring ``False`` lets the
    #: simulation build its :class:`~repro.sim.messages.InFlightPool` with
    #: ``indexed=False``, dropping a few dict operations per send and per
    #: delivery — a large fraction of per-message cost at scale.  Calling
    #: the index API anyway then raises ``RuntimeError``; when in doubt,
    #: leave the default ``True``.
    uses_endpoint_indexes: bool = True

    def setup(self, sim: "Simulation") -> None:
        """Hook called once per run, before the first action is requested.

        Reuse contract: an adversary instance may drive multiple runs
        (replay, shrinking, repeated trials), and ``setup`` is the reset
        point — implementations MUST restore every piece of per-run
        mutable state here (schedule cursors, consumed RNG streams,
        caches keyed on the previous simulation).  An adversary whose
        behaviour is a pure function of its constructor arguments then
        stays one across reuse.
        """

    @abc.abstractmethod
    def choose(self, sim: "Simulation") -> Action | None:
        """Pick the next enabled action, or ``None`` at quiescence."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
