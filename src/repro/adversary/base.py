"""Adversary interface: the scheduler of the asynchronous system.

An adversary decides, one action at a time, what happens next: deliver
some in-flight message, schedule a computation step of some processor, or
crash a processor (within the ``t <= ceil(n/2) - 1`` budget).  It either
answers one ``choose(sim)`` call per action, or hands the runtime a
generator of actions (``actions(sim)``) that resumes after each one has
executed.  It may read the entire simulation state — register views,
outstanding calls, and every coin a processor has flipped — which makes
it the *strong adaptive* adversary of the paper.  Oblivious (weak)
adversaries are modelled by simply not looking.

Every adversary used with :meth:`Simulation.run` must be *fair in the
limit*: as long as actions remain enabled it keeps choosing them, and it
starves no message or processor forever once nothing else is enabled.
:func:`fallback_action` implements that safety net; concrete adversaries
express their strategy first and fall back when out of targeted moves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence

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


class Adversary:
    """Base class for scheduling strategies."""

    #: Short machine-readable identifier used in benchmark tables.
    name: str = "adversary"

    #: Whether this adversary reads the pool's per-endpoint index API
    #: (``sent_by``/``addressed_to``/``action_for``/``actions_in_send_order``/
    #: ``match`` and the ``slots``/``by_sender``/``by_recipient`` views).
    #: Declaring ``False`` lets the simulation build its
    #: :class:`~repro.sim.messages.InFlightPool` with ``indexed=False``,
    #: dropping a few dict operations per send and per delivery — a large
    #: fraction of per-message cost at scale.  Calling the index API
    #: anyway then raises ``RuntimeError``; when in doubt, leave the
    #: default ``True``.
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

    def __init_subclass__(cls, **kwargs) -> None:
        """Reject a ``choose`` that :meth:`actions` would never call.

        ``Simulation.run`` drains :meth:`actions`; only the default one
        calls :meth:`choose`.  A class that defines ``choose`` next to or
        below a class implementing its own ``actions`` would be silently
        ignored, so it is an error.
        """
        super().__init_subclass__(**kwargs)
        mro = cls.__mro__
        owner = {
            name: next(klass for klass in mro if name in vars(klass))
            for name in ("choose", "actions")
        }
        if owner["actions"] is not Adversary and (
            mro.index(owner["choose"]) <= mro.index(owner["actions"])
        ):
            raise TypeError(
                f"{cls.__name__}.choose() would never be called: "
                f"{owner['actions'].__name__} implements actions(); "
                "override actions() instead"
            )

    def choose(self, sim: "Simulation") -> Action | None:
        """Pick the next enabled action, or ``None`` at quiescence.

        Implement this or :meth:`actions`, not both.
        """
        raise NotImplementedError(
            f"{type(self).__name__} implements neither choose() nor actions()"
        )

    def actions(self, sim: "Simulation") -> Iterator[Action | None]:
        """This run's actions, one per resume; ``None`` at quiescence.

        ``Simulation.run`` builds the generator once per run, after
        :meth:`setup`, and resumes it after the previous action has
        executed, so every resume sees the current state.  The default
        yields :meth:`choose` forever.

        Overrides keep bound locals across actions, and those locals may
        only cache the adversary's plain state and live ``sim`` objects
        (``sim.steppable``, ``sim.in_flight.descriptors``, a bound RNG
        method).  A cache must be re-derived when something outside the
        generator changes what it caches: a crash wrapper's ``Crash``
        lands between two of the inner generator's actions.  Everything
        that must survive a new generator (hand-driven
        ``next(adversary.actions(sim))``) lives on ``self``.
        """
        choose = self.choose
        while True:
            yield choose(sim)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
