"""Exception hierarchy for the simulator substrate.

All simulator errors derive from :class:`SimulationError` so callers can
catch substrate failures without masking algorithm bugs (which surface as
ordinary Python exceptions raised inside process coroutines).
"""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all errors raised by the simulation substrate."""


class SimulationLimitError(SimulationError):
    """The event budget was exhausted before the simulation quiesced.

    This almost always indicates a non-terminating schedule (an unfair
    adversary) or an algorithm bug, not a substrate bug.
    """


class QuiescenceError(SimulationError):
    """The simulation quiesced while participants were still undecided.

    Raised only when the caller asked for it via ``require_termination``;
    expected when more than ``ceil(n/2) - 1`` processors were crashed.
    """


class AdversaryProtocolError(SimulationError):
    """The adversary returned an action that is not currently enabled."""


class CrashBudgetError(SimulationError):
    """The adversary attempted to crash more than ``t`` processors."""


class ProcessProtocolError(SimulationError):
    """A process coroutine yielded something other than a valid request."""

