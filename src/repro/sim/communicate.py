"""The ``communicate`` primitive: requests yielded by process coroutines.

Algorithms are written as generator coroutines that ``yield`` these request
objects.  The runtime turns each request into a broadcast to all other
processors and blocks the coroutine until more than ``n/2`` processors
(counting the caller itself) have acknowledged — the quorum condition from
[ABND95] that makes any two communicate calls intersect in at least one
recipient.

* ``Propagate(var, keys)`` resolves to ``None`` once a quorum has merged the
  caller's entries for ``keys`` (all local entries of ``var`` if omitted).
* ``Collect(var)`` resolves to the list of at least ``floor(n/2) + 1``
  views of ``var`` (plain ``{key: value}`` dicts), the caller's own view
  included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Sequence


@dataclass(frozen=True, slots=True)
class Propagate:
    """Broadcast the caller's entries of ``var`` and await a quorum of ACKs."""

    var: str
    keys: tuple[Hashable, ...] | None = None


@dataclass(frozen=True, slots=True)
class Collect:
    """Request views of ``var`` from everyone; resolves to a list of views."""

    var: str


Request = Propagate | Collect


@dataclass(slots=True)
class PendingCall:
    """Bookkeeping for a communicate call awaiting its quorum.

    Opened by :meth:`~repro.sim.process.Process.begin_call` and fed each
    reply by :meth:`~repro.sim.process.Process.ack`, on both backends.
    """

    call_id: int
    request: Request
    needed: int
    acks: int = 0
    views: list[dict[Hashable, Any]] | None = None

    @property
    def satisfied(self) -> bool:
        """True once a majority quorum of acknowledgements arrived."""
        return self.acks >= self.needed

    def result(self) -> Sequence[dict[Hashable, Any]] | None:
        """The value the blocked coroutine resumes with: views for Collect, None for Propagate."""
        if isinstance(self.request, Collect):
            assert self.views is not None
            return list(self.views)
        return None
