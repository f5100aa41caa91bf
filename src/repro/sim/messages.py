"""Message types exchanged over the point-to-point channels.

The model has one independent channel from every processor to every other
processor.  Four message kinds exist, all generated by the ``communicate``
primitive of Attiya, Bar-Noy and Dolev [ABND95] as used by the paper:

* ``PROPAGATE`` — carries register entries to be merged into the
  recipient's view; answered with an ``ACK``.
* ``COLLECT``   — requests the recipient's view of one variable; answered
  with a ``COLLECT_REPLY`` carrying that view.
* ``ACK`` / ``COLLECT_REPLY`` — the acknowledgements.

Messages are deliberately plain: the adversary reorders and delays them
arbitrarily, so they carry no timing information of their own.

In-flight traffic has one representation: one :class:`Broadcast` record
per ``communicate`` call plus one packed int *descriptor* per in-flight
leg.  A descriptor encodes ``(broadcast id, reply flag, endpoint pid)``
in a single int, so a broadcast inserts its ``n - 1`` request legs with
two C-speed ``list.extend(range(...))`` calls.  Every leg is sent at most
once, so its descriptor also names it uniquely over the whole run.
Event sinks see a leg as the fields of its ``msg.send``/``msg.deliver``
event, read straight from the broadcast's columns; no per-leg message
object is ever built.
"""

from __future__ import annotations

from enum import Enum
from functools import partial
from itertools import chain, count
from typing import Any, ItemsView, Mapping, NamedTuple


class MessageKind(Enum):
    """The four message kinds of the [ABND95] communicate primitive."""
    PROPAGATE = "propagate"
    COLLECT = "collect"
    ACK = "ack"
    COLLECT_REPLY = "collect_reply"

    # Members are singletons compared by identity, so the C-level identity
    # hash is consistent with equality.  Enum's own __hash__ is a Python
    # function (it hashes the name): ~0.4 us per per-kind counter update on
    # the delivery path, against ~0.06 us for this one.  Nothing iterates
    # a hashed collection of kinds, and pickling goes by name.
    __hash__ = object.__hash__


#: The reply kind answering each request kind.
_REPLY_KIND = {
    MessageKind.PROPAGATE: MessageKind.ACK,
    MessageKind.COLLECT: MessageKind.COLLECT_REPLY,
}


class Deliver(NamedTuple):
    """Adversary action: deliver the descriptor at pool position ``slot``.

    ``desc`` is the packed descriptor expected at that position; the
    runtime rejects the action (``KeyError``) if the pool has moved on.
    A ``NamedTuple`` rather than a dataclass: one of these is allocated
    per executed delivery, and tuple construction is measurably cheaper
    than dataclass ``__init__``.

    The hot paths (the adversaries' yields and the pool's helpers)
    build it with :func:`deliver_at` instead: the NamedTuple's own
    ``__new__`` is a Python-level function that re-packs its arguments,
    while ``tuple.__new__`` through a ``partial`` runs in C (about
    260 ns against 350 ns per action on CPython 3.11).
    ``Deliver(slot, desc)`` builds an equal object and stays the
    spelling for everything else.
    """

    slot: int
    desc: int


#: ``deliver_at((slot, desc))`` is ``Deliver(slot, desc)`` without the
#: Python-level ``__new__`` frame (see :class:`Deliver`).
deliver_at = partial(tuple.__new__, Deliver)


#: Width of the endpoint-pid field inside a packed descriptor.
PID_BITS = 20
#: Largest ``n`` the simulator supports (pids must fit in PID_BITS).
MAX_PIDS = 1 << PID_BITS
#: Descriptor flag: set on reply legs (ACK / COLLECT_REPLY), clear on
#: request legs (PROPAGATE / COLLECT).  On a request leg the pid field is
#: the recipient; on a reply leg it is the replier (the reply's sender).
REPLY_BIT = 1 << PID_BITS
#: Shift that positions the broadcast id above the pid field + reply flag.
BROADCAST_SHIFT = PID_BITS + 1
#: Mask extracting the endpoint pid from a descriptor.
PID_MASK = REPLY_BIT - 1


class Broadcast:
    """One ``communicate`` call's outgoing traffic as a columnar record.

    The per-call columns are stored once — sender, call id, kind, var,
    the shared copy-on-write ``entries`` mapping (see
    :meth:`RegisterFile.entries`).  The only per-recipient state is
    ``views``: for COLLECT broadcasts, the responders' memoized value
    views captured at request-delivery time, keyed by responder pid
    (popped when the matching COLLECT_REPLY leg is delivered).

    ``ticks``/``tracker``/``cache`` carry the delta-propagation state for
    PROPAGATE broadcasts: the send-time tick snapshot, the sender's
    :class:`~repro.sim.registers.DeltaTracker`, and the per-call payload
    cache keyed by inclusion bitmask.  Each recipient's delta payload is
    computed at *delivery* time.  That is sound: suppression only ever
    skips entries the recipient provably absorbed, and re-merging an
    absorbed entry is a no-op, so register states match full propagation.
    """

    __slots__ = (
        "bid",
        "sender",
        "call_id",
        "kind",
        "var",
        "entries",
        "ticks",
        "tracker",
        "cache",
        "views",
        "base",
    )

    def __init__(
        self,
        bid: int,
        sender: int,
        call_id: int,
        kind: MessageKind,
        var: str,
        entries: Mapping[Any, tuple[int, Any, str]] | None = None,
        ticks: Mapping[Any, int] | None = None,
        tracker: Any = None,
    ) -> None:
        self.bid = bid
        self.sender = sender
        self.call_id = call_id
        self.kind = kind
        self.var = var
        self.entries = entries
        self.ticks = ticks
        self.tracker = tracker
        self.cache: dict[int, Mapping[Any, Any]] | None = (
            {} if tracker is not None else None
        )
        self.views: dict[int, Mapping[Any, Any]] | None = (
            {} if kind is MessageKind.COLLECT else None
        )
        self.base = bid << BROADCAST_SHIFT

    def request_descriptor(self, recipient: int) -> int:
        """The packed descriptor of this broadcast's request leg to ``recipient``."""
        return self.base | recipient

    def reply_descriptor(self, replier: int) -> int:
        """The packed descriptor of ``replier``'s reply leg back to the sender."""
        return self.base | REPLY_BIT | replier

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Broadcast({self.kind.value} from {self.sender} "
            f"call={self.call_id} var={self.var!r})"
        )


class InFlightPool:
    """The multiset of undelivered legs, as packed descriptors.

    In-flight legs live in a flat list of descriptors pointing into the
    per-call :class:`Broadcast` records (see the module docstring).
    Delivery swap-removes: the last descriptor moves into the freed slot,
    so removal is O(1) and positions are not stable across actions.

    **Positional API** — ``len()``, :meth:`action_at`,
    :meth:`endpoints_at`, :meth:`last_action` — works on every pool and
    is all that scanning adversaries (random, oblivious, sequential,
    fifo, quorum-split) need.

    **Endpoint indexes.**  Targeted adversaries (coin-aware, bubble, the
    replay and shrink resolvers) find the traffic of one processor
    through :meth:`sent_by` / :meth:`addressed_to`, or through the
    read-only :attr:`by_sender` / :attr:`by_recipient` / :attr:`slots`
    views behind them.  Each index maps a descriptor to its peer pid, so
    adversaries read endpoints without decoding.  The indexes are
    insertion-ordered dicts: insertion order is send order, which keeps
    runs a pure function of the seed and the adversary.  An indexed pool
    also tracks each descriptor's slot (:meth:`action_for`), in send
    order too (:meth:`actions_in_send_order`).

    Maintaining the indexes costs a few dict operations per send and per
    delivery — a large share of per-message cost at scale — so only
    pools built with ``indexed=True`` pay for them.  Adversaries that
    never read them declare ``uses_endpoint_indexes = False``.  Calling
    the index API on an unindexed pool raises ``RuntimeError``: lazily
    rebuilding would scramble send order (swap-remove reorders the list),
    silently breaking determinism.
    """

    __slots__ = (
        "_descs",
        "_broadcasts",
        "_indexed",
        "_slots",
        "_by_sender",
        "_by_recipient",
    )

    def __init__(self, indexed: bool = True) -> None:
        self._descs: list[int] = []
        self._broadcasts: list[Broadcast] = []
        self._indexed = indexed
        self._slots: dict[int, int] = {}
        self._by_sender: dict[int, dict[int, int]] = {}
        self._by_recipient: dict[int, dict[int, int]] = {}

    @property
    def indexed(self) -> bool:
        """True iff the per-endpoint indexes are maintained."""
        return self._indexed

    # ------------------------------------------------------------------
    # Mutation (runtime-facing)
    # ------------------------------------------------------------------

    def open_broadcast(
        self,
        sender: int,
        call_id: int,
        kind: MessageKind,
        var: str,
        n: int,
        entries: Mapping[Any, tuple[int, Any, str]] | None = None,
        ticks: Mapping[Any, int] | None = None,
        tracker: Any = None,
    ) -> Broadcast:
        """Record one broadcast and enqueue its ``n - 1`` request legs.

        The two ``extend(range(...))`` calls insert the recipients in
        ascending pid order, skipping the sender.
        """
        broadcast = Broadcast(
            len(self._broadcasts), sender, call_id, kind, var,
            entries=entries, ticks=ticks, tracker=tracker,
        )
        self._broadcasts.append(broadcast)
        base = broadcast.base
        descs = self._descs
        first = len(descs)
        descs.extend(range(base, base + sender))
        descs.extend(range(base + sender + 1, base + n))
        if self._indexed:
            legs = descs[first:]
            recipients = chain(range(sender), range(sender + 1, n))
            self._slots.update(zip(legs, count(first)))
            by_sender = self._by_sender.get(sender)
            if by_sender is None:
                by_sender = self._by_sender[sender] = {}
            by_sender.update(zip(legs, recipients))
            by_recipient = self._by_recipient
            for desc in legs:
                index = by_recipient.get(desc & PID_MASK)
                if index is None:
                    index = by_recipient[desc & PID_MASK] = {}
                index[desc] = sender
        return broadcast

    def add_reply(self, request_desc: int) -> None:
        """Enqueue the reply leg answering a delivered request descriptor."""
        reply = request_desc | REPLY_BIT
        self._descs.append(reply)
        if self._indexed:
            self._index_reply(
                reply, self._broadcasts[reply >> BROADCAST_SHIFT].sender
            )

    def _index_reply(self, reply: int, sender: int) -> None:
        """Index upkeep for the reply leg ``reply`` just appended.

        ``sender`` is the broadcaster the reply goes back to, which the
        caller has already decoded.
        """
        self._slots[reply] = len(self._descs) - 1
        replier = reply & PID_MASK
        index = self._by_sender.get(replier)
        if index is None:
            index = self._by_sender[replier] = {}
        index[reply] = sender
        index = self._by_recipient.get(sender)
        if index is None:
            index = self._by_recipient[sender] = {}
        index[reply] = replier

    def remove(self, slot: int, desc: int) -> None:
        """Swap-remove the descriptor at ``slot``; KeyError on staleness."""
        descs = self._descs
        if slot < 0 or slot >= len(descs) or descs[slot] != desc:
            raise KeyError(f"descriptor not in flight: slot={slot} desc={desc}")
        last = descs.pop()
        if slot < len(descs):
            descs[slot] = last
        if self._indexed:
            self._unindex(slot, desc, last, *self.endpoints_of(desc))

    def _unindex(
        self, slot: int, desc: int, last: int, sender: int, recipient: int
    ) -> None:
        """Index upkeep for a swap-remove that moved ``last`` into ``slot``.

        ``sender`` and ``recipient`` are ``desc``'s endpoints, which the
        caller has already decoded.
        """
        slots = self._slots
        if last != desc:
            slots[last] = slot
        del slots[desc]
        del self._by_sender[sender][desc]
        del self._by_recipient[recipient][desc]

    # ------------------------------------------------------------------
    # Positional API — works on every pool
    # ------------------------------------------------------------------

    def action_at(self, index: int) -> Deliver:
        """The Deliver action for pool position ``index``.

        Positions are not stable across actions (delivery swap-reorders
        the pool), so the returned action must be executed before the
        adversary is asked again.
        """
        return deliver_at((index, self._descs[index]))

    def endpoints_at(self, index: int) -> tuple[int, int]:
        """The ``(sender, recipient)`` endpoints at pool position ``index``."""
        return self.endpoints_of(self._descs[index])

    def last_action(self) -> Deliver | None:
        """The Deliver action for the newest in-flight leg, or ``None``."""
        descs = self._descs
        return deliver_at((len(descs) - 1, descs[-1])) if descs else None

    # ------------------------------------------------------------------
    # Endpoint indexes — indexed pools only
    # ------------------------------------------------------------------

    def _require_indexes(self) -> None:
        if not self._indexed:
            raise RuntimeError(
                "endpoint indexes unavailable: this pool was built with "
                "indexed=False (the adversary declared uses_endpoint_indexes "
                "= False); scan the positional API instead"
            )

    def sent_by(self, pid: int) -> ItemsView[int, int]:
        """``(desc, recipient)`` of the legs ``pid`` sent, in send order."""
        return self.by_sender.get(pid, _EMPTY_INDEX).items()

    def addressed_to(self, pid: int) -> ItemsView[int, int]:
        """``(desc, sender)`` of the legs addressed to ``pid``, in send order."""
        return self.by_recipient.get(pid, _EMPTY_INDEX).items()

    def action_for(self, desc: int) -> Deliver:
        """The Deliver action for an in-flight descriptor."""
        return deliver_at((self.slots[desc], desc))

    def actions_in_send_order(self) -> list[Deliver]:
        """A Deliver action for every in-flight leg, oldest send first."""
        return [deliver_at((slot, desc)) for desc, slot in self.slots.items()]

    def match(
        self, sender: int, recipient: int, kind: str, call_id: int
    ) -> Deliver | None:
        """The delivery of the leg ``sender -> recipient`` of ``call_id``.

        ``kind`` is a :class:`MessageKind` value, as recorded in a
        ``msg.deliver`` event.  ``None`` if no such leg is in flight.
        """
        for desc, peer in self.addressed_to(recipient):
            if peer == sender:
                broadcast = self._broadcasts[desc >> BROADCAST_SHIFT]
                if (
                    broadcast.call_id == call_id
                    and self.kind_of(desc).value == kind
                ):
                    return deliver_at((self._slots[desc], desc))
        return None

    # ------------------------------------------------------------------
    # Descriptor decoding
    # ------------------------------------------------------------------

    def broadcast_of(self, desc: int) -> Broadcast:
        """The :class:`Broadcast` record a descriptor points into."""
        return self._broadcasts[desc >> BROADCAST_SHIFT]

    def endpoints_of(self, desc: int) -> tuple[int, int]:
        """The ``(sender, recipient)`` endpoints of a descriptor."""
        sender = self._broadcasts[desc >> BROADCAST_SHIFT].sender
        endpoint = desc & PID_MASK
        if desc & REPLY_BIT:
            return endpoint, sender
        return sender, endpoint

    def kind_of(self, desc: int) -> MessageKind:
        """The :class:`MessageKind` of a descriptor's leg."""
        kind = self._broadcasts[desc >> BROADCAST_SHIFT].kind
        return _REPLY_KIND[kind] if desc & REPLY_BIT else kind

    @property
    def descriptors(self) -> list[int]:
        """Read-only view of the backing descriptor list.

        Callers may read but never mutate; all mutation goes through
        :meth:`open_broadcast`, :meth:`add_reply` and :meth:`remove`, so
        slot bookkeeping and the indexes stay consistent.
        """
        return self._descs

    @property
    def broadcasts(self) -> list[Broadcast]:
        """Read-only view of the backing :class:`Broadcast` list.

        Indexed by broadcast id (``desc >> BROADCAST_SHIFT``), so a scan
        can read a descriptor's sender without a call per descriptor.
        Callers may read but never mutate.
        """
        return self._broadcasts

    @property
    def slots(self) -> dict[int, int]:
        """Read-only view of the descriptor -> slot map, in send order.

        This and the two views below back the endpoint-index API; an
        adversary may bind them once per run instead.  Each raises
        ``RuntimeError`` on an unindexed pool.  Callers never mutate them.
        """
        self._require_indexes()
        return self._slots

    @property
    def by_sender(self) -> dict[int, dict[int, int]]:
        """Read-only ``pid -> {desc: recipient}`` index (pids may be absent)."""
        self._require_indexes()
        return self._by_sender

    @property
    def by_recipient(self) -> dict[int, dict[int, int]]:
        """Read-only ``pid -> {desc: sender}`` index (pids may be absent)."""
        self._require_indexes()
        return self._by_recipient

    def __len__(self) -> int:
        return len(self._descs)

    def __bool__(self) -> bool:
        return bool(self._descs)


_EMPTY_INDEX: dict[int, int] = {}
