"""The election service's lease state machine, free of I/O.

:class:`LeaseTable` owns every key the election service serves.  Each
key is a name, each handoff of a key is one leader election among its
contenders (Figure 3 / Theorem 4.2), and the winner holds the key under
a lease carrying a strictly increasing ``(key, epoch)`` fencing token; a
renew or release presenting a stale token is answered FENCED, the
service's "a LOSE never overwrites the winner" (Lemma A.3).  Per key::

    FREE ──acquire──> HELD ──(ttl - grace elapses)──> EXPIRING
      ^                 │  ^                             │
      │             release renew                        │ (ttl elapses,
      │(no waiters)     │  └────────── EXPIRING ─────────┘  or holder
      └──────────── RE-ELECTING <── crash ──┘               crashes)
                        │
                        └─(winner drawn among waiters)─> HELD, epoch+1

Time enters only as each transition's ``now`` (monotonic seconds), and
a transition returns its decisions, in order, as ``(kind, session,
fields)`` emissions with ``kind`` :data:`REPLY` or :data:`EVENT`.
Sessions are opaque apart from their ``sid`` and ``closed`` attributes.
Nothing here touches a socket, a clock, chaos or the wire codec.
"""

from __future__ import annotations

import heapq
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterator, Mapping

from ..sim.rng import make_stream


class ReplyStatus:
    """String constants for every service reply outcome."""

    GRANTED = "granted"
    BUSY = "busy"
    FENCED = "fenced"
    OK = "ok"
    STATE = "state"
    ERROR = "error"


class LeaseState:
    """String constants for the per-key lease state machine."""

    FREE = "free"
    HELD = "held"
    EXPIRING = "expiring"
    REELECTING = "re-electing"


class WatchEvent:
    """String constants for the watch notification kinds."""

    GRANTED = "granted"
    EXPIRING = "expiring"
    EXPIRED = "expired"
    RELEASED = "released"
    CRASHED = "crashed"


#: Emission kinds: a reply to one request, or a watch event for a watcher.
REPLY = "reply"
EVENT = "event"

#: The states in which a key has a holder.
_LIVE = (LeaseState.HELD, LeaseState.EXPIRING)

#: Contender-count ceiling for ``election="sim"``; larger fields fall back to
#: the seeded draw (a simulated election over hundreds of pids would stall
#: the event loop the service shares with every key).
SIM_ELECTION_MAX_CONTENDERS = 16


@dataclass(slots=True)
class GrantRecord:
    """One completed or in-flight grant: the unit of the decision log.

    ``ended_ns`` is ``None`` while the lease is live; ``reason`` is one
    of ``release`` / ``expire`` / ``crash`` / ``open`` once settled.
    """

    key: str
    epoch: int
    holder: str
    session: int
    granted_ns: int
    ended_ns: int | None = None
    reason: str = "open"

    def to_obj(self) -> dict[str, Any]:
        """JSON-safe form for artifacts and telemetry dumps."""
        return asdict(self)


@dataclass(slots=True)
class FencedRecord:
    """One stale-epoch (or non-holder) rejection, for the fencing invariant."""

    key: str
    request_epoch: int
    current_epoch: int
    verb: str
    client: str


@dataclass(slots=True)
class _Waiter:
    """One queued contender for a held key."""

    client: str
    session: Any
    rpc: int
    enqueued: float
    deadline: float


@dataclass(slots=True)
class _KeyState:
    """Everything the table tracks about one key."""

    key: str
    epoch: int = 0
    state: str = LeaseState.FREE
    holder: str | None = None
    holder_session: Any = None
    expires_at: float = 0.0
    ttl_s: float = 0.0
    waiters: list[_Waiter] = field(default_factory=list)
    watchers: set = field(default_factory=set)
    #: ``(when, by_crash)`` of the current vacancy, for failover latency.
    vacated: tuple[float, bool] | None = None
    #: The current holder's grant record, closed when the lease ends.
    grant: GrantRecord | None = None
    #: When the key's pending wake-up is due; ``None`` when none is.
    wake: float | None = None


class LeaseTable:
    """Every key's lease, its contenders and watchers, and the grant log.

    Decisions are counted into ``metrics`` (a
    :class:`~repro.obs.metrics.MetricsRegistry`).  ``namespace`` re-seeds
    keys, all FREE, at their last epochs, so grants after a restart keep
    fencing the tokens issued before it.
    """

    def __init__(self, seed: int, default_ttl_s: float, grace_fraction: float,
                 election: str, metrics: Any,
                 namespace: Mapping[str, int] | None = None,
                 grant_hook: "Callable[[GrantRecord], None] | None" = None) -> None:
        self.seed = seed
        self.default_ttl_s = default_ttl_s
        self.grace_fraction = grace_fraction
        self.election = election
        self.metrics = metrics
        self.grant_hook = grant_hook
        self.keys: dict[str, _KeyState] = {
            str(key): _KeyState(key=str(key), epoch=int(epoch))
            for key, epoch in (namespace or {}).items()
        }
        self.history: list[GrantRecord] = []
        self.fenced: list[FencedRecord] = []
        #: Once set, nothing is granted: a stopping service's connections
        #: still deliver requests, and a grant then would reuse the first
        #: epoch of a successor seeded from its exported namespace.
        self.stopped = False
        self._heap: list[tuple[float, int, str]] = []
        self._heap_counter = 0

    def acquire(self, session: Any, rpc: int, key: str, client: str,
                ttl_ms: float, wait_ms: float, now: float) -> list:
        """ACQUIRE: grant now, queue as a contender, or reply BUSY."""
        out: list = []
        state = self.keys.get(key)
        if state is None:
            state = self.keys[key] = _KeyState(key=key)
        if state.state not in _LIVE:
            self._grant(state, client, session, rpc, ttl_ms, now, out)
        elif any(w.session is session and w.rpc == rpc for w in state.waiters):
            pass  # a retry of a queued ACQUIRE: answered once, when its wait ends
        elif state.holder == client and state.holder_session is session:
            # Idempotent re-acquire by the live holder: current token.
            out.append((REPLY, session, _granted(rpc, state, ttl_ms)))
        elif wait_ms <= 0:
            self._busy(session, rpc, state, out)
        else:
            deadline = now + wait_ms / 1000.0
            state.waiters.append(_Waiter(client, session, rpc, now, deadline))
            self._push(state, deadline)
        return out

    def renew(self, session: Any, rpc: int, key: str, client: str,
              epoch: int, ttl_ms: float | None, now: float) -> list:
        """RENEW: extend the lease iff the fencing token is current."""
        out: list = []
        state = self._holding(session, rpc, key, client, epoch, "renew", out)
        if state is not None:
            if ttl_ms is None:
                ttl_ms = state.ttl_s * 1000.0
            state.ttl_s = ttl_ms / 1000.0
            state.expires_at = now + state.ttl_s
            state.state = LeaseState.HELD
            self._push(state, state.expires_at - state.ttl_s * self.grace_fraction)
            out.append((REPLY, session, _granted(rpc, state, ttl_ms)))
        return out

    def release(self, session: Any, rpc: int, key: str, client: str,
                epoch: int, now: float) -> list:
        """RELEASE: end the lease iff the fencing token is current."""
        out: list = []
        state = self._holding(session, rpc, key, client, epoch, "release", out)
        if state is not None:
            out.append((REPLY, session,
                        {"rpc": rpc, "status": ReplyStatus.OK, "key": key, "epoch": epoch}))
            self._end_grant(state, "release", WatchEvent.RELEASED, now, out)
            self._handoff(state, now, out)
        return out

    def watch(self, session: Any, rpc: int, key: str) -> list:
        """WATCH: subscribe the session; reply with the key's current state."""
        state = self.keys.get(key)
        if state is None:
            state = self.keys[key] = _KeyState(key=key)
        state.watchers.add(session)
        return [(REPLY, session, {
            "rpc": rpc, "status": ReplyStatus.STATE, "key": key,
            "state": state.state, "epoch": state.epoch, "holder": state.holder,
        })]

    def crash(self, session: Any, now: float) -> list:
        """A closed session's watches and waits go; its leases fail over."""
        out: list = []
        for state in self.keys.values():
            state.watchers.discard(session)
            state.waiters = [w for w in state.waiters if w.session is not session]
            if state.holder_session is session and state.state in _LIVE:
                self.metrics.counter("svc.crash_failovers").inc()
                self._end_grant(state, "crash", WatchEvent.CRASHED, now, out)
                self._handoff(state, now, out)
        return out

    def crash_all(self, now: float) -> list:
        """End every live lease as a crash: a restart's leases do not survive it."""
        out: list = []
        for state in self.keys.values():
            if state.state in _LIVE:
                self._end_grant(state, "crash", WatchEvent.CRASHED, now, out)
        return out

    def _push(self, state: _KeyState, when: float) -> None:
        """Schedule a wake-up for ``state``'s key at ``when``, unless one is
        already due no later: the sweep it triggers schedules the next."""
        if state.wake is not None and state.wake <= when:
            return
        state.wake = when
        self._heap_counter += 1
        heapq.heappush(self._heap, (when, self._heap_counter, state.key))

    def next_deadline(self) -> float | None:
        """The earliest scheduled wake-up, if any."""
        return self._heap[0][0] if self._heap else None

    def due(self, now: float) -> Iterator[str]:
        """Pop the key of every wake-up at or before ``now``, in time order.

        Wake-ups are lazy: :meth:`sweep` re-validates the key's current
        deadlines and schedules its next one, so renewals and releases
        never unschedule anything.
        """
        heap = self._heap
        while heap and heap[0][0] <= now:
            yield heapq.heappop(heap)[2]

    def sweep(self, key: str, now: float) -> list:
        """Apply any due transition for ``key``: timeouts, EXPIRING, expiry."""
        out: list = []
        state = self.keys[key]
        if state.wake is not None and state.wake <= now:
            state.wake = None
        self._drop_due_waiters(state, now, out)
        if state.state in _LIVE and state.expires_at <= now:
            self.metrics.counter("svc.expirations").inc()
            self._end_grant(state, "expire", WatchEvent.EXPIRED, now, out)
            self._handoff(state, now, out)
        elif (
            state.state == LeaseState.HELD
            and state.expires_at - state.ttl_s * self.grace_fraction <= now
        ):
            state.state = LeaseState.EXPIRING
            self._notify(state, WatchEvent.EXPIRING, out)
        deadlines = [waiter.deadline for waiter in state.waiters]
        if state.state == LeaseState.HELD:
            deadlines.append(state.expires_at - state.ttl_s * self.grace_fraction)
        elif state.state == LeaseState.EXPIRING:
            deadlines.append(state.expires_at)
        if deadlines:
            self._push(state, min(deadlines))
        return out

    def _holding(self, session: Any, rpc: int, key: str, client: str,
                 epoch: int, verb: str, out: list) -> _KeyState | None:
        """The key's state iff ``(client, epoch)`` is its live token;
        otherwise the write is answered FENCED and logged."""
        state = self.keys.get(key)
        if (state is not None and state.state in _LIVE
                and state.epoch == epoch and state.holder == client):
            return state
        current = 0 if state is None else state.epoch
        self.metrics.counter("svc.fenced").inc()
        self.fenced.append(FencedRecord(key, epoch, current, verb, client))
        out.append((REPLY, session, {"rpc": rpc, "status": ReplyStatus.FENCED,
                                     "key": key, "epoch": epoch, "current": current}))
        return None

    def _busy(self, session: Any, rpc: int, state: _KeyState, out: list) -> None:
        self.metrics.counter("svc.busy").inc()
        out.append((REPLY, session, {"rpc": rpc, "status": ReplyStatus.BUSY, "key": state.key,
                                     "holder": state.holder, "epoch": state.epoch}))

    def _drop_due_waiters(self, state: _KeyState, now: float, out: list) -> None:
        """Answer BUSY to every waiter whose deadline passed; forget closed ones."""
        kept = []
        for waiter in state.waiters:
            if waiter.session.closed:
                continue
            if waiter.deadline <= now:
                self._busy(waiter.session, waiter.rpc, state, out)
            else:
                kept.append(waiter)
        state.waiters = kept

    def _grant(self, state: _KeyState, client: str, session: Any, rpc: int,
               ttl_ms: float, now: float, out: list) -> None:
        """Elect ``client`` the holder of ``state.key`` under a fresh epoch."""
        if self.stopped:
            state.state = LeaseState.FREE
            return
        state.epoch += 1
        state.state = LeaseState.HELD
        state.holder = client
        state.holder_session = session
        state.ttl_s = ttl_ms / 1000.0
        state.expires_at = now + state.ttl_s
        record = state.grant = GrantRecord(
            state.key, state.epoch, client, session.sid, granted_ns=int(now * 1e9)
        )
        self.history.append(record)
        self.metrics.counter("svc.grants").inc()
        if self.grant_hook is not None:
            self.grant_hook(record)
        if state.vacated is not None:
            vacated_at, by_crash = state.vacated
            failover_ms = (now - vacated_at) * 1000.0
            self.metrics.histogram("svc.failover_ms").observe(failover_ms)
            if by_crash:
                self.metrics.histogram("svc.crash_failover_ms").observe(failover_ms)
            state.vacated = None
        self._push(state, state.expires_at - state.ttl_s * self.grace_fraction)
        out.append((REPLY, session, _granted(rpc, state, ttl_ms)))
        self._notify(state, WatchEvent.GRANTED, out)

    def _end_grant(self, state: _KeyState, reason: str, event: str,
                   now: float, out: list) -> None:
        """Close the key's grant record and vacate the lease."""
        record = state.grant
        record.ended_ns = int(now * 1e9)
        record.reason = reason
        state.grant = state.holder = state.holder_session = None
        state.state = LeaseState.FREE
        state.vacated = (now, reason == "crash")
        self._notify(state, event, out)

    def _handoff(self, state: _KeyState, now: float, out: list) -> None:
        """After a vacancy: elect among live waiters, or fall back to FREE."""
        self._drop_due_waiters(state, now, out)
        live = state.waiters
        if not live:
            state.state = LeaseState.FREE
            return
        state.state = LeaseState.REELECTING
        winner = self._elect(state, live)
        self.metrics.counter("svc.reelections").inc()
        state.waiters = [waiter for waiter in live if waiter is not winner]
        self.metrics.histogram("svc.acquire_wait_ms").observe((now - winner.enqueued) * 1000.0)
        self._grant(state, winner.client, winner.session, winner.rpc,
                    self.default_ttl_s * 1000.0, now, out)

    def _elect(self, state: _KeyState, contenders: list[_Waiter]) -> _Waiter:
        """One leader election among the key's contenders.

        ``draw`` samples the winner from the per-``(key, epoch)`` RNG
        stream — the distributional shadow of the paper's election
        (uniform over contenders, Lemma 3.6's symmetry).  ``sim`` runs
        the real O(log* k) algorithm over the simulator with one pid per
        contender, so each handoff is a genuine protocol execution.
        """
        if len(contenders) == 1:
            return contenders[0]
        ordered = sorted(contenders, key=lambda waiter: waiter.client)
        stream = make_stream(self.seed, f"svc/{state.key}/{state.epoch + 1}")
        if self.election == "sim" and len(ordered) <= SIM_ELECTION_MAX_CONTENDERS:
            from ..harness.runners import run_leader_election

            run = run_leader_election(
                n=len(ordered), adversary="random", seed=stream.randrange(2**31)
            )
            return ordered[run.winner]
        return ordered[stream.randrange(len(ordered))]

    def _notify(self, state: _KeyState, event: str, out: list) -> None:
        """One watch event for every live watcher of the key."""
        if not state.watchers:
            return
        fields = {"key": state.key, "event": event, "epoch": state.epoch, "holder": state.holder}
        for watcher in list(state.watchers):
            if watcher.closed:
                state.watchers.discard(watcher)
            else:
                out.append((EVENT, watcher, fields))


def _granted(rpc: int, state: _KeyState, ttl_ms: float) -> dict[str, Any]:
    return {"rpc": rpc, "status": ReplyStatus.GRANTED, "key": state.key,
            "epoch": state.epoch, "ttl_ms": ttl_ms, "holder": state.holder}
