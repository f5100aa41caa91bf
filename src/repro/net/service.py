"""Election-as-a-service: a keyed, multi-tenant election namespace.

Every other entry point in this repo is one-shot batch: spawn ``n``
processes, elect, exit.  This module is the long-lived coordination
layer the ROADMAP asks for: a persistent asyncio service that owns a
namespace of *named* elections and serves them to external clients over
the versioned frame codec of :mod:`repro.net.wire`.

The mapping onto the paper is direct.  Figure 3 / Theorem 4.2 build
strong renaming out of **one independent leader election per name** —
a grid of test-and-set objects, each settled by its own election.  This
service generalizes exactly that construction: each *key* is a name,
each handoff of a key is one leader-election instance among the current
contenders, and the winner holds the key under a **lease** until it
releases, crashes, or lets the lease expire.  Epochs make the sequence
of elections per key explicit: every grant carries a strictly
increasing ``(key, epoch)`` fencing token, and any write (renew /
release) presenting a stale epoch is rejected with FENCED at the wire
layer — the service-side analogue of "a LOSE must never overwrite the
winner" (Lemma A.3).

Lease state machine, per key::

    FREE ──acquire──> HELD ──(ttl - grace elapses)──> EXPIRING
      ^                 │  ^                             │
      │             release renew                        │ (ttl elapses,
      │(no waiters)     │  └────────── EXPIRING ─────────┘  or holder
      └──────────── RE-ELECTING <── crash ──┘               crashes)
                        │
                        └─(winner drawn among waiters)─> HELD, epoch+1

Contested handoffs are decided by :meth:`ElectionService._elect`: by
default a deterministic draw from a per-``(key, epoch)`` RNG stream
(:func:`~repro.sim.rng.make_stream`), or — ``election="sim"`` — by
running the paper's actual O(log* k) leader-election algorithm in the
simulator with one pid per contender, making each handoff a literal
instance of the reproduced protocol.

Delivery semantics under chaos: replies and watch events pass through
the seeded fault plan of :mod:`repro.net.chaos` (link ``SERVICE_PID ->
client``), so a granted reply can be dropped or delayed exactly like a
lossy network would.  Clients retry with the same ``rpc`` nonce; the
service keeps a bounded per-session reply cache and resends the
*recorded* reply instead of re-executing, making every request
at-most-once — a retried ACQUIRE can never double-grant.

Everything the service decides lands in an append-only grant history;
:func:`repro.check.invariants.evaluate_service_run` judges it with the
run-invariant machinery (at most one holder per ``(key, epoch)``,
strictly increasing epochs, non-overlapping holds).
"""

from __future__ import annotations

import asyncio
import heapq
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..errors import ReproError
from ..obs.live import SnapshotWriter
from ..obs.metrics import MetricsRegistry
from ..sim.rng import make_stream
from ..sim.runtime import SimulationResult
from ..sim.trace import Metrics
from .chaos import CLEAN_PLAN, ChaosPlan, LinkChaos
from .wire import Frame, FrameDecoder, FrameType, WireError, pack_frame

#: The service's sender id on reply/event frames (the driver uses -1).
SERVICE_PID = -2

#: Reply statuses carried in the ``status`` field of SVC_REPLY frames.
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


#: Watch event kinds pushed to watchers as SVC_EVENT frames.
class WatchEvent:
    """String constants for the watch notification kinds."""

    GRANTED = "granted"
    EXPIRING = "expiring"
    EXPIRED = "expired"
    RELEASED = "released"
    CRASHED = "crashed"


#: How many replies each session's at-most-once cache retains.
REPLY_CACHE_LIMIT = 1024

#: How many chaos-dropped frames the dead-letter queue retains for
#: post-heal replay; older drops fall off the front (the client-side
#: retry path still recovers them via the at-most-once reply cache).
DLQ_LIMIT = 4096

#: Default lease TTL when the client does not specify one (milliseconds).
DEFAULT_TTL_MS = 5000.0

#: What converting a malformed request field raises.
_FIELD_ERRORS = (KeyError, TypeError, ValueError, OverflowError)

#: Contender-count ceiling for ``election="sim"``; larger fields fall
#: back to the seeded draw (a simulated election over hundreds of pids
#: would stall the event loop the service shares with every key).
SIM_ELECTION_MAX_CONTENDERS = 16


class ServiceError(ReproError, RuntimeError):
    """A service run failed to complete: bad configuration or runtime fault."""


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
        return {
            "key": self.key, "epoch": self.epoch, "holder": self.holder,
            "session": self.session, "granted_ns": self.granted_ns,
            "ended_ns": self.ended_ns, "reason": self.reason,
        }


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
    session: "_Session"
    rpc: int
    enqueued: float
    deadline: float | None  # monotonic seconds; None = wait forever


@dataclass(slots=True)
class _KeyState:
    """Everything the service tracks about one key."""

    key: str
    epoch: int = 0
    state: str = LeaseState.FREE
    holder: str | None = None
    holder_session: "_Session | None" = None
    expires_at: float = 0.0
    ttl_s: float = 0.0
    waiters: list[_Waiter] = field(default_factory=list)
    watchers: set["_Session"] = field(default_factory=set)
    #: When the current vacancy began (crash/expiry), for failover latency.
    vacated_at: float | None = None
    vacated_by_crash: bool = False
    #: The current holder's grant record, closed when the lease ends.
    grant: GrantRecord | None = None


class _Session(asyncio.Protocol):
    """One client connection: identity, transport, chaos link, reply cache.

    The service creates one per accepted connection.  Every chunk the
    socket delivers goes to :meth:`ElectionService._on_chunk`; the first
    frame pins ``pid`` (and with it the chaos link).  Losing the
    connection is a crash.
    """

    __slots__ = (
        "service", "sid", "pid", "transport", "decoder", "link", "replied",
        "closed", "outbox",
    )

    def __init__(self, service: "ElectionService", sid: int) -> None:
        self.service = service
        self.sid = sid
        self.pid: int | None = None
        self.transport: asyncio.Transport | None = None
        self.decoder = FrameDecoder()
        self.link: LinkChaos | None = None
        self.replied: OrderedDict[int, Frame] = OrderedDict()  # by rpc, oldest first
        self.closed = False
        #: Packed frames awaiting the end of the chunk being dispatched.
        self.outbox: list[bytes] = []

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]

    def data_received(self, data: bytes) -> None:
        self.service._on_chunk(self, data)

    def connection_lost(self, exc: Exception | None) -> None:
        if self.pid is not None:
            self.service._session_crashed(self)

    def cache_reply(self, rpc: int, frame: Frame) -> None:
        """Remember a reply so a chaos-dropped one can be resent verbatim."""
        replied = self.replied
        replied[rpc] = frame  # an rpc cached again keeps its place
        if len(replied) > REPLY_CACHE_LIMIT:
            # O(1); `next(iter(dict))` rescans the slots freed at the front.
            replied.popitem(last=False)


class ElectionService:
    """The keyed election namespace: one asyncio server, many elections.

    Construct, then either :meth:`serve_forever` (the ``repro serve``
    CLI path) or ``await start()`` / ``await stop()`` around client
    traffic (tests and the load driver).  All state is owned by the
    event loop; there are no locks because there is no preemption.
    """

    def __init__(
        self,
        seed: int = 0,
        default_ttl_ms: float = DEFAULT_TTL_MS,
        grace_fraction: float = 0.25,
        election: str = "draw",
        plan: ChaosPlan = CLEAN_PLAN,
        telemetry_path: str | None = None,
        telemetry_interval_s: float = 0.5,
        host: str = "127.0.0.1",
        port: int = 0,
        namespace: Mapping[str, int] | None = None,
        grant_hook: "Callable[[GrantRecord], None] | None" = None,
    ) -> None:
        if default_ttl_ms <= 0:
            raise ServiceError(f"default ttl must be positive, got {default_ttl_ms}")
        if not 0.0 < grace_fraction < 1.0:
            raise ServiceError(
                f"grace fraction must be in (0, 1), got {grace_fraction}"
            )
        if election not in ("draw", "sim"):
            raise ServiceError(
                f"unknown election mode {election!r}; expected 'draw' or 'sim'"
            )
        self.seed = seed
        self.default_ttl_s = default_ttl_ms / 1000.0
        self.grace_fraction = grace_fraction
        self.election = election
        self.plan = plan
        self.host = host
        self.port = port
        self.keys: dict[str, _KeyState] = {}
        if namespace:
            # Restart-and-recover: re-seed keys at their last known epoch
            # (all FREE — leases do not survive a restart) so post-restart
            # grants keep fencing tokens issued before it.
            for key, epoch in namespace.items():
                if epoch < 0:
                    raise ServiceError(
                        f"namespace epoch for {key!r} must be >= 0, got {epoch}"
                    )
                self.keys[str(key)] = _KeyState(key=str(key), epoch=int(epoch))
        self.history: list[GrantRecord] = []
        self.fenced: list[FencedRecord] = []
        self.grant_hook = grant_hook
        #: Chaos-dropped frames awaiting post-heal replay: (sid, frame).
        self.dlq: deque[tuple[int, Frame]] = deque(maxlen=DLQ_LIMIT)
        self.metrics = MetricsRegistry()
        self._sessions: dict[int, _Session] = {}
        self._session_counter = 0
        self._server: asyncio.base_events.Server | None = None
        #: Sessions written to while a chunk is dispatched; ``None`` when
        #: no chunk is, and writes go straight to the transport.
        self._touched: list[_Session] | None = None
        self._expiry_heap: list[tuple[float, int, str]] = []
        self._heap_counter = 0
        self._sweeper: asyncio.Task | None = None
        self._telemetry_path = telemetry_path
        self._telemetry_interval_s = telemetry_interval_s
        self._telemetry_task: asyncio.Task | None = None
        self._snapshot_writer: SnapshotWriter | None = None
        self._background: set[asyncio.Task] = set()
        self._stopped = False
        self._started_at = time.monotonic()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind the server and start the sweeper; returns ``(host, port)``."""
        self._server = await asyncio.get_running_loop().create_server(
            self._new_session, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        self._sweeper = asyncio.create_task(self._sweep_loop())
        if self._telemetry_path is not None:
            self._snapshot_writer = SnapshotWriter(self._telemetry_path, meta={
                "backend": "service", "seed": self.seed,
                "election": self.election,
                "interval_s": self._telemetry_interval_s,
                "chaos": self.plan.to_obj(),
            })
            self._telemetry_task = asyncio.create_task(self._telemetry_loop())
        return self.host, self.port

    async def stop(self) -> None:
        """Close the server, cancel background work, end the telemetry stream.

        Idempotent: the CLI path stops once from ``serve_forever`` and
        once from its own cleanup, and the second call is a no-op.
        """
        if self._stopped:
            return
        self._stopped = True
        for task in (self._sweeper, self._telemetry_task, *self._background):
            if task is not None:
                task.cancel()
        for session in list(self._sessions.values()):
            session.closed = True
            session.transport.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Settle the log: leases still held at shutdown end as "open".
        if self._snapshot_writer is not None:
            self._snapshot_writer.write_snapshot(
                self._clock_ms(), self.snapshot()
            )
            self._snapshot_writer.write_end(self._clock_ms())
            self._snapshot_writer.close()

    async def serve_forever(self, duration_s: float | None = None) -> None:
        """Run until cancelled (or for ``duration_s`` seconds).

        Starts the server first if :meth:`start` has not run yet, so it
        works both standalone and after an explicit ``start()``.
        """
        if self._server is None:
            await self.start()
        try:
            if duration_s is None:
                await asyncio.Event().wait()  # until cancelled
            else:
                await asyncio.sleep(duration_s)
        finally:
            await self.stop()

    def _clock_ms(self) -> int:
        return int((time.monotonic() - self._started_at) * 1000)

    def snapshot(self) -> dict[str, Any]:
        """The service's current metrics snapshot (gauges refreshed)."""
        registry = self.metrics
        registry.gauge("svc.keys").set(len(self.keys))
        registry.gauge("svc.leases_held").set(sum(
            1 for state in self.keys.values()
            if state.state in (LeaseState.HELD, LeaseState.EXPIRING)
        ))
        registry.gauge("svc.waiters").set(sum(
            len(state.waiters) for state in self.keys.values()
        ))
        registry.gauge("svc.sessions").set(len(self._sessions))
        return registry.snapshot()

    async def _telemetry_loop(self) -> None:
        """Append a metrics snapshot to the stream every interval."""
        assert self._snapshot_writer is not None
        try:
            while True:
                await asyncio.sleep(self._telemetry_interval_s)
                self._snapshot_writer.write_snapshot(
                    self._clock_ms(), self.snapshot()
                )
        except asyncio.CancelledError:
            pass

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    def _new_session(self) -> _Session:
        """The protocol for one accepted connection."""
        self._session_counter += 1
        return _Session(self, self._session_counter)

    def _on_chunk(self, session: _Session, data: bytes) -> None:
        """Dispatch every frame ``data`` completes, then flush the replies.

        Frames written meanwhile, to any session, collect in that
        session's outbox; each touched session then gets one write.  A
        malformed frame closes the connection after the frames decoded
        before it are answered.
        """
        try:
            frames = session.decoder.feed(data)
            malformed = False
        except WireError as error:
            frames = error.frames
            malformed = True
        if frames and session.pid is None:
            # First frame pins the session's pid (= chaos link id).
            pid = frames[0].sender
            session.pid = pid
            session.link = self.plan.link(SERVICE_PID, pid)
            self._sessions[session.sid] = session
            self.metrics.counter("svc.sessions_opened").inc()
        self._touched = touched = []
        try:
            for frame in frames:
                self._dispatch(session, frame)
        finally:
            self._touched = None
            for peer in touched:
                peer.transport.write(b"".join(peer.outbox))
                peer.outbox.clear()
        if malformed:
            session.transport.close()

    def _dispatch(self, session: _Session, frame: Frame) -> None:
        """Route one request frame; replies go back through chaos."""
        rpc = frame.fields.get("rpc")
        if not isinstance(rpc, int):
            self._reply(session, Frame(FrameType.SVC_REPLY, SERVICE_PID, {
                "rpc": -1, "status": ReplyStatus.ERROR,
                "message": f"request {frame.ftype!r} missing int rpc nonce",
            }), cache=False)
            return
        cached = session.replied.get(rpc)
        if cached is not None:
            # At-most-once: the reply was computed but (possibly) lost to
            # chaos; resend the recorded frame without re-executing.
            self.metrics.counter("svc.replays").inc()
            self._send(session, cached)
            return
        handlers = {
            FrameType.ACQUIRE: self._on_acquire,
            FrameType.RENEW: self._on_renew,
            FrameType.RELEASE: self._on_release,
            FrameType.WATCH: self._on_watch,
            FrameType.SVC_STATS: self._on_stats,
        }
        handler = handlers.get(frame.ftype)
        if handler is None:
            self._reply(session, Frame(FrameType.SVC_REPLY, SERVICE_PID, {
                "rpc": rpc, "status": ReplyStatus.ERROR,
                "message": f"unexpected frame type {frame.ftype!r}",
            }), cache=False)
            return
        handler(session, rpc, frame.fields)

    def _reply(self, session: _Session, frame: Frame, cache: bool = True) -> None:
        """Record (for at-most-once resends) and send one reply frame."""
        rpc = frame.fields.get("rpc")
        if cache and isinstance(rpc, int) and rpc >= 0:
            session.cache_reply(rpc, frame)
        self._send(session, frame)

    def _send(self, session: _Session, frame: Frame) -> None:
        """Write one frame through the session's chaos link."""
        if session.closed or session.transport.is_closing():
            return
        fate = session.link.next_fate(self._clock_ms())
        if fate.drop:
            self.metrics.counter("svc.frames_dropped").inc()
            self.dlq.append((session.sid, frame))
            return
        if fate.delay_s > 0.0:
            self.metrics.counter("svc.frames_delayed").inc()
            task = asyncio.get_running_loop().create_task(
                self._delayed_send(session, frame, fate.delay_s)
            )
            self._background.add(task)
            task.add_done_callback(self._background.discard)
            return
        self._write(session, frame)
        for _ in range(fate.duplicates):
            self._write(session, frame)

    async def _delayed_send(
        self, session: _Session, frame: Frame, delay_s: float
    ) -> None:
        await asyncio.sleep(delay_s)
        self._write(session, frame)

    def _write(self, session: _Session, frame: Frame) -> None:
        """Write one frame now, or at the end of the chunk being dispatched."""
        if session.closed or session.transport.is_closing():
            return
        data = pack_frame(frame)
        self.metrics.counter("svc.frames_sent").inc()
        touched = self._touched
        if touched is None:
            session.transport.write(data)
            return
        if not session.outbox:
            touched.append(session)
        session.outbox.append(data)

    def replay_dlq(self) -> int:
        """Re-deliver chaos-dropped frames to their still-open sessions.

        The dead-letter replay path for a healed partition: frames the
        fault plan swallowed are written directly (no second chaos
        draw — they already paid theirs).  Receivers are idempotent by
        construction: replies carry their original ``rpc`` nonce and
        watch events are monotone state announcements.  Frames whose
        session has since closed are discarded.  Returns the number of
        frames actually re-sent.
        """
        replayed = 0
        while self.dlq:
            sid, frame = self.dlq.popleft()
            session = self._sessions.get(sid)
            if session is None or session.closed:
                continue
            self._write(session, frame)
            replayed += 1
        if replayed:
            self.metrics.counter("svc.dlq_replayed").inc(replayed)
        return replayed

    def export_namespace(self) -> dict[str, int]:
        """The namespace's fencing floor: every key's current epoch.

        Feed this to a new service's ``namespace`` parameter to restart
        it without forgetting epochs — grants after the restart continue
        each key's sequence, so tokens issued before it stay fenced.
        """
        return {key: state.epoch for key, state in self.keys.items()}

    # ------------------------------------------------------------------
    # Request handlers
    # ------------------------------------------------------------------

    def _key(self, key: str) -> _KeyState:
        state = self.keys.get(key)
        if state is None:
            state = self.keys[key] = _KeyState(key=key)
        return state

    def _on_acquire(self, session: _Session, rpc: int,
                    fields: Mapping[str, Any]) -> None:
        """ACQUIRE: grant now, queue as a contender, or reply BUSY."""
        try:
            key, client = str(fields["key"]), str(fields["client"])
            ttl_ms = float(fields.get("ttl_ms") or self.default_ttl_s * 1000.0)
            wait_ms = float(fields.get("wait_ms", 0.0))
        except _FIELD_ERRORS as error:
            self._malformed(session, rpc, FrameType.ACQUIRE, error)
            return
        self.metrics.counter("svc.acquires").inc()
        if ttl_ms <= 0:
            self._reply(session, Frame(FrameType.SVC_REPLY, SERVICE_PID, {
                "rpc": rpc, "status": ReplyStatus.ERROR,
                "message": f"ttl_ms must be positive, got {ttl_ms}",
            }))
            return
        state = self._key(key)
        if state.state in (LeaseState.HELD, LeaseState.EXPIRING):
            if state.holder == client and state.holder_session is session:
                # Idempotent re-acquire by the live holder: current token.
                self._reply(session, self._grant_reply(rpc, state, ttl_ms))
                return
            if wait_ms <= 0:
                self.metrics.counter("svc.busy").inc()
                self._reply(session, Frame(FrameType.SVC_REPLY, SERVICE_PID, {
                    "rpc": rpc, "status": ReplyStatus.BUSY,
                    "key": key, "holder": state.holder, "epoch": state.epoch,
                }))
                return
            for waiter in state.waiters:
                if waiter.session is session and waiter.rpc == rpc:
                    # A chaos-retried ACQUIRE: the contender is already
                    # queued and will be answered once; don't double-enter.
                    return
            now = time.monotonic()
            state.waiters.append(_Waiter(
                client=client, session=session, rpc=rpc,
                enqueued=now, deadline=now + wait_ms / 1000.0,
            ))
            self._push_expiry(now + wait_ms / 1000.0, key)
            return
        # FREE (or RE-ELECTING with no contest in flight): grant now.
        self._grant(state, client, session, rpc, ttl_ms)

    def _on_renew(self, session: _Session, rpc: int,
                  fields: Mapping[str, Any]) -> None:
        """RENEW: extend the lease iff the fencing token is current."""
        try:
            key, client = str(fields["key"]), str(fields["client"])
            epoch = int(fields["epoch"])
            ttl_ms = float(fields["ttl_ms"]) if fields.get("ttl_ms") else None
        except _FIELD_ERRORS as error:
            self._malformed(session, rpc, FrameType.RENEW, error)
            return
        self.metrics.counter("svc.renews").inc()
        state = self.keys.get(key)
        if (
            state is None
            or state.state not in (LeaseState.HELD, LeaseState.EXPIRING)
            or state.epoch != epoch
            or state.holder != client
        ):
            self._fence(session, rpc, key, epoch, client, "renew")
            return
        if ttl_ms is None:
            ttl_ms = state.ttl_s * 1000.0
        state.ttl_s = ttl_ms / 1000.0
        state.expires_at = time.monotonic() + state.ttl_s
        state.state = LeaseState.HELD
        self._push_expiry(
            state.expires_at - state.ttl_s * self.grace_fraction, key
        )
        self._reply(session, self._grant_reply(rpc, state, ttl_ms))

    def _on_release(self, session: _Session, rpc: int,
                    fields: Mapping[str, Any]) -> None:
        """RELEASE: end the lease iff the fencing token is current."""
        try:
            key, client = str(fields["key"]), str(fields["client"])
            epoch = int(fields["epoch"])
        except _FIELD_ERRORS as error:
            self._malformed(session, rpc, FrameType.RELEASE, error)
            return
        self.metrics.counter("svc.releases").inc()
        state = self.keys.get(key)
        if (
            state is None
            or state.state not in (LeaseState.HELD, LeaseState.EXPIRING)
            or state.epoch != epoch
            or state.holder != client
        ):
            self._fence(session, rpc, key, epoch, client, "release")
            return
        self._reply(session, Frame(FrameType.SVC_REPLY, SERVICE_PID, {
            "rpc": rpc, "status": ReplyStatus.OK, "key": key, "epoch": epoch,
        }))
        self._end_grant(state, "release", WatchEvent.RELEASED)
        self._handoff(state)

    def _on_watch(self, session: _Session, rpc: int,
                  fields: Mapping[str, Any]) -> None:
        """WATCH: subscribe the session; reply with the key's current state."""
        try:
            key = str(fields["key"])
        except _FIELD_ERRORS as error:
            self._malformed(session, rpc, FrameType.WATCH, error)
            return
        state = self._key(key)
        state.watchers.add(session)
        self._reply(session, Frame(FrameType.SVC_REPLY, SERVICE_PID, {
            "rpc": rpc, "status": ReplyStatus.STATE, "key": key,
            "state": state.state, "epoch": state.epoch, "holder": state.holder,
        }))

    def _on_stats(self, session: _Session, rpc: int,
                  fields: Mapping[str, Any]) -> None:
        """SVC_STATS: reply with the service's metrics snapshot."""
        self._reply(session, Frame(FrameType.SVC_REPLY, SERVICE_PID, {
            "rpc": rpc, "status": ReplyStatus.OK, "snapshot": self.snapshot(),
        }), cache=False)

    def _malformed(self, session: _Session, rpc: int, verb: str,
                   error: Exception) -> None:
        """Answer a request whose fields do not parse; change nothing else.

        Not cached: a resend of the same request is parsed (and refused)
        again.
        """
        detail = (
            f"missing field {error}" if isinstance(error, KeyError) else str(error)
        )
        self._reply(session, Frame(FrameType.SVC_REPLY, SERVICE_PID, {
            "rpc": rpc, "status": ReplyStatus.ERROR,
            "message": f"malformed {verb} request: {detail}",
        }), cache=False)

    def _fence(self, session: _Session, rpc: int, key: str, epoch: int,
               client: str, verb: str) -> None:
        """Reject a write presenting a stale token; log it for the invariant."""
        current = self.keys[key].epoch if key in self.keys else 0
        self.metrics.counter("svc.fenced").inc()
        self.fenced.append(FencedRecord(
            key=key, request_epoch=epoch, current_epoch=current,
            verb=verb, client=client,
        ))
        self._reply(session, Frame(FrameType.SVC_REPLY, SERVICE_PID, {
            "rpc": rpc, "status": ReplyStatus.FENCED,
            "key": key, "epoch": epoch, "current": current,
        }))

    # ------------------------------------------------------------------
    # Lease transitions
    # ------------------------------------------------------------------

    def _grant_reply(self, rpc: int, state: _KeyState, ttl_ms: float) -> Frame:
        return Frame(FrameType.SVC_REPLY, SERVICE_PID, {
            "rpc": rpc, "status": ReplyStatus.GRANTED, "key": state.key,
            "epoch": state.epoch, "ttl_ms": ttl_ms, "holder": state.holder,
        })

    def _grant(self, state: _KeyState, client: str, session: _Session,
               rpc: int, ttl_ms: float) -> None:
        """Elect ``client`` the holder of ``state.key`` under a fresh epoch.

        A stopping service grants nothing: its connections' callbacks
        still run while the server closes, and a grant then would reuse
        the first epoch of a successor seeded from :meth:`export_namespace`.
        """
        if self._stopped:
            state.state = LeaseState.FREE
            return
        now = time.monotonic()
        state.epoch += 1
        state.state = LeaseState.HELD
        state.holder = client
        state.holder_session = session
        state.ttl_s = ttl_ms / 1000.0
        state.expires_at = now + state.ttl_s
        record = state.grant = GrantRecord(
            key=state.key, epoch=state.epoch, holder=client,
            session=session.sid, granted_ns=time.monotonic_ns(),
        )
        self.history.append(record)
        self.metrics.counter("svc.grants").inc()
        if self.grant_hook is not None:
            self.grant_hook(record)
        if state.vacated_at is not None:
            failover_ms = (now - state.vacated_at) * 1000.0
            self.metrics.histogram("svc.failover_ms").observe(failover_ms)
            if state.vacated_by_crash:
                self.metrics.histogram("svc.crash_failover_ms").observe(
                    failover_ms
                )
            state.vacated_at = None
            state.vacated_by_crash = False
        self._push_expiry(
            state.expires_at - state.ttl_s * self.grace_fraction, state.key
        )
        self._reply(session, self._grant_reply(rpc, state, ttl_ms))
        self._notify(state, WatchEvent.GRANTED)

    def _end_grant(self, state: _KeyState, reason: str, event: str) -> None:
        """Close the key's open grant record and vacate the lease."""
        record = state.grant
        if record is not None and record.ended_ns is None:
            record.ended_ns = time.monotonic_ns()
            record.reason = reason
        state.grant = None
        state.holder = None
        state.holder_session = None
        state.state = LeaseState.FREE
        state.vacated_at = time.monotonic()
        state.vacated_by_crash = reason == "crash"
        self._notify(state, event)

    def _handoff(self, state: _KeyState) -> None:
        """After a vacancy: elect among live waiters, or fall back to FREE."""
        now = time.monotonic()
        live = [
            waiter for waiter in state.waiters
            if not waiter.session.closed
            and (waiter.deadline is None or waiter.deadline > now)
        ]
        expired = [
            waiter for waiter in state.waiters
            if waiter not in live and not waiter.session.closed
        ]
        state.waiters = []
        for waiter in expired:
            self.metrics.counter("svc.busy").inc()
            self._reply(waiter.session, Frame(FrameType.SVC_REPLY, SERVICE_PID, {
                "rpc": waiter.rpc, "status": ReplyStatus.BUSY,
                "key": state.key, "holder": None, "epoch": state.epoch,
            }))
        if not live:
            state.state = LeaseState.FREE
            return
        state.state = LeaseState.REELECTING
        winner = self._elect(state, live)
        self.metrics.counter("svc.reelections").inc()
        for waiter in live:
            if waiter is not winner:
                state.waiters.append(waiter)  # losers stay queued
        self.metrics.histogram("svc.acquire_wait_ms").observe(
            (now - winner.enqueued) * 1000.0
        )
        self._grant(
            state, winner.client, winner.session, winner.rpc,
            self.default_ttl_s * 1000.0,
        )

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
        if (
            self.election == "sim"
            and len(ordered) <= SIM_ELECTION_MAX_CONTENDERS
        ):
            from ..harness.runners import run_leader_election

            run = run_leader_election(
                n=len(ordered), adversary="random",
                seed=stream.randrange(2**31),
            )
            return ordered[run.winner]
        return ordered[stream.randrange(len(ordered))]

    def _notify(self, state: _KeyState, event: str) -> None:
        """Push one SVC_EVENT frame to every live watcher of the key."""
        if not state.watchers:
            return
        frame = Frame(FrameType.SVC_EVENT, SERVICE_PID, {
            "key": state.key, "event": event,
            "epoch": state.epoch, "holder": state.holder,
        })
        for watcher in list(state.watchers):
            if watcher.closed:
                state.watchers.discard(watcher)
                continue
            self.metrics.counter("svc.events_pushed").inc()
            self._send(watcher, frame)

    def _session_crashed(self, session: _Session) -> None:
        """Disconnect semantics: every lease the session held fails over."""
        session.closed = True
        self._sessions.pop(session.sid, None)
        self.metrics.counter("svc.sessions_closed").inc()
        for state in self.keys.values():
            state.watchers.discard(session)
            state.waiters = [
                waiter for waiter in state.waiters
                if waiter.session is not session
            ]
            if (
                state.holder_session is session
                and state.state in (LeaseState.HELD, LeaseState.EXPIRING)
            ):
                self.metrics.counter("svc.crash_failovers").inc()
                self._end_grant(state, "crash", WatchEvent.CRASHED)
                self._handoff(state)

    # ------------------------------------------------------------------
    # Expiry sweeping
    # ------------------------------------------------------------------

    def _push_expiry(self, when: float, key: str) -> None:
        """Schedule a lazy wake-up for ``key`` around ``when`` (monotonic)."""
        self._heap_counter += 1
        heapq.heappush(self._expiry_heap, (when, self._heap_counter, key))

    async def _sweep_loop(self) -> None:
        """Drive lease expiry from one heap-ordered timer task.

        Entries are lazy: each wake-up re-validates the key's *current*
        deadline, so renewals and releases never have to unschedule
        anything (the stale entry pops, sees a healthy lease, and is
        discarded) — the timer-wheel discipline that keeps thousands of
        keys on one task.
        """
        try:
            while True:
                now = time.monotonic()
                while self._expiry_heap and self._expiry_heap[0][0] <= now:
                    _, _, key = heapq.heappop(self._expiry_heap)
                    self._sweep_key(key, now)
                if self._expiry_heap:
                    pause = min(
                        max(self._expiry_heap[0][0] - now, 0.001), 0.05
                    )
                else:
                    pause = 0.05
                await asyncio.sleep(pause)
        except asyncio.CancelledError:
            pass

    def _sweep_key(self, key: str, now: float) -> None:
        """Apply any due transition for ``key``: EXPIRING, expiry, timeouts."""
        state = self.keys.get(key)
        if state is None:
            return
        # Waiter timeouts fire regardless of the lease's health.
        timed_out = [
            waiter for waiter in state.waiters
            if waiter.deadline is not None and waiter.deadline <= now
            and not waiter.session.closed
        ]
        if timed_out:
            state.waiters = [
                waiter for waiter in state.waiters if waiter not in timed_out
            ]
            for waiter in timed_out:
                self.metrics.counter("svc.busy").inc()
                self._reply(waiter.session, Frame(
                    FrameType.SVC_REPLY, SERVICE_PID, {
                        "rpc": waiter.rpc, "status": ReplyStatus.BUSY,
                        "key": key, "holder": state.holder,
                        "epoch": state.epoch,
                    },
                ))
        if state.state not in (LeaseState.HELD, LeaseState.EXPIRING):
            return
        if state.expires_at <= now:
            self.metrics.counter("svc.expirations").inc()
            self._end_grant(state, "expire", WatchEvent.EXPIRED)
            self._handoff(state)
        elif (
            state.state == LeaseState.HELD
            and state.expires_at - state.ttl_s * self.grace_fraction <= now
        ):
            state.state = LeaseState.EXPIRING
            self._notify(state, WatchEvent.EXPIRING)
            self._push_expiry(state.expires_at, key)


# ---------------------------------------------------------------------------
# The checkable run digest
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class ServiceRun:
    """A service execution's decision log, shaped for ``repro.check``.

    ``result`` is an empty :class:`~repro.sim.runtime.SimulationResult`
    so :class:`~repro.check.invariants.CheckContext` accepts the run;
    the serve-task invariants read :attr:`history` and :attr:`fenced`
    instead of processor decisions.
    """

    n: int
    k: int
    history: list[GrantRecord]
    fenced: list[FencedRecord]
    result: SimulationResult = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.result is None:
            self.result = SimulationResult(
                n=self.n, decisions={}, metrics=Metrics(self.n),
                undecided=frozenset(), crashed=frozenset(), start_times={},
            )

    @classmethod
    def of(cls, service: ElectionService) -> "ServiceRun":
        """Snapshot a service's decision log into a checkable run."""
        return cls(
            n=len(service.keys) or 1,
            k=len(service.history),
            history=list(service.history),
            fenced=list(service.fenced),
        )
