"""Election-as-a-service: a keyed, multi-tenant election namespace.

A long-lived asyncio server that serves named elections to external
clients over the frame codec of :mod:`repro.net.wire`.  Each key is an
independent, epoch-fenced leader election with a TTL lease — the
paper's one election per name (Figure 3 / Theorem 4.2).  The lease state
machine is the pure :class:`~repro.net.lease.LeaseTable`; this module
owns the sockets, the clock, chaos and telemetry, feeds the table each
request with the time, and delivers what it decides.

Replies and watch events pass through the seeded fault plan of
:mod:`repro.net.chaos` (link ``SERVICE_PID -> client``), so a reply can
be dropped or delayed like on a lossy network.  Clients retry with the
same ``rpc`` nonce, and each session's bounded reply cache resends the
*recorded* reply instead of re-executing: every request is at-most-once,
and a retried ACQUIRE can never grant twice.  The grant history is
judged by :func:`repro.check.invariants.evaluate_service_run`.
"""

from __future__ import annotations

import asyncio
import math
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..errors import ReproError
from ..obs.live import SnapshotWriter
from ..obs.metrics import MetricsRegistry
from ..sim.runtime import SimulationResult
from ..sim.trace import Metrics
from .chaos import CLEAN_PLAN, ChaosPlan, LinkChaos, apply_fate
from .lease import EVENT, FencedRecord, GrantRecord, LeaseState, LeaseTable, ReplyStatus
from .wire import Frame, FrameDecoder, FrameType, WireError, pack_frame

#: The service's sender id on reply/event frames (the driver uses -1).
SERVICE_PID = -2

#: How many replies each session's at-most-once cache retains.
REPLY_CACHE_LIMIT = 1024

#: How many chaos-dropped frames the dead-letter queue retains for
#: post-heal replay; older drops fall off the front (the client-side
#: retry path still recovers them via the at-most-once reply cache).
DLQ_LIMIT = 4096

#: Default lease TTL when the client does not specify one (milliseconds).
DEFAULT_TTL_MS = 5000.0

#: The handler method for each request frame type, looked up per request
#: (not bound once) so a wrapped handler is the one called.
_HANDLERS = {
    FrameType.ACQUIRE: "_on_acquire",
    FrameType.RENEW: "_on_renew",
    FrameType.RELEASE: "_on_release",
    FrameType.WATCH: "_on_watch",
    FrameType.SVC_STATS: "_on_stats",
}

#: What converting a malformed request field raises.
_FIELD_ERRORS = (KeyError, TypeError, ValueError, OverflowError)


def _finite(name: str, value: Any) -> float:
    """``value`` as a float; NaN would stall the expiry heap, so no NaN or inf."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return number


class ServiceError(ReproError, RuntimeError):
    """A service run failed to complete: bad configuration or runtime fault."""


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

    def cached(self, rpc: int) -> Frame | None:
        """The reply already sent for ``rpc``, if the cache still holds it."""
        return self.replied.get(rpc)

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
        if not (math.isfinite(default_ttl_ms) and default_ttl_ms > 0):
            raise ServiceError(f"default ttl must be positive, got {default_ttl_ms}")
        if not 0.0 < grace_fraction < 1.0:
            raise ServiceError(f"grace fraction must be in (0, 1), got {grace_fraction}")
        if election not in ("draw", "sim"):
            raise ServiceError(
                f"unknown election mode {election!r}; expected 'draw' or 'sim'"
            )
        for key, epoch in (namespace or {}).items():
            if epoch < 0:
                raise ServiceError(f"namespace epoch for {key!r} must be >= 0, got {epoch}")
        self.seed = seed
        self.election = election
        self.plan = plan
        self.host = host
        self.port = port
        self.metrics = MetricsRegistry()
        #: The lease state machine; ``namespace`` restarts it without
        #: forgetting epochs (see :meth:`export_namespace`).
        self.leases = LeaseTable(
            seed, default_ttl_ms / 1000.0, grace_fraction, election,
            self.metrics, namespace, grant_hook,
        )
        self.keys = self.leases.keys
        self.history = self.leases.history
        self.fenced = self.leases.fenced
        #: Chaos-dropped frames awaiting post-heal replay: (sid, frame).
        self.dlq: deque[tuple[int, Frame]] = deque(maxlen=DLQ_LIMIT)
        self._sessions: dict[int, _Session] = {}
        self._session_counter = 0
        self._server: asyncio.base_events.Server | None = None
        #: Sessions written to while a chunk is dispatched; ``None`` when
        #: no chunk is, and writes go straight to the transport.
        self._touched: list[_Session] | None = None
        self._sweeper: asyncio.Task | None = None
        self._telemetry_path = telemetry_path
        self._telemetry_interval_s = telemetry_interval_s
        self._telemetry_task: asyncio.Task | None = None
        self._snapshot_writer: SnapshotWriter | None = None
        self._background: set[asyncio.Task] = set()
        self._started_at = time.monotonic()

    @property
    def grant_hook(self) -> "Callable[[GrantRecord], None] | None":
        """Called with every new :class:`GrantRecord`, as it is granted."""
        return self.leases.grant_hook

    @grant_hook.setter
    def grant_hook(self, hook: "Callable[[GrantRecord], None] | None") -> None:
        """Replace the hook the lease table calls on every grant."""
        self.leases.grant_hook = hook

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
        if self.leases.stopped:
            return
        self.leases.stopped = True
        for task in (self._sweeper, self._telemetry_task, *self._background):
            if task is not None:
                task.cancel()
        for session in list(self._sessions.values()):
            session.closed = True
            session.transport.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
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
        if not isinstance(rpc, int) or isinstance(rpc, bool):
            self._error(session, -1, f"request {frame.ftype!r} missing int rpc nonce")
            return
        cached = session.cached(rpc)
        if cached is not None:
            # At-most-once: the reply was computed but (possibly) lost to
            # chaos; resend the recorded frame without re-executing.
            self.metrics.counter("svc.replays").inc()
            self._send(session, cached)
            return
        name = _HANDLERS.get(frame.ftype)
        if name is None:
            self._error(session, rpc, f"unexpected frame type {frame.ftype!r}")
            return
        getattr(self, name)(session, rpc, frame.fields)

    def _error(self, session: _Session, rpc: int, message: str,
               cache: bool = False) -> None:
        self._reply(session, Frame(FrameType.SVC_REPLY, SERVICE_PID, {
            "rpc": rpc, "status": ReplyStatus.ERROR, "message": message,
        }), cache=cache)

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
        if not apply_fate(fate, self._background, self._write, session, frame):
            self.metrics.counter("svc.frames_dropped").inc()
            self.dlq.append((session.sid, frame))
        elif fate.delay_s > 0.0:
            self.metrics.counter("svc.frames_delayed").inc()

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

        The dead-letter replay path for a healed partition: swallowed
        frames are written directly (no second chaos draw).  Receivers
        are idempotent: replies carry their ``rpc`` nonce and watch
        events are monotone.  Returns the number of frames re-sent.
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

    def _emit(self, out: list) -> None:
        """Deliver a lease-table decision: replies and watch events, in order."""
        for kind, session, fields in out:
            if kind is EVENT:
                self.metrics.counter("svc.events_pushed").inc()
                self._send(session, Frame(FrameType.SVC_EVENT, SERVICE_PID, fields))
            else:
                self._reply(session, Frame(FrameType.SVC_REPLY, SERVICE_PID, fields))

    def _on_acquire(self, session: _Session, rpc: int,
                    fields: Mapping[str, Any]) -> None:
        """ACQUIRE: grant now, queue as a contender, or reply BUSY."""
        try:
            key, client = str(fields["key"]), str(fields["client"])
            ttl_ms = _finite("ttl_ms", fields.get("ttl_ms") or (
                self.leases.default_ttl_s * 1000.0
            ))
            wait_ms = _finite("wait_ms", fields.get("wait_ms", 0.0))
        except _FIELD_ERRORS as error:
            self._malformed(session, rpc, FrameType.ACQUIRE, error)
            return
        self.metrics.counter("svc.acquires").inc()
        if ttl_ms <= 0:
            self._error(session, rpc, f"ttl_ms must be positive, got {ttl_ms}", cache=True)
            return
        self._emit(self.leases.acquire(
            session, rpc, key, client, ttl_ms, wait_ms, time.monotonic()
        ))

    def _on_renew(self, session: _Session, rpc: int,
                  fields: Mapping[str, Any]) -> None:
        """RENEW: extend the lease iff the fencing token is current."""
        try:
            key, client = str(fields["key"]), str(fields["client"])
            epoch = int(fields["epoch"])
            ttl = fields.get("ttl_ms")
            ttl_ms = _finite("ttl_ms", ttl) if ttl else None
        except _FIELD_ERRORS as error:
            self._malformed(session, rpc, FrameType.RENEW, error)
            return
        self.metrics.counter("svc.renews").inc()
        if ttl_ms is not None and ttl_ms <= 0:
            self._error(session, rpc, f"ttl_ms must be positive, got {ttl_ms}", cache=True)
            return
        self._emit(self.leases.renew(
            session, rpc, key, client, epoch, ttl_ms, time.monotonic()
        ))

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
        self._emit(self.leases.release(
            session, rpc, key, client, epoch, time.monotonic()
        ))

    def _on_watch(self, session: _Session, rpc: int,
                  fields: Mapping[str, Any]) -> None:
        """WATCH: subscribe the session; reply with the key's current state."""
        try:
            key = str(fields["key"])
        except _FIELD_ERRORS as error:
            self._malformed(session, rpc, FrameType.WATCH, error)
            return
        self._emit(self.leases.watch(session, rpc, key))

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
        self._error(session, rpc, f"malformed {verb} request: {detail}")

    def _session_crashed(self, session: _Session) -> None:
        """Disconnect semantics: every lease the session held fails over."""
        session.closed = True
        self._sessions.pop(session.sid, None)
        self.metrics.counter("svc.sessions_closed").inc()
        self._handoff(session)

    def _handoff(self, session: _Session) -> None:
        """Hand a closed session's leases over to their keys' waiters."""
        self._emit(self.leases.crash(session, time.monotonic()))

    async def _sweep_loop(self) -> None:
        """Drive every lease deadline from one timer task."""
        try:
            while True:
                now = time.monotonic()
                for key in self.leases.due(now):
                    self._sweep_key(key, now)
                deadline = self.leases.next_deadline()
                pause = 0.05 if deadline is None else min(
                    max(deadline - now, 0.001), 0.05
                )
                await asyncio.sleep(pause)
        except asyncio.CancelledError:
            pass

    def _sweep_key(self, key: str, now: float) -> None:
        """Apply any due transition for ``key``: EXPIRING, expiry, timeouts."""
        self._emit(self.leases.sweep(key, now))


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
