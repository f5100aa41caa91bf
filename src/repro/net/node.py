"""One processor of the socket backend: server, client, protocol driver.

A :class:`NodeRuntime` is the real-process counterpart of one simulated
:class:`~repro.sim.process.Process` — and in fact *wraps* one, reusing
its register file, coin log, and :class:`~repro.sim.process.ProcessAPI`
facade, so the protocol coroutine cannot tell which backend it runs on.
What changes is only who resolves the ``communicate`` requests:

* the **server** half accepts peer connections and services PROPAGATE /
  COLLECT frames exactly like the simulator's delivery step — merge the
  entries, or snapshot the requested variable — replying ACK /
  COLLECT_REPLY over the same connection (the model's standing
  assumption that every non-faulty processor assists, participant or
  not, decided or not);
* the **client** half implements one ``communicate`` call as a broadcast
  of retried, timed-out RPCs: per-peer tasks resend with exponential
  backoff until a reply lands, and the call resolves as soon as
  ``floor(n/2) + 1`` processors (the caller included) have contributed —
  the quorum condition of [ABND95].  Leftover per-peer attempts are
  cancelled at quorum, which is precisely the adversary "never
  delivering" those messages in the simulated model.

Fault injection (:mod:`repro.net.chaos`) sits on the *sender* side of
every directed link: each outgoing data frame — requests and replies
alike — consults the link's seeded fate stream and may be dropped,
delayed (rescheduled as its own task, so later frames overtake it),
or duplicated (receivers are idempotent: merges are semilattice joins
and replies are matched by RPC nonce).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..obs.events import Event, EventType
from ..obs.jsonl import JsonlSink
from ..obs.metrics import MetricsRegistry
from ..sim.communicate import Collect, Propagate
from ..sim.process import AlgorithmFactory, Process
from ..sim.rng import make_stream
from .chaos import CLEAN_PLAN, ChaosPlan, LinkChaos, apply_fate
from .wire import (
    Frame,
    FrameType,
    WireError,
    check_entries,
    pack_frame,
    read_frame,
    write_frame,
)

#: Seconds between attempts to reach a not-yet-listening peer or driver.
CONNECT_RETRY_S = 0.05

#: Default per-RPC timeout before a resend (seconds).
DEFAULT_RPC_TIMEOUT_S = 0.25

#: Exponential backoff: ``min(base * 2**attempt, cap)`` seconds.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 1.0

#: The driver's sender id on control frames.
DRIVER_PID = -1

#: Map data-plane frame types onto the simulator's message-kind names,
#: used for per-kind stats parity with :class:`~repro.sim.trace.Metrics`.
DATA_FRAME_TYPES = (
    FrameType.PROPAGATE,
    FrameType.COLLECT,
    FrameType.ACK,
    FrameType.COLLECT_REPLY,
)


@dataclass(slots=True)
class NodeStats:
    """Transport counters one node reports back to the driver."""

    frames_sent: int = 0
    frames_received: int = 0
    frames_dropped: int = 0
    frames_delayed: int = 0
    frames_duplicated: int = 0
    rpc_retries: int = 0
    frames_by_kind: dict[str, int] = field(
        default_factory=lambda: {kind: 0 for kind in DATA_FRAME_TYPES}
    )

    def to_fields(self) -> dict[str, Any]:
        """The wire-field form carried inside the final RESULT frame."""
        return {
            "frames_sent": self.frames_sent,
            "frames_received": self.frames_received,
            "frames_dropped": self.frames_dropped,
            "frames_delayed": self.frames_delayed,
            "frames_duplicated": self.frames_duplicated,
            "rpc_retries": self.rpc_retries,
            "frames_by_kind": dict(self.frames_by_kind),
        }


class PeerClient:
    """The outbound half of one directed link: connection, RPCs, chaos.

    One persistent connection per destination, demultiplexed by RPC
    nonce: concurrent calls (quorum broadcasts, straggler retries) share
    it, and a reader task routes each reply to its waiting future.
    Duplicate and stale replies resolve no future and are dropped —
    matching the simulator, where stale acknowledgements for resolved
    calls are ignored.
    """

    def __init__(self, node: "NodeRuntime", dst: int, port: int) -> None:
        self._node = node
        self.dst = dst
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._read_task: asyncio.Task | None = None
        self._pending: dict[int, asyncio.Future] = {}
        self._connect_lock = asyncio.Lock()
        self.link: LinkChaos = node.plan.link(node.pid, dst)

    async def _ensure_connected(self) -> asyncio.StreamWriter:
        async with self._connect_lock:
            if self._writer is not None and not self._writer.is_closing():
                return self._writer
            reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
            self._reader, self._writer = reader, writer
            self._read_task = asyncio.create_task(self._read_loop(reader))
            return writer

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                self._node.note_received(frame)
                rpc = frame.fields.get("rpc")
                future = self._pending.get(rpc)
                if future is not None and not future.done():
                    future.set_result(frame)
        except (WireError, OSError, ConnectionError):
            pass
        finally:
            self._fail_pending(ConnectionResetError(f"link to {self.dst} lost"))
            if self._writer is not None:
                self._writer.close()
            self._reader = self._writer = None

    def _fail_pending(self, error: BaseException) -> None:
        for future in list(self._pending.values()):
            if not future.done():
                future.set_exception(error)

    async def call(self, ftype: str, fields: Mapping[str, Any], rpc: int) -> Frame:
        """Send one request frame and await the reply matching ``rpc``.

        The frame may be dropped or delayed by the link's chaos stream;
        the caller owns the timeout-and-retry policy, so this simply
        waits until a matching reply arrives or the connection fails.
        """
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[rpc] = future
        try:
            writer = await self._ensure_connected()
            await self._node.send_through_chaos(
                writer, Frame(ftype, self._node.pid, {**fields, "rpc": rpc}), self.link
            )
            return await future
        finally:
            self._pending.pop(rpc, None)

    async def close(self) -> None:
        """Tear the connection down and cancel the reader task."""
        if self._read_task is not None:
            self._read_task.cancel()
            try:
                await self._read_task
            except (asyncio.CancelledError, Exception):
                pass
        if self._writer is not None:
            self._writer.close()
        self._reader = self._writer = None


class NodeRuntime:
    """One OS-process processor: serve quorum traffic, run the protocol.

    Lifecycle (driven by :meth:`run`): bind the peer server on an
    ephemeral port, register with the driver (HELLO), receive the peer
    port map (START), drive the protocol coroutine if participating
    (reporting the decision with a RESULT frame), keep serving peers
    until SHUTDOWN, then report transport stats and exit.
    """

    def __init__(
        self,
        pid: int,
        n: int,
        seed: int,
        driver_port: int,
        factory: AlgorithmFactory | None = None,
        plan: ChaosPlan = CLEAN_PLAN,
        rpc_timeout_s: float = DEFAULT_RPC_TIMEOUT_S,
        trace_path: str | None = None,
        telemetry_interval_s: float | None = None,
    ) -> None:
        self.pid = pid
        self.n = n
        self.seed = seed
        self.driver_port = driver_port
        self.plan = plan
        self.rpc_timeout_s = rpc_timeout_s
        self.stats = NodeStats()
        rng = None if factory is None else make_stream(seed, f"proc/{pid}")
        self.process = Process(pid, n, rng, factory)
        self._peers: dict[int, PeerClient] = {}
        self._server: asyncio.base_events.Server | None = None
        self._rpc_counter = 0
        self._closing = False
        self._started_ns = time.monotonic_ns()
        self._background: set[asyncio.Task] = set()
        self._sink: JsonlSink | None = (
            JsonlSink(trace_path) if trace_path is not None else None
        )
        if self._sink is not None:
            self.process.obs = self._emit
        # Live telemetry: a registry of wall-clock instruments (per-RPC
        # latency, retry counts, chaos drops/delays) reported to the
        # driver as periodic RESULT kind="stats" frames.  None when the
        # run was launched without --telemetry: the hot paths then pay
        # only an ``is None`` check, like the simulator's sink guard.
        self._telemetry_interval_s = telemetry_interval_s
        self._telemetry: MetricsRegistry | None = (
            MetricsRegistry() if telemetry_interval_s is not None else None
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def _now_ns(self) -> int:
        return time.monotonic_ns()

    def _emit(self, etype: str, fields: Mapping[str, Any]) -> None:
        """Emit one structured event (no-op when tracing is off)."""
        if self._sink is not None:
            self._sink.emit(Event(self._now_ns(), etype, self.pid, dict(fields)))

    def telemetry_snapshot(self) -> dict[str, Any]:
        """The node's current metrics snapshot (telemetry must be on).

        Folds the transport counters of :class:`NodeStats` into the
        registry (as ``net.*`` counters) next to the live per-RPC latency
        histogram, so one snapshot carries everything the driver merges
        into the cluster view.
        """
        assert self._telemetry is not None
        registry = self._telemetry
        stats = self.stats
        registry.counter("net.frames_sent").value = stats.frames_sent
        registry.counter("net.frames_received").value = stats.frames_received
        registry.counter("net.frames_dropped").value = stats.frames_dropped
        registry.counter("net.frames_delayed").value = stats.frames_delayed
        registry.counter("net.frames_duplicated").value = stats.frames_duplicated
        registry.counter("net.rpc_retries").value = stats.rpc_retries
        for kind, count in stats.frames_by_kind.items():
            registry.counter(f"net.frames.{kind}").value = count
        registry.gauge("net.comm_calls").set(self.process.comm_calls)
        return registry.snapshot()

    async def _telemetry_loop(self, writer: "asyncio.StreamWriter") -> None:
        """Report a stats snapshot to the driver every telemetry interval."""
        assert self._telemetry_interval_s is not None
        try:
            while not self._closing:
                await asyncio.sleep(self._telemetry_interval_s)
                if self._closing:
                    return
                await write_frame(writer, Frame(
                    FrameType.RESULT, self.pid,
                    {"kind": "stats", "snapshot": self.telemetry_snapshot()},
                ))
        except (OSError, ConnectionError, asyncio.CancelledError):
            pass

    # ------------------------------------------------------------------
    # Chaos-aware sending
    # ------------------------------------------------------------------

    def _elapsed_ms(self) -> float:
        return (time.monotonic_ns() - self._started_ns) / 1e6

    async def send_through_chaos(
        self, writer: asyncio.StreamWriter, frame: Frame, link: LinkChaos
    ) -> None:
        """Write one data frame, subject to the link's next chaos fate."""
        fate = link.next_fate(self._elapsed_ms())
        stats = self.stats
        stats.frames_by_kind[frame.ftype] = stats.frames_by_kind.get(frame.ftype, 0) + 1
        if not apply_fate(fate, self._background, self._write_now, writer, frame, link.dst):
            stats.frames_dropped += 1
            self._emit("net.drop", {"dst": link.dst, "kind": frame.ftype})
            return
        stats.frames_duplicated += fate.duplicates
        if fate.delay_s > 0.0:
            stats.frames_delayed += 1
            self._emit(
                "net.delay",
                {"dst": link.dst, "kind": frame.ftype, "ms": fate.delay_s * 1e3},
            )

    def _write_now(self, writer: asyncio.StreamWriter, frame: Frame, dst: int) -> None:
        if writer.is_closing():
            return
        # Stamped before the write, so the send's clock precedes the
        # receiver's deliver stamp and the merged trace keeps them in order.
        self._emit(
            EventType.MSG_SEND,
            {"kind": frame.ftype, "src": self.pid, "dst": dst,
             "call": frame.fields.get("call", -1), "var": frame.fields.get("var", "")},
        )
        writer.write(pack_frame(frame))
        self.stats.frames_sent += 1

    def note_received(self, frame: Frame) -> None:
        """Account one inbound data frame (called by connection readers)."""
        self.stats.frames_received += 1
        self._emit(
            EventType.MSG_DELIVER,
            {"kind": frame.ftype, "src": frame.sender, "dst": self.pid,
             "call": frame.fields.get("call", -1), "var": frame.fields.get("var", "")},
        )

    # ------------------------------------------------------------------
    # Server half: service quorum traffic
    # ------------------------------------------------------------------

    async def _handle_peer(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one inbound peer connection until EOF.

        Replies travel back over the same connection and pass through
        the chaos stream of the *reply* link (this node -> requester).
        """
        links: dict[int, LinkChaos] = {}
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                self.note_received(frame)
                link = links.get(frame.sender)
                if link is None:
                    # Reply-path chaos keyed per requester; independent of
                    # the request path, like two directions of a cable.
                    link = links[frame.sender] = self.plan.link(self.pid, frame.sender)
                reply = self._serve(frame)
                if reply is not None:
                    await self.send_through_chaos(writer, reply, link)
        except (WireError, OSError, ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()

    def _serve(self, frame: Frame) -> Frame | None:
        """The delivery-step semantics: merge or snapshot, then reply."""
        fields = frame.fields
        if frame.ftype == FrameType.PROPAGATE:
            self.process.registers.merge(fields["var"], check_entries(fields["entries"]))
            return Frame(
                FrameType.ACK,
                self.pid,
                {"call": fields["call"], "rpc": fields["rpc"]},
            )
        if frame.ftype == FrameType.COLLECT:
            entries = dict(self.process.registers.entries(fields["var"]))
            return Frame(
                FrameType.COLLECT_REPLY,
                self.pid,
                {"call": fields["call"], "rpc": fields["rpc"],
                 "var": fields["var"], "entries": entries},
            )
        # ACK / COLLECT_REPLY never arrive here: replies flow through the
        # client connections.  Anything else is a protocol error; drop it.
        return None

    # ------------------------------------------------------------------
    # Client half: the communicate primitive over RPC broadcasts
    # ------------------------------------------------------------------

    async def _communicate(self, request: Propagate | Collect) -> list[dict] | None:
        """Resolve one yielded request against a quorum of peers."""
        process = self.process
        pending = process.begin_call(request)
        call_id = pending.call_id
        if isinstance(request, Propagate):
            payload = dict(process.registers.entries(request.var, request.keys))
            fields = {"call": call_id, "var": request.var, "entries": payload}
            ftype = FrameType.PROPAGATE
        else:
            fields = {"call": call_id, "var": request.var}
            ftype = FrameType.COLLECT
        if not pending.satisfied:
            quorum = asyncio.Event()
            tasks = [
                asyncio.create_task(
                    self._deliver_until_acked(peer, ftype, fields, quorum)
                )
                for peer in self._peers.values()
            ]
            try:
                await quorum.wait()
            finally:
                # Quorum reached (or the node is dying): the adversary never
                # delivers the leftover messages of this call.
                for task in tasks:
                    task.cancel()
        process.pending = None
        return pending.result()

    async def _deliver_until_acked(
        self,
        peer: PeerClient,
        ftype: str,
        fields: Mapping[str, Any],
        quorum: asyncio.Event,
    ) -> None:
        """Retry one peer's RPC with exponential backoff until it lands,
        then fold the reply into the pending call (``quorum`` is set by
        the reply that completes it)."""
        attempt = 0
        while not self._closing:
            self._rpc_counter += 1
            rpc = self._rpc_counter
            issued = time.perf_counter()
            try:
                reply = await asyncio.wait_for(
                    peer.call(ftype, fields, rpc), timeout=self.rpc_timeout_s
                )
            except (asyncio.TimeoutError, OSError, ConnectionError):
                self.stats.rpc_retries += 1
                self._emit(
                    "net.retry",
                    {"dst": peer.dst, "call": fields["call"], "attempt": attempt},
                )
                await asyncio.sleep(
                    min(BACKOFF_BASE_S * (2 ** attempt), BACKOFF_CAP_S)
                )
                attempt += 1
                continue
            if self._telemetry is not None:
                self._telemetry.histogram("net.rpc_latency_ms").observe(
                    (time.perf_counter() - issued) * 1e3
                )
            view = None
            if reply.ftype == FrameType.COLLECT_REPLY:
                view = {
                    key: entry[1] for key, entry in reply.fields["entries"].items()
                }
            if self.process.ack(fields["call"], view):
                quorum.set()
            return

    # ------------------------------------------------------------------
    # Protocol driving
    # ------------------------------------------------------------------

    async def _run_protocol(self) -> tuple[Any, int, int]:
        """Drive the participant coroutine; returns (result, start, decide) ns."""
        start_ns = time.monotonic_ns()
        process = self.process
        process.start()
        request = process.resume(None)
        while request is not None:
            request = process.resume(await self._communicate(request))
        return process.result, start_ns, time.monotonic_ns()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def run(self) -> None:
        """The node's whole life: register, run, serve, report, exit."""
        self._server = await asyncio.start_server(
            self._handle_peer, "127.0.0.1", 0
        )
        port = self._server.sockets[0].getsockname()[1]
        reader, writer = await self._connect_driver()
        try:
            await write_frame(
                writer, Frame(FrameType.HELLO, self.pid, {"port": port})
            )
            start = await read_frame(reader)
            if start is None or start.ftype != FrameType.START:
                raise WireError(f"expected START from driver, got {start!r}")
            ports: dict[int, int] = start.fields["ports"]
            self.rpc_timeout_s = float(start.fields.get("rpc_timeout_s", self.rpc_timeout_s))
            for pid, peer_port in ports.items():
                if pid != self.pid:
                    self._peers[pid] = PeerClient(self, pid, peer_port)
            stats_task: asyncio.Task | None = None
            if self._telemetry is not None:
                stats_task = asyncio.create_task(self._telemetry_loop(writer))
                self._background.add(stats_task)
            if self.process.is_participant:
                try:
                    result, start_ns, decide_ns = await self._run_protocol()
                except Exception as error:  # report, then re-raise for exit code
                    await write_frame(writer, Frame(
                        FrameType.ERROR, self.pid, {"message": repr(error)}
                    ))
                    raise
                await write_frame(writer, Frame(
                    FrameType.RESULT, self.pid,
                    {"kind": "decision", "outcome": result,
                     "start_ns": start_ns, "decide_ns": decide_ns,
                     "comm_calls": self.process.comm_calls,
                     "coins": list(self.process.coins.all())},
                ))
            # Participant or responder: keep serving until SHUTDOWN — the
            # model's non-faulty processors assist forever, decided or not.
            shutdown = await read_frame(reader)
            if shutdown is not None and shutdown.ftype != FrameType.SHUTDOWN:
                raise WireError(f"expected SHUTDOWN from driver, got {shutdown!r}")
            self._closing = True
            if stats_task is not None:
                # Stop periodic stats before the final RESULT so the
                # driver's control stream ends on the final frame.
                stats_task.cancel()
            if self._telemetry is not None:
                # One last stats report: a run faster than the interval
                # would otherwise leave the snapshot stream empty.
                await write_frame(writer, Frame(
                    FrameType.RESULT, self.pid,
                    {"kind": "stats", "snapshot": self.telemetry_snapshot()},
                ))
            await write_frame(writer, Frame(
                FrameType.RESULT, self.pid,
                {"kind": "final",
                 "role": "participant" if self.process.is_participant else "responder",
                 **self.stats.to_fields()},
            ))
        finally:
            writer.close()
            await self._shutdown()

    async def _connect_driver(self) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        """Dial the driver's control port, retrying while it comes up."""
        deadline = time.monotonic() + 10.0
        while True:
            try:
                return await asyncio.open_connection("127.0.0.1", self.driver_port)
            except OSError:
                if time.monotonic() > deadline:
                    raise
                await asyncio.sleep(CONNECT_RETRY_S)

    async def _shutdown(self) -> None:
        """Cancel background work, close peers and the server, flush obs."""
        self._closing = True
        for task in list(self._background):
            task.cancel()
        for peer in self._peers.values():
            await peer.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._sink is not None:
            self._sink.close()
