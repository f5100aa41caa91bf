"""Thin client for the keyed election namespace of :mod:`repro.net.service`.

One :class:`ServiceClient` owns one TCP connection (= one *session*:
the service treats a disconnect as the crash of everything the session
holds) and multiplexes any number of concurrent requests over it by
``rpc`` nonce, exactly like the data-plane peers of
:mod:`repro.net.node`.  Requests ride the same chaos discipline as the
rest of the backend: each outbound frame consults the client's seeded
link fate and may be dropped or delayed; the client retries with the
*same* nonce after ``rpc_timeout_s``, and the service's at-most-once
reply cache guarantees a retried ACQUIRE can never double-grant.

API surface (all coroutines)::

    client = await ServiceClient.connect(host, port, client_id="worker-3")
    lease  = await client.acquire("primary", ttl_ms=2000, wait_ms=5000)
    ok     = await client.renew(lease)           # False => fenced out
    await client.release(lease)
    async for event in client.watch("primary"):  # granted/expired/...
        ...

:meth:`acquire` returns a :class:`Lease` (the ``(key, epoch)`` fencing
token plus TTL bookkeeping) or ``None`` when the key stayed busy past
``wait_ms`` — the lock-style timeout.  :class:`FencedError` is never
raised by :meth:`renew` / :meth:`release`; losing a fencing race is a
normal outcome (the paper's LOSE), reported as a return value.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, AsyncIterator, Mapping

from .chaos import CLEAN_PLAN, ChaosPlan, LinkChaos, apply_fate
from .service import SERVICE_PID, ReplyStatus
from .wire import Frame, FrameType, pack_frame, read_frame

#: Default per-request timeout before a same-nonce resend (seconds).
DEFAULT_RPC_TIMEOUT_S = 0.25

#: Resend backoff: ``min(base * 2**attempt, cap)`` seconds.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 0.5


class ServiceClientError(RuntimeError):
    """The connection to the service failed mid-request."""


@dataclass(frozen=True, slots=True)
class Lease:
    """One granted ``(key, epoch)`` fencing token.

    ``deadline`` is the client-side monotonic estimate of expiry; it is
    advisory (the service's clock is authoritative) but good enough to
    schedule renewals at a safe margin.
    """

    key: str
    epoch: int
    ttl_ms: float
    deadline: float

    @property
    def remaining_s(self) -> float:
        """Client-side estimate of seconds until expiry."""
        return max(0.0, self.deadline - time.monotonic())


@dataclass(frozen=True, slots=True)
class KeyEvent:
    """One watch notification: what happened to a key, under which epoch."""

    key: str
    event: str
    epoch: int
    holder: str | None


class ServiceClient:
    """One session against an :class:`~repro.net.service.ElectionService`."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        client_id: str,
        pid: int = 0,
        plan: ChaosPlan = CLEAN_PLAN,
        rpc_timeout_s: float = DEFAULT_RPC_TIMEOUT_S,
    ) -> None:
        self.client_id = client_id
        self.pid = pid
        self.rpc_timeout_s = rpc_timeout_s
        self._reader = reader
        self._writer = writer
        self._link: LinkChaos = plan.link(pid, SERVICE_PID)
        self._rpc_counter = 0
        self._pending: dict[int, asyncio.Future] = {}
        self._watch_queues: dict[str, asyncio.Queue] = {}
        self._closed = False
        self._background: set[asyncio.Task] = set()
        self._read_task = asyncio.get_running_loop().create_task(
            self._read_loop()
        )

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        client_id: str,
        pid: int = 0,
        plan: ChaosPlan = CLEAN_PLAN,
        rpc_timeout_s: float = DEFAULT_RPC_TIMEOUT_S,
    ) -> "ServiceClient":
        """Open one session to the service at ``host:port``."""
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, client_id, pid=pid, plan=plan,
                   rpc_timeout_s=rpc_timeout_s)

    async def close(self) -> None:
        """Drop the session (the service sees this as a crash)."""
        self._closed = True
        self._read_task.cancel()
        for task in list(self._background):
            task.cancel()
        try:
            await self._read_task
        except (asyncio.CancelledError, Exception):
            pass
        self._writer.close()
        for future in self._pending.values():
            if not future.done():
                future.set_exception(
                    ServiceClientError("client closed mid-request")
                )
        for queue in self._watch_queues.values():
            queue.put_nowait(None)

    def abort(self) -> None:
        """Kill the TCP connection immediately — the crash-test hammer.

        Unlike :meth:`close` this does not wait for anything; the
        service observes an abrupt EOF, exactly like a process crash,
        and fails over every lease the session held.
        """
        self._closed = True
        self._read_task.cancel()
        transport = self._writer.transport
        if transport is not None:
            transport.abort()

    # ------------------------------------------------------------------
    # Inbound demultiplexing
    # ------------------------------------------------------------------

    async def _read_loop(self) -> None:
        try:
            while True:
                frame = await read_frame(self._reader)
                if frame is None:
                    break
                if frame.ftype == FrameType.SVC_EVENT:
                    key = frame.fields.get("key")
                    queue = self._watch_queues.get(key)
                    if queue is not None:
                        queue.put_nowait(KeyEvent(
                            key=key, event=frame.fields.get("event"),
                            epoch=frame.fields.get("epoch", 0),
                            holder=frame.fields.get("holder"),
                        ))
                    continue
                rpc = frame.fields.get("rpc")
                future = self._pending.get(rpc)
                if future is not None and not future.done():
                    future.set_result(frame)
        except Exception:
            pass
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        ServiceClientError("connection to service lost")
                    )
            for queue in self._watch_queues.values():
                queue.put_nowait(None)

    # ------------------------------------------------------------------
    # Request plumbing: chaos on sends, same-nonce retries
    # ------------------------------------------------------------------

    def _send(self, frame: Frame) -> None:
        """Write one request frame through the client's chaos link."""
        apply_fate(self._link.next_fate(0.0), self._background, self._write, frame)

    def _write(self, frame: Frame) -> None:
        if self._closed or self._writer.is_closing():
            return
        self._writer.write(pack_frame(frame))

    async def _call(
        self,
        ftype: str,
        fields: Mapping[str, Any],
        overall_timeout_s: float | None = None,
    ) -> Frame:
        """Issue one request; resend the same nonce until a reply lands.

        ``overall_timeout_s`` bounds the whole exchange (used by waiting
        acquires, whose reply legitimately takes up to ``wait_ms``); the
        per-attempt timeout only drives resends.
        """
        self._rpc_counter += 1
        rpc = self._rpc_counter
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[rpc] = future
        deadline = (
            None if overall_timeout_s is None
            else time.monotonic() + overall_timeout_s
        )
        attempt = 0
        try:
            while True:
                if self._closed:
                    raise ServiceClientError("client is closed")
                self._send(Frame(ftype, self.pid, {**fields, "rpc": rpc}))
                per_attempt = self.rpc_timeout_s * (2 ** min(attempt, 4))
                if deadline is not None:
                    per_attempt = min(
                        per_attempt, max(deadline - time.monotonic(), 0.01)
                    )
                try:
                    return await asyncio.wait_for(
                        asyncio.shield(future), timeout=per_attempt
                    )
                except asyncio.TimeoutError:
                    if deadline is not None and time.monotonic() >= deadline:
                        raise ServiceClientError(
                            f"{ftype} {fields.get('key')!r} timed out after "
                            f"{overall_timeout_s}s"
                        ) from None
                    attempt += 1
                    await asyncio.sleep(
                        min(BACKOFF_BASE_S * (2 ** attempt), BACKOFF_CAP_S)
                    )
        finally:
            self._pending.pop(rpc, None)

    # ------------------------------------------------------------------
    # The lease API
    # ------------------------------------------------------------------

    async def acquire(
        self,
        key: str,
        ttl_ms: float | None = None,
        wait_ms: float = 0.0,
    ) -> Lease | None:
        """Acquire ``key``, waiting up to ``wait_ms`` for the election.

        Returns the granted :class:`Lease`, or ``None`` if the key was
        (and stayed) busy — the BUSY outcome is the service-side LOSE.
        """
        fields: dict[str, Any] = {
            "key": key, "client": self.client_id, "wait_ms": wait_ms,
        }
        if ttl_ms is not None:
            fields["ttl_ms"] = ttl_ms
        margin = max(self.rpc_timeout_s * 8, 2.0)
        reply = await self._call(
            FrameType.ACQUIRE, fields,
            overall_timeout_s=wait_ms / 1000.0 + margin,
        )
        return self._lease_of(reply)

    async def renew(self, lease: Lease, ttl_ms: float | None = None) -> Lease | None:
        """Extend ``lease``; returns the refreshed lease or ``None`` if fenced."""
        fields: dict[str, Any] = {
            "key": lease.key, "client": self.client_id, "epoch": lease.epoch,
        }
        if ttl_ms is not None:
            fields["ttl_ms"] = ttl_ms
        reply = await self._call(FrameType.RENEW, fields)
        return self._lease_of(reply)

    async def release(self, lease: Lease) -> bool:
        """Release ``lease``; returns False when fenced (already lost)."""
        reply = await self._call(FrameType.RELEASE, {
            "key": lease.key, "client": self.client_id, "epoch": lease.epoch,
        })
        return reply.fields.get("status") == ReplyStatus.OK

    async def watch(self, key: str) -> AsyncIterator[KeyEvent]:
        """Subscribe to ``key``; yields :class:`KeyEvent` until closed.

        The subscription's initial STATE reply is folded into a synthetic
        first event so consumers always see the current holder before
        any transition.
        """
        queue: asyncio.Queue = self._watch_queues.setdefault(
            key, asyncio.Queue()
        )
        reply = await self._call(FrameType.WATCH, {"key": key})
        yield KeyEvent(
            key=key, event=reply.fields.get("state", "unknown"),
            epoch=reply.fields.get("epoch", 0),
            holder=reply.fields.get("holder"),
        )
        while True:
            event = await queue.get()
            if event is None:
                return
            yield event

    async def stats(self) -> dict[str, Any]:
        """Fetch the service's current metrics snapshot."""
        reply = await self._call(FrameType.SVC_STATS, {})
        return dict(reply.fields.get("snapshot", {}))

    @staticmethod
    def _lease_of(reply: Frame) -> Lease | None:
        status = reply.fields.get("status")
        if status != ReplyStatus.GRANTED:
            return None
        ttl_ms = float(reply.fields.get("ttl_ms", 0.0))
        return Lease(
            key=reply.fields["key"], epoch=reply.fields["epoch"],
            ttl_ms=ttl_ms, deadline=time.monotonic() + ttl_ms / 1000.0,
        )
