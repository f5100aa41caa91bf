"""Golden pin of the election service's wire bytes.

Three request scripts drive a live :class:`~repro.net.service.ElectionService`
over raw localhost sockets — frames built with
:func:`~repro.net.wire.pack_frame` and cut with a
:class:`~repro.net.wire.FrameDecoder`, so the client library is not under
test:

* ``single`` — one session: watch, acquire, idempotent re-acquire,
  renew, busy, fenced renew and release, a cached-reply resend, the
  ERROR replies (no rpc nonce, unexpected frame type, non-positive ttl),
  then EOF while holding leases (crash);
* ``lockstep`` — two sessions: a waiting acquire, the release handoff,
  then ``abort()`` of the new holder and the crash failover;
* ``pipelined`` — ``single``'s requests in one ``write``.  Its reply
  bytes must equal the sequential run's.

Each script runs under :data:`~repro.net.chaos.CLEAN_PLAN` and under a
seeded duplicate-only :class:`~repro.net.chaos.ChaosPlan` (no drops or
delays, so the run stays deterministic).  Each case pins, in
``service_golden.json``, the SHA-256 of the exact bytes every socket
received and of the grant history as ``(key, epoch, holder, reason)``
rows.  A socket that half-closes reads to EOF; an aborted socket's bytes
are pinned up to the end of the last reply it waited for.

Regenerate the digests (only after a deliberate behaviour change) with::

    PYTHONPATH=src python tests/net/test_service_golden.py
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from pathlib import Path

import pytest

from repro.net.chaos import CLEAN_PLAN, ChaosPlan
from repro.net.service import ElectionService
from repro.net.wire import HEADER_BYTES, Frame, FrameDecoder, FrameType, pack_frame

GOLDEN = Path(__file__).with_name("service_golden.json")

PLANS = {
    "clean": CLEAN_PLAN,
    "dup": ChaosPlan(seed=5, duplicate=0.3),
}
SCRIPTS = ("single", "lockstep", "pipelined")
CASES = [f"{script}-{plan}" for script in SCRIPTS for plan in PLANS]

#: ``single``'s requests in order; each one is answered by a reply
#: carrying its rpc (-1 for the request that has none).
SINGLE = (
    (FrameType.WATCH, {"rpc": 1, "key": "k"}),
    (FrameType.ACQUIRE, {"rpc": 2, "key": "k", "client": "a", "ttl_ms": 5000.0}),
    (FrameType.ACQUIRE, {"rpc": 3, "key": "k", "client": "a", "ttl_ms": 4000.0}),
    (FrameType.RENEW,
     {"rpc": 4, "key": "k", "client": "a", "epoch": 1, "ttl_ms": 6000.0}),
    (FrameType.ACQUIRE, {"rpc": 5, "key": "k", "client": "b", "wait_ms": 0.0}),
    (FrameType.RENEW, {"rpc": 6, "key": "k", "client": "a", "epoch": 7}),
    (FrameType.RELEASE, {"rpc": 7, "key": "k", "client": "a", "epoch": 1}),
    (FrameType.RELEASE, {"rpc": 8, "key": "k", "client": "a", "epoch": 1}),
    (FrameType.ACQUIRE, {"rpc": 9, "key": "k2", "client": "a"}),
    (FrameType.ACQUIRE, {"key": "k3", "client": "a"}),
    (FrameType.HELLO, {"rpc": 11}),
    (FrameType.ACQUIRE, {"rpc": 12, "key": "k3", "client": "a", "ttl_ms": -1.0}),
    (FrameType.ACQUIRE, {"rpc": 2, "key": "k", "client": "a", "ttl_ms": 5000.0}),
    (FrameType.ACQUIRE, {"rpc": 13, "key": "k", "client": "a"}),
)
#: How long any one awaited reply may take before the case fails.
REPLY_TIMEOUT_S = 10.0


class _Peer:
    """One raw session: sends packed frames, records every received byte."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, pid: int) -> None:
        self.writer = writer
        self.pid = pid
        self.received = bytearray()
        #: End offset in :attr:`received` of the first reply per rpc.
        self.reply_end: dict[int, int] = {}
        #: End offset of the last reply :meth:`reply` waited for.
        self.mark = 0
        self._decoder = FrameDecoder()
        self._cut = 0
        self._arrived = asyncio.Event()
        self._reading = asyncio.get_running_loop().create_task(
            self._read(reader)
        )

    @classmethod
    async def open(cls, port: int, pid: int) -> "_Peer":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer, pid)

    async def _read(self, reader: asyncio.StreamReader) -> None:
        try:
            while data := await reader.read(65536):
                self.received.extend(data)
                for frame in self._decoder.feed(data):
                    length = int.from_bytes(
                        self.received[self._cut + 3:self._cut + 7], "big"
                    )
                    self._cut += HEADER_BYTES + length
                    rpc = frame.fields.get("rpc")
                    if frame.ftype == FrameType.SVC_REPLY:
                        self.reply_end.setdefault(rpc, self._cut)
                self._arrived.set()
        except ConnectionError:
            pass
        finally:
            self._arrived.set()

    def send(self, ftype: str, fields: dict) -> None:
        self.writer.write(pack_frame(Frame(ftype, self.pid, fields)))

    async def reply(self, rpc: int) -> None:
        """Wait for the reply to ``rpc``; marks the stream up to it."""
        async def arrived() -> None:
            while rpc not in self.reply_end:
                if self._reading.done():
                    raise AssertionError(f"connection ended before rpc {rpc}")
                self._arrived.clear()
                await self._arrived.wait()

        await asyncio.wait_for(arrived(), REPLY_TIMEOUT_S)
        self.mark = max(self.mark, self.reply_end[rpc])

    async def call(self, ftype: str, fields: dict) -> None:
        self.send(ftype, fields)
        await self.reply(fields.get("rpc", -1))

    async def finish(self) -> bytes:
        """Half-close and read to EOF; every byte the socket received."""
        self.writer.write_eof()
        await asyncio.wait_for(self._reading, REPLY_TIMEOUT_S)
        self.writer.close()
        return bytes(self.received)

    def abort(self) -> bytes:
        """Reset the connection; the bytes up to the last awaited reply."""
        self.writer.transport.abort()
        self._reading.cancel()
        return bytes(self.received[:self.mark])


async def _single(port: int, pipelined: bool) -> dict[str, bytes]:
    peer = await _Peer.open(port, pid=3)
    if pipelined:
        peer.writer.write(b"".join(
            pack_frame(Frame(ftype, peer.pid, fields))
            for ftype, fields in SINGLE
        ))
    else:
        for ftype, fields in SINGLE:
            await peer.call(ftype, fields)
    return {"a": await peer.finish()}


async def _lockstep(port: int) -> dict[str, bytes]:
    a = await _Peer.open(port, pid=1)
    b = await _Peer.open(port, pid=2)
    await a.call(FrameType.WATCH, {"rpc": 1, "key": "k"})
    await a.call(FrameType.ACQUIRE, {"rpc": 2, "key": "k", "client": "a"})
    b.send(FrameType.ACQUIRE,
           {"rpc": 1, "key": "k", "client": "b", "wait_ms": 60_000.0})
    # A busy acquire behind the waiting one: once it is answered, the
    # waiter is queued.
    await b.call(FrameType.ACQUIRE, {"rpc": 2, "key": "k", "client": "b"})
    await a.call(FrameType.RELEASE,
                 {"rpc": 3, "key": "k", "client": "a", "epoch": 1})
    await b.reply(1)  # the handoff grant
    a.send(FrameType.ACQUIRE,
           {"rpc": 4, "key": "k", "client": "a", "wait_ms": 60_000.0})
    await a.call(FrameType.ACQUIRE, {"rpc": 5, "key": "k", "client": "a"})
    b_bytes = b.abort()
    await a.reply(4)  # the crash failover grant
    return {"a": await a.finish(), "b": b_bytes}


def _run_case(case: str) -> tuple[dict[str, bytes], list[list]]:
    """Run one case; the bytes each socket received and the grant rows."""
    script, plan = case.split("-")

    async def main():
        service = ElectionService(seed=0, plan=PLANS[plan])
        _, port = await service.start()
        try:
            if script == "lockstep":
                received = await _lockstep(port)
            else:
                received = await _single(port, script == "pipelined")
        finally:
            await service.stop()
        rows = [
            [record.key, record.epoch, record.holder, record.reason]
            for record in service.history
        ]
        return received, rows

    return asyncio.run(main())


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(received: dict[str, bytes], rows: list[list]) -> dict:
    return {
        "bytes": {name: _sha(data) for name, data in sorted(received.items())},
        "history": _sha(json.dumps(rows).encode("utf-8")),
    }


@pytest.fixture(scope="module")
def golden() -> dict[str, dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_service_golden(case, golden):
    received, rows = _run_case(case)
    assert _digests(received, rows) == golden[case]


@pytest.mark.parametrize("plan", PLANS)
def test_pipelined_replies_match_sequential(plan):
    sequential, sequential_rows = _run_case(f"single-{plan}")
    pipelined, pipelined_rows = _run_case(f"pipelined-{plan}")
    assert pipelined == sequential
    assert pipelined_rows == sequential_rows


if __name__ == "__main__":
    table = {case: _digests(*_run_case(case)) for case in CASES}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(table)} cases to {GOLDEN}")
