"""Election-service tests: lease edge cases, fencing, failover, invariants.

The service generalizes the paper's per-name election construction
(Fig. 3 / Theorem 4.2) into a long-lived keyed namespace, so the tests
here mirror the classic lease-safety traps: renewal racing expiry,
stale-epoch writes after a holder was deposed, release by a non-holder,
and crash-triggered re-election — each asserted against the serve-task
invariants of :mod:`repro.check.invariants` (at most one holder per
``(key, epoch)``, strictly increasing epochs, non-overlapping holds).
Network-level tests run a real in-process asyncio server over localhost
TCP; the invariant checks also get pure-synthetic histories so a
violation message is tested without needing to force a live one.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.check.invariants import (
    INVARIANTS,
    SERVICE_SPEC,
    evaluate_service_run,
    invariants_for,
)
from repro.net.chaos import ChaosPlan
from repro.net.client import Lease, ServiceClient
from repro.net.load import run_load
from repro.net.service import (
    REPLY_CACHE_LIMIT,
    ElectionService,
    GrantRecord,
    ServiceError,
    ServiceRun,
    _Session,
)
from repro.net.wire import Frame, FrameDecoder, FrameType, pack_frame

#: Chaos plan used by the degraded-network tests: lossy and slow but
#: seeded, so every failure is reproducible.
LOSSY = ChaosPlan(seed=11, drop=0.15, delay=0.3, delay_ms=(1.0, 10.0))


def run_scenario(body, **service_kwargs):
    """Start a service, run ``body(service, host, port)``, return its result.

    The service is always stopped, and the grant history is checked
    against every serve-task invariant afterwards — every scenario in
    this file doubles as an invariant exercise.
    """

    async def _main():
        service = ElectionService(**service_kwargs)
        host, port = await service.start()
        try:
            result = await asyncio.wait_for(body(service, host, port), 60.0)
        finally:
            run = ServiceRun.of(service)
            await service.stop()
        assert evaluate_service_run(run) == []
        return result, run

    return asyncio.run(_main())


class TestLeaseLifecycle:
    def test_acquire_renew_release(self):
        async def body(service, host, port):
            client = await ServiceClient.connect(host, port, client_id="a")
            lease = await client.acquire("k", ttl_ms=5000)
            assert isinstance(lease, Lease)
            assert lease.epoch == 1
            renewed = await client.renew(lease)
            assert renewed is not None and renewed.epoch == 1
            assert await client.release(renewed)
            # Released key is immediately re-acquirable at the next epoch.
            again = await client.acquire("k")
            assert again.epoch == 2
            await client.close()

        _, run = run_scenario(body)
        assert [record.epoch for record in run.history] == [1, 2]
        assert run.history[0].reason == "release"

    def test_busy_key_and_waiting_acquire(self):
        async def body(service, host, port):
            a = await ServiceClient.connect(host, port, client_id="a")
            b = await ServiceClient.connect(host, port, client_id="b")
            lease = await a.acquire("k", ttl_ms=5000)
            # Immediate acquire on a held key loses (the service's LOSE).
            assert await b.acquire("k") is None
            waiter = asyncio.create_task(b.acquire("k", wait_ms=5000))
            await asyncio.sleep(0.05)
            assert await a.release(lease)
            won = await waiter
            assert won is not None and won.epoch == 2
            await a.close()
            await b.close()

        run_scenario(body)

    def test_stopping_service_grants_nothing(self, monkeypatch):
        # Connection callbacks keep running while stop() waits for the
        # server to close.  Force that race deterministically: inside
        # wait_closed(), the holder's connection is lost and fails its
        # lease over, then a contender's already-buffered ACQUIRE is
        # dispatched.  A grant there would reuse the first epoch of a
        # successor seeded from export_namespace().
        async def main():
            service = ElectionService(seed=0, default_ttl_ms=5000.0)
            host, port = await service.start()
            a = await ServiceClient.connect(host, port, client_id="a")
            b = await ServiceClient.connect(host, port, client_id="b")
            lease = await a.acquire("k", ttl_ms=5000.0)
            assert await b.acquire("k") is None  # busy; b's session is live
            holder = service.keys["k"].holder_session
            contender = next(
                session for session in service._sessions.values()
                if session is not holder
            )
            wait_closed = service._server.wait_closed

            async def handlers_drain_while_closing():
                service._session_crashed(holder)
                service._dispatch(contender, Frame(
                    FrameType.ACQUIRE, 0, {"rpc": 99, "key": "k", "client": "b"}
                ))
                await wait_closed()

            monkeypatch.setattr(
                service._server, "wait_closed", handlers_drain_while_closing
            )
            await service.stop()
            a.abort()
            b.abort()
            return service, lease

        service, lease = asyncio.run(main())
        assert lease.epoch == 1
        assert [record.epoch for record in service.history] == [1]
        assert service.export_namespace() == {"k": 1}

    def test_independent_keys_do_not_interfere(self):
        async def body(service, host, port):
            client = await ServiceClient.connect(host, port, client_id="a")
            other = await ServiceClient.connect(host, port, client_id="b")
            leases = [
                await client.acquire(f"shard/{i}", ttl_ms=5000)
                for i in range(8)
            ]
            assert all(lease.epoch == 1 for lease in leases)
            # Re-acquiring a key you already hold is idempotent.
            again = await client.acquire("shard/5")
            assert again is not None and again.epoch == 1
            assert await client.release(leases[3])
            # Releasing one key frees it for others; the rest stay held.
            assert await other.acquire("shard/3") is not None
            assert await other.acquire("shard/5") is None
            await client.close()
            await other.close()

        _, run = run_scenario(body)
        assert len({record.key for record in run.history}) == 8


class TestLeaseEdgeCases:
    def test_renewal_racing_expiry(self):
        """A renewal inside the grace window wins the race with expiry."""

        async def body(service, host, port):
            client = await ServiceClient.connect(host, port, client_id="a")
            lease = await client.acquire("k", ttl_ms=250)
            # Renew from inside the expiring grace window, repeatedly:
            # the lease must survive well past several base TTLs.
            for _ in range(6):
                await asyncio.sleep(0.12)
                lease = await client.renew(lease)
                assert lease is not None, "renewal lost the race with expiry"
            assert lease.epoch == 1
            await client.close()

        _, run = run_scenario(body)
        assert len(run.history) == 1

    def test_expiry_without_renewal_reelects(self):
        async def body(service, host, port):
            a = await ServiceClient.connect(host, port, client_id="a")
            b = await ServiceClient.connect(host, port, client_id="b")
            stale = await a.acquire("k", ttl_ms=150)
            lease = await b.acquire("k", wait_ms=5000)
            assert lease is not None and lease.epoch == 2
            # The deposed holder's old token is now fenced everywhere.
            assert await a.renew(stale) is None
            assert await a.release(stale) is False
            await a.close()
            await b.close()

        _, run = run_scenario(body)
        assert run.history[0].reason == "expire"
        assert run.fenced and all(
            record.request_epoch == 1 and record.current_epoch == 2
            for record in run.fenced
        )

    def test_stale_epoch_fenced_after_partition_heals(self):
        """A holder cut off by a partition comes back to a fenced world.

        The classic split-brain probe: the old primary's connection
        drops (its side of the partition), a new primary is elected at
        epoch+1, then the old one reconnects and replays its stale
        token.  Every stale write must be rejected at the wire layer.
        """

        async def body(service, host, port):
            old = await ServiceClient.connect(host, port, client_id="old")
            new = await ServiceClient.connect(host, port, client_id="new")
            stale = await old.acquire("primary", ttl_ms=5000)
            assert stale.epoch == 1
            # Partition: the old primary drops off the network.
            old.abort()
            lease = await new.acquire("primary", wait_ms=5000)
            assert lease.epoch == 2
            # Heal: the old primary reconnects and replays its token.
            healed = await ServiceClient.connect(host, port, client_id="old")
            assert await healed.renew(stale) is None
            assert await healed.release(stale) is False
            # The new primary's token still works.
            assert await new.renew(lease) is not None
            await healed.close()
            await new.close()

        _, run = run_scenario(body)
        assert [record.epoch for record in run.history] == [1, 2]
        assert run.history[0].reason == "crash"
        verbs = {record.verb for record in run.fenced}
        assert verbs == {"renew", "release"}

    def test_release_by_non_holder_rejected(self):
        async def body(service, host, port):
            a = await ServiceClient.connect(host, port, client_id="a")
            b = await ServiceClient.connect(host, port, client_id="b")
            lease = await a.acquire("k", ttl_ms=5000)
            # b forges a token for the right epoch but the wrong holder.
            forged = Lease(key="k", epoch=lease.epoch, ttl_ms=5000.0,
                           deadline=lease.deadline)
            assert await b.release(forged) is False
            assert await b.renew(forged) is None
            # a still holds the lease.
            assert await a.renew(lease) is not None
            await a.close()
            await b.close()

        _, run = run_scenario(body)
        assert len(run.history) == 1
        assert len(run.fenced) == 2

    def test_crash_failover_latency_bounded_under_chaos(self):
        """Crash-to-new-leader stays bounded under the lossy plan."""

        async def body(service, host, port):
            a = await ServiceClient.connect(
                host, port, client_id="a", pid=1, plan=LOSSY
            )
            b = await ServiceClient.connect(
                host, port, client_id="b", pid=2, plan=LOSSY
            )
            assert await a.acquire("k", ttl_ms=30_000, wait_ms=10_000)
            waiter = asyncio.create_task(b.acquire("k", wait_ms=20_000))
            await asyncio.sleep(0.1)
            a.abort()
            lease = await waiter
            assert lease is not None and lease.epoch == 2
            await b.close()
            return service.snapshot()

        snapshot, run = run_scenario(body, plan=LOSSY, seed=5)
        hist = snapshot["histograms"]["svc.crash_failover_ms"]
        assert hist["count"] == 1
        # Bounded: retries + chaos delays, but nowhere near the waiter's
        # 20s patience — failover is driven by the crash, not the TTL.
        assert hist["max"] < 5000.0
        assert run.history[0].reason == "crash"


class TestMalformedRequests:
    @pytest.mark.parametrize("ftype, fields", [
        (FrameType.ACQUIRE, {"client": "a"}),
        (FrameType.ACQUIRE, {"key": "k"}),
        (FrameType.ACQUIRE, {"key": "k", "client": "a", "ttl_ms": "soon"}),
        (FrameType.ACQUIRE, {"key": "k", "client": "a", "wait_ms": [1]}),
        (FrameType.RENEW, {"key": "held", "client": "a"}),
        (FrameType.RENEW,
         {"key": "held", "client": "a", "epoch": 1, "ttl_ms": "x"}),
        (FrameType.RELEASE, {"key": "held", "client": "a", "epoch": "abc"}),
        (FrameType.RELEASE, {"client": "a", "epoch": 1}),
        (FrameType.WATCH, {}),
        (FrameType.ACQUIRE,
         {"key": "k", "client": "a", "ttl_ms": float("nan")}),
        (FrameType.ACQUIRE,
         {"key": "k", "client": "a", "ttl_ms": float("inf")}),
        (FrameType.ACQUIRE,
         {"key": "held", "client": "b", "wait_ms": float("nan")}),
        (FrameType.RENEW,
         {"key": "held", "client": "a", "epoch": 1, "ttl_ms": float("nan")}),
    ])
    def test_malformed_field_gets_error_and_keeps_session(self, ftype, fields):
        """A bad field is answered with ERROR; the sender's leases survive."""

        async def body(service, host, port):
            client = await ServiceClient.connect(host, port, client_id="a")
            lease = await client.acquire("held", ttl_ms=5000)
            reply = await client._call(ftype, fields)
            assert reply.fields["status"] == "error"
            assert reply.fields["rpc"] == 2
            # Not cached: the session holds only the acquire's reply.
            session = next(iter(service._sessions.values()))
            assert list(session.replied) == [1]
            # The session is alive and still holds its lease.
            assert service.keys["held"].state == "held"
            assert await client.renew(lease) is not None
            assert await client.release(lease)
            await client.close()

        _, run = run_scenario(body)
        assert [(record.key, record.reason) for record in run.history] == [
            ("held", "release"),
        ]

    def test_non_finite_ttl_leaves_other_keys_expiring(self):
        """A NaN deadline at the head of the expiry heap would stall it."""

        async def body(service, host, port):
            client = await ServiceClient.connect(host, port, client_id="a")
            await client._call(FrameType.ACQUIRE, {
                "key": "k", "client": "a", "ttl_ms": float("nan"),
            })
            assert await client.acquire("k2", ttl_ms=50) is not None
            await asyncio.sleep(0.4)
            state = service.keys["k2"].state
            await client.close()
            return state

        state, _ = run_scenario(body)
        assert state == "free"

    def test_negative_renew_ttl_is_a_cached_error(self):
        """RENEW with a non-positive TTL is refused like ACQUIRE's: the
        lease keeps its deadline instead of expiring at the next sweep."""

        async def body(service, host, port):
            client = await ServiceClient.connect(host, port, client_id="a")
            lease = await client.acquire("held", ttl_ms=5000)
            expires_at = service.keys["held"].expires_at
            reply = await client._call(FrameType.RENEW, {
                "key": "held", "client": "a", "epoch": lease.epoch, "ttl_ms": -5.0,
            })
            assert reply.fields["status"] == "error"
            assert reply.fields["message"] == "ttl_ms must be positive, got -5.0"
            session = next(iter(service._sessions.values()))
            assert list(session.replied) == [1, 2]
            await asyncio.sleep(0.2)
            assert service.keys["held"].state == "held"
            assert service.keys["held"].expires_at == expires_at
            assert await client.release(lease)
            await client.close()

        _, run = run_scenario(body)
        assert [(record.key, record.reason) for record in run.history] == [
            ("held", "release"),
        ]

    def test_bool_rpc_is_not_a_nonce(self):
        """JSON ``true`` is no rpc nonce: it must not replay rpc 1's reply."""

        async def body(service, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            decoder = FrameDecoder()

            async def call(rpc, key, client):
                writer.write(pack_frame(Frame(FrameType.ACQUIRE, 4, {
                    "rpc": rpc, "key": key, "client": client,
                })))
                while not (frames := decoder.feed(await reader.read(65536))):
                    pass
                return frames

            granted = await call(1, "a", "a")
            refused = await call(True, "b", "b")
            session = next(iter(service._sessions.values()))
            cached = list(session.replied)
            writer.close()
            return granted, refused, cached

        (granted, refused, cached), run = run_scenario(body)
        assert [frame.fields["status"] for frame in granted] == ["granted"]
        assert [dict(frame.fields) for frame in refused] == [{
            "rpc": -1, "status": "error",
            "message": "request 'acquire' missing int rpc nonce",
        }]
        assert cached == [1]
        assert [record.key for record in run.history] == ["a"]

    def test_valid_frame_then_garbage_in_one_write(self):
        """Frames before the bad bytes are answered, then the session fails over."""

        async def body(service, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(pack_frame(Frame(FrameType.ACQUIRE, 4, {
                "rpc": 1, "key": "k", "client": "a",
            })) + b"XX-not-a-frame")
            received = b""
            while data := await reader.read(65536):
                received += data
            writer.close()
            return FrameDecoder().feed(received)

        frames, run = run_scenario(body)
        assert [(frame.fields["rpc"], frame.fields["status"]) for frame in frames] == [
            (1, "granted"),
        ]
        assert [(record.key, record.reason) for record in run.history] == [
            ("k", "crash"),
        ]


class TestGrantLog:
    def test_long_lease_closed_after_many_other_grants(self):
        """Closing a lease finds its own record however many grants followed."""

        async def body(service, host, port):
            client = await ServiceClient.connect(host, port, client_id="a")
            long = await client.acquire("long", ttl_ms=60_000)
            leases = await asyncio.gather(*(
                client.acquire(f"k/{i}", ttl_ms=60_000) for i in range(1000)
            ))
            assert all(lease is not None for lease in leases)
            await asyncio.gather(*(
                client.release(lease) for lease in leases[::2]
            ))
            before_ns = service.history[-1].granted_ns
            assert await client.release(long)
            history = [
                (record.key, record.reason, record.ended_ns)
                for record in service.history
            ]
            await client.close()
            return before_ns, history

        (before_ns, history), _ = run_scenario(body)
        assert len(history) == 1001
        key, reason, ended_ns = history[0]
        assert (key, reason) == ("long", "release")
        assert ended_ns is not None and ended_ns >= before_ns
        for index, (key, reason, ended_ns) in enumerate(history[1:]):
            assert key == f"k/{index}"
            if index % 2 == 0:
                assert reason == "release" and ended_ns is not None
            else:
                assert reason == "open" and ended_ns is None


class TestWatch:
    def test_watch_sees_grant_and_release(self):
        async def body(service, host, port):
            observer = await ServiceClient.connect(host, port, client_id="o")
            holder = await ServiceClient.connect(host, port, client_id="h")
            events = []

            async def observe():
                async for event in observer.watch("k"):
                    events.append(event)
                    if len(events) >= 3:
                        return

            task = asyncio.create_task(observe())
            await asyncio.sleep(0.05)
            lease = await holder.acquire("k", ttl_ms=5000)
            await holder.release(lease)
            await asyncio.wait_for(task, 10.0)
            # Initial state (free), then the grant, then the release.
            assert events[0].event == "free"
            assert events[1].event == "granted"
            assert events[1].holder == "h" and events[1].epoch == 1
            assert events[2].event == "released"
            await observer.close()
            await holder.close()

        run_scenario(body)


class TestAtMostOnce:
    def test_duplicated_frames_never_double_grant(self):
        """Aggressive duplication cannot mint two grants for one epoch."""
        noisy = ChaosPlan(seed=3, duplicate=0.9)

        async def body(service, host, port):
            client = await ServiceClient.connect(
                host, port, client_id="a", plan=noisy
            )
            for round_index in range(5):
                lease = await client.acquire("k", ttl_ms=5000)
                assert lease is not None
                assert lease.epoch == round_index + 1
                assert await client.release(lease)
            await client.close()

        _, run = run_scenario(body, plan=noisy)
        assert [record.epoch for record in run.history] == [1, 2, 3, 4, 5]

    def test_reply_cache_evicts_oldest_and_recache_keeps_place(self):
        """The cache is bounded FIFO; re-caching an rpc replaces it in place."""
        session = _Session(service=None, sid=0)

        def reply(rpc, tag="ok"):
            return Frame(FrameType.SVC_REPLY, 0, {"rpc": rpc, "status": tag})

        for rpc in range(REPLY_CACHE_LIMIT):
            session.cache_reply(rpc, reply(rpc))
        session.cache_reply(0, reply(0, "again"))
        assert len(session.replied) == REPLY_CACHE_LIMIT
        assert next(iter(session.replied)) == 0
        assert session.replied[0].fields["status"] == "again"
        session.cache_reply(REPLY_CACHE_LIMIT, reply(REPLY_CACHE_LIMIT))
        assert list(session.replied) == list(range(1, REPLY_CACHE_LIMIT + 1))


class TestSimElection:
    def test_sim_mode_runs_real_election_for_contested_handoff(self):
        async def body(service, host, port):
            clients = [
                await ServiceClient.connect(host, port, client_id=f"c{i}")
                for i in range(4)
            ]
            lease = await clients[0].acquire("k", ttl_ms=5000)
            waiters = [
                asyncio.create_task(c.acquire("k", wait_ms=20_000))
                for c in clients[1:]
            ]
            await asyncio.sleep(0.1)
            await clients[0].release(lease)
            # One waiter wins epoch 2 promptly; the rest keep waiting
            # (the window stays well under the winner's TTL so no
            # expiry-driven second handoff can sneak in).
            done, pending = await asyncio.wait(
                waiters, timeout=2.0, return_when=asyncio.FIRST_COMPLETED
            )
            winners = [t.result() for t in done if t.result() is not None]
            assert len(winners) == 1 and winners[0].epoch == 2
            for task in pending:
                task.cancel()
            for c in clients:
                await c.close()

        _, run = run_scenario(body, election="sim", seed=9)
        # At least the two observed grants; closing sessions may hand
        # leftover server-side waiters further epochs (reason "crash"),
        # which the invariant sweep in run_scenario already vets.
        assert [record.epoch for record in run.history[:2]] == [1, 2]


class TestServiceConfig:
    def test_bad_config_rejected(self):
        with pytest.raises(ServiceError, match="ttl"):
            ElectionService(default_ttl_ms=0)
        with pytest.raises(ServiceError, match="grace"):
            ElectionService(grace_fraction=1.5)
        with pytest.raises(ServiceError, match="election"):
            ElectionService(election="coin")

    def test_load_bad_params_rejected(self):
        with pytest.raises(ServiceError, match="keys"):
            run_load(keys=0)
        with pytest.raises(ServiceError, match="sessions"):
            run_load(keys=1, sessions=1, crash_sessions=1)


class TestServeInvariants:
    def _history(self, *records):
        run = ServiceRun(n=0, k=0, history=list(records), fenced=[])
        return evaluate_service_run(run)

    def test_registry_wiring(self):
        names = {inv.name for inv in invariants_for("serve")}
        assert names == {
            "lease_unique_holder", "lease_epoch_monotonic", "lease_no_overlap",
        }
        assert SERVICE_SPEC.task == "serve"
        # The service spec must not leak into the runnable CLI protocols.
        from repro.check.invariants import PROTOCOLS

        assert SERVICE_SPEC.name not in PROTOCOLS
        assert all(inv.scope == "run" for inv in invariants_for("serve"))
        assert "lease_unique_holder" in INVARIANTS

    def test_clean_history_passes(self):
        violations = self._history(
            GrantRecord("k", 1, "a", 1, 100, ended_ns=200, reason="release"),
            GrantRecord("k", 2, "b", 2, 250, ended_ns=300, reason="expire"),
            GrantRecord("k", 3, "c", 3, 350),
        )
        assert violations == []

    def test_two_holders_one_epoch_flagged(self):
        violations = self._history(
            GrantRecord("k", 1, "a", 1, 100, ended_ns=200, reason="release"),
            GrantRecord("k", 1, "b", 2, 250),
        )
        assert [name for name, _ in violations] == [
            "lease_unique_holder", "lease_epoch_monotonic",
        ]

    def test_epoch_regression_flagged(self):
        violations = self._history(
            GrantRecord("k", 2, "a", 1, 100, ended_ns=200, reason="release"),
            GrantRecord("k", 1, "b", 2, 250),
        )
        assert ("lease_epoch_monotonic", violations[0][1]) == violations[0]

    def test_overlapping_grants_flagged(self):
        violations = self._history(
            GrantRecord("k", 1, "a", 1, 100, ended_ns=500, reason="release"),
            GrantRecord("k", 2, "b", 2, 300, ended_ns=600, reason="release"),
        )
        assert [name for name, _ in violations] == ["lease_no_overlap"]

    def test_open_grant_before_successor_flagged(self):
        violations = self._history(
            GrantRecord("k", 1, "a", 1, 100),
            GrantRecord("k", 2, "b", 2, 300),
        )
        assert [name for name, _ in violations] == ["lease_no_overlap"]


class TestLoadDriver:
    def test_small_load_run_clean(self):
        report = run_load(
            keys=12, contenders=2, rounds=1, sessions=4,
            hold_ms=0.5, crash_sessions=1, seed=2,
        )
        assert report.ok
        assert report.grants >= 12
        hist = report.snapshot["histograms"]["load.acquire_ms"]
        assert hist["count"] >= 12
        assert {"p50", "p90", "p99"} <= set(hist)
        assert report.snapshot["histograms"]["svc.crash_failover_ms"]["count"] > 0
        assert "invariants:    all hold" in report.describe()

    def test_small_load_run_under_chaos(self):
        plan = ChaosPlan(seed=4, drop=0.1, delay=0.2, delay_ms=(1.0, 8.0))
        report = run_load(
            keys=8, contenders=2, rounds=1, sessions=4,
            hold_ms=0.5, crash_sessions=1, seed=3, plan=plan,
        )
        assert report.ok
        assert report.grants >= 8
