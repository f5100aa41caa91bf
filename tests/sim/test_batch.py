"""The descriptor pool: structure invariants and mode independence.

A ``communicate`` call is one :class:`Broadcast` record plus packed int
descriptors, the only in-flight representation.  These tests pin:

* **Mode independence** — the pool's two remaining modes never change a
  run.  For every registered adversary (and the crash wrappers), a run
  watched by event sinks and a run without any are identical in
  everything observable: decisions, every metrics counter, and the
  per-processor breakdowns.  Adversaries that skip the endpoint indexes
  behave identically on an indexed pool.
* **Structure invariants** — the descriptor encoding round-trips, the
  undelivered bitmask tracks deliveries exactly, and the descs list obeys
  the swap-remove slot discipline.
* **Negotiation** — the pool is indexed exactly when the adversary reads
  the endpoint indexes, and the pid ceiling fails loudly.
"""

from __future__ import annotations

import pytest

from repro.adversary import (
    ADVERSARY_FACTORIES,
    CrashingAdversary,
    EagerAdversary,
    RandomAdversary,
    RandomCrashAdversary,
)
from repro.core import make_heterogeneous_poison_pill, make_leader_elect
from repro.obs.events import EventType, ListSink, MultiSink
from repro.obs.metrics import MetricsSink
from repro.sim import Deliver, Simulation, Step
from repro.sim.messages import (
    BROADCAST_SHIFT,
    MAX_PIDS,
    PID_MASK,
    REPLY_BIT,
    Broadcast,
    InFlightPool,
    MessageKind,
)
from repro.sim import runtime as runtime_module


def _election_sim(adversary, *, n=24, seed=11, **kwargs):
    return Simulation(
        n,
        {pid: make_leader_elect() for pid in range(n)},
        adversary,
        seed=seed,
        **kwargs,
    )


def _sifting_sim(adversary, *, n=32, k=8, seed=5, **kwargs):
    factory = make_heterogeneous_poison_pill()
    return Simulation(
        n,
        {pid: factory for pid in range(k)},
        adversary,
        seed=seed,
        **kwargs,
    )


def _observables(result):
    """Everything a caller can see in a run's result."""
    metrics = result.metrics
    return {
        "outcomes": result.outcomes,
        "undecided": result.undecided,
        "crashed": result.crashed,
        "start_times": result.start_times,
        "summary": metrics.summary(),
        "messages_by_kind": dict(metrics.messages_by_kind),
        "messages_sent_by": list(metrics.messages_sent_by),
        "comm_calls_by": list(metrics.comm_calls_by),
    }


def _indexed(adversary):
    """``adversary`` with the endpoint indexes forced on."""
    adversary.uses_endpoint_indexes = True
    return adversary


def _assert_mode_independent(build, make_adversary):
    """Plain == watched (sink and telemetry) == indexed-pool runs."""
    plain = build(make_adversary())
    expected = _observables(plain.run())
    watched = build(
        make_adversary(), sink=MultiSink(ListSink(), MetricsSink())
    )
    assert _observables(watched.run()) == expected
    indexed = build(_indexed(make_adversary()))
    assert indexed.in_flight.indexed
    assert _observables(indexed.run()) == expected
    return plain


class TestModeEquivalence:
    """Watching a run, or indexing its pool, never changes it."""

    @pytest.mark.parametrize("name", sorted(ADVERSARY_FACTORIES))
    def test_election_identical(self, name):
        plain = _assert_mode_independent(
            _election_sim, lambda: ADVERSARY_FACTORIES[name](seed=3)
        )
        flag = ADVERSARY_FACTORIES[name]().uses_endpoint_indexes
        assert plain.in_flight.indexed == flag

    @pytest.mark.parametrize("name", sorted(ADVERSARY_FACTORIES))
    def test_sifting_identical(self, name):
        _assert_mode_independent(
            _sifting_sim, lambda: ADVERSARY_FACTORIES[name](seed=9)
        )

    def test_matches_traced_run(self):
        """A recorded stream holds one msg.deliver per counted delivery."""
        plain = _election_sim(RandomAdversary(seed=2))
        sink = ListSink()
        traced = _election_sim(RandomAdversary(seed=2), sink=sink)
        result = traced.run()
        assert _observables(plain.run()) == _observables(result)
        assert len(sink.of_type(EventType.MSG_DELIVER)) == result.metrics.deliveries

    def test_crashing_wrapper_identical(self):
        schedule = [(40, 1), (90, 3), (150, 7)]
        plain = _assert_mode_independent(
            _election_sim,
            lambda: CrashingAdversary(RandomAdversary(seed=6), schedule),
        )
        assert plain.crashed  # the schedule actually fired

    def test_random_crash_wrapper_identical(self):
        plain = _assert_mode_independent(
            _election_sim,
            lambda: RandomCrashAdversary(
                RandomAdversary(seed=4), rate=0.02, seed=13
            ),
        )
        assert plain.crashed

    def test_delta_off_identical(self):
        """Full (non-delta) propagation is mode independent too."""
        _assert_mode_independent(
            lambda adversary, **kwargs: _sifting_sim(
                adversary, delta_propagation=False, **kwargs
            ),
            lambda: RandomAdversary(seed=1),
        )


class TestBroadcastRecord:
    def test_undelivered_excludes_sender(self):
        b = Broadcast(bid=0, sender=2, call_id=1, kind=MessageKind.PROPAGATE,
                      var="X", n=8)
        assert b.undelivered_count == 7
        assert b.undelivered == 0b11111011

    def test_mark_delivered_clears_one_bit(self):
        b = Broadcast(bid=0, sender=0, call_id=1, kind=MessageKind.PROPAGATE,
                      var="X", n=67)  # straddles the 64-bit word boundary
        for recipient in (1, 63, 64, 66):
            before = b.undelivered
            b.mark_delivered(recipient)
            assert b.undelivered == before & ~(1 << recipient)
        assert b.undelivered_count == 66 - 4  # n-1 minus four deliveries

    def test_descriptor_round_trip(self):
        b = Broadcast(bid=5, sender=3, call_id=9, kind=MessageKind.COLLECT,
                      var="X", n=16)
        request = b.request_descriptor(7)
        assert request & PID_MASK == 7
        assert not request & REPLY_BIT
        assert request >> BROADCAST_SHIFT == 5
        reply = b.reply_descriptor(7)
        assert reply == request | REPLY_BIT
        assert reply & PID_MASK == 7
        assert reply >> BROADCAST_SHIFT == 5


class TestBatchPool:
    def _open(self, pool, sender=0, n=5, kind=MessageKind.PROPAGATE):
        return pool.open_broadcast(
            sender=sender, call_id=1, kind=kind, var="X", n=n
        )

    def test_open_broadcast_orders_recipients_ascending(self):
        pool = InFlightPool(indexed=False)
        b = self._open(pool, sender=2, n=5)
        # Every pid but the sender, ascending.
        pids = [pool.descriptors[i] & PID_MASK for i in range(len(pool))]
        assert pids == [0, 1, 3, 4]
        assert all(not d & REPLY_BIT for d in pool.descriptors)
        assert pool.broadcast_of(pool.descriptors[0]) is b

    def test_swap_remove_and_staleness(self):
        pool = InFlightPool(indexed=False)
        self._open(pool, sender=0, n=5)
        descs = list(pool.descriptors)
        pool.remove(0, descs[0])
        # Swap-remove: the last element moved into slot 0.
        assert pool.descriptors[0] == descs[-1]
        # A stale (slot, desc) claim fails loudly instead of corrupting.
        with pytest.raises(KeyError):
            pool.remove(0, descs[0])

    def test_add_reply_sets_reply_bit(self):
        pool = InFlightPool(indexed=False)
        self._open(pool, sender=0, n=3)
        request = pool.descriptors[0]
        pool.remove(0, request)
        pool.add_reply(request)
        reply = pool.descriptors[len(pool) - 1]
        assert reply == request | REPLY_BIT

    def test_positional_api(self):
        pool = InFlightPool(indexed=False)
        self._open(pool, sender=1, n=4)
        action = pool.action_at(0)
        assert isinstance(action, Deliver)
        assert action.slot == 0
        assert pool.last_action() == pool.action_at(len(pool) - 1)
        # Request legs run sender -> recipient; replies the reverse.
        assert pool.endpoints_at(0) == (1, 0)
        request = pool.descriptors[0]
        pool.remove(0, request)
        pool.add_reply(request)
        assert pool.endpoints_at(len(pool) - 1) == (0, 1)
        assert pool.kind_of(request) is MessageKind.PROPAGATE
        assert pool.kind_of(request | REPLY_BIT) is MessageKind.ACK

    def test_object_api_refuses(self):
        # The materialized Message plane is gone: no object API remains.
        pool = InFlightPool()
        for name in ("add", "any_message", "snapshot", "messages"):
            assert not hasattr(pool, name)
        with pytest.raises(TypeError):
            iter(pool)

    def test_len_and_bool_span_both_planes(self):
        pool = InFlightPool(indexed=False)
        assert len(pool) == 0 and not pool
        self._open(pool, sender=0, n=3)
        assert len(pool) == 2 and pool


class TestNegotiation:
    """The pool's index mode follows the adversary's declared flag."""

    def test_sink_keeps_descriptor_plane(self):
        sim = _election_sim(EagerAdversary(), sink=ListSink())
        assert not sim.in_flight.indexed
        sim.execute(Step(0))
        assert len(sim.in_flight.descriptors) == 23

    def test_index_adversary_gets_indexed_pool(self):
        assert _election_sim(ADVERSARY_FACTORIES["bubble"]()).in_flight.indexed
        assert not _election_sim(EagerAdversary()).in_flight.indexed

    def test_pid_ceiling(self, monkeypatch):
        # The real ceiling is 2**20 processors; shrink it so the guard is
        # testable without allocating a million Process objects.
        monkeypatch.setattr(runtime_module, "MAX_PIDS", 8)
        _election_sim(EagerAdversary(), n=8)
        with pytest.raises(ValueError, match="ceiling"):
            _election_sim(EagerAdversary(), n=16)
        assert MAX_PIDS == 1 << 20  # the real constant is untouched

    def test_batch_delivery_uses_descriptors_only(self):
        sim = _election_sim(EagerAdversary(), n=6)
        sim.execute(Step(0))
        assert len(sim.in_flight) == 5
        action = sim.in_flight.last_action()
        assert isinstance(action, Deliver)
        sim.execute(action)
        # The delivery cleared the recipient's bit and queued the ACK leg.
        broadcast = sim.in_flight.broadcast_of(sim.in_flight.descriptors[-1])
        assert broadcast.undelivered_count == 4
        assert sim.in_flight.descriptors[-1] & REPLY_BIT
