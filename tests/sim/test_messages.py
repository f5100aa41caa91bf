"""Unit and property tests for the in-flight descriptor pool."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.messages import (
    PID_MASK,
    REPLY_BIT,
    Deliver,
    InFlightPool,
    MessageKind,
    deliver_at,
)


def _broadcast(pool, sender=0, n=3, call_id=1, kind=MessageKind.PROPAGATE):
    return pool.open_broadcast(
        sender=sender, call_id=call_id, kind=kind, var="v", n=n
    )


def _remove(pool, desc):
    pool.remove(pool.descriptors.index(desc), desc)


class TestDeliverAt:
    def test_builds_an_equal_deliver(self):
        action = deliver_at((3, 77))
        assert type(action) is Deliver
        assert action == Deliver(3, 77)
        assert (action.slot, action.desc) == (3, 77)

    def test_pool_helpers_build_delivers(self):
        pool = InFlightPool()
        _broadcast(pool, sender=0, n=4)
        descs = pool.descriptors
        expected = [Deliver(slot, desc) for slot, desc in enumerate(descs)]
        built = [
            pool.action_at(0),
            pool.last_action(),
            pool.action_for(descs[1]),
            *pool.actions_in_send_order(),
        ]
        assert built == [expected[0], expected[-1], expected[1], *expected]
        assert all(type(action) is Deliver for action in built)


class TestMessage:
    def test_request_classification(self):
        # A request leg's descriptor has REPLY_BIT clear and decodes to
        # its broadcast's own kind, sender -> recipient.
        pool = InFlightPool()
        for kind in (MessageKind.PROPAGATE, MessageKind.COLLECT):
            b = _broadcast(pool, sender=0, n=2, kind=kind)
            desc = b.request_descriptor(1)
            assert not desc & REPLY_BIT
            assert pool.kind_of(desc) is kind
            assert pool.endpoints_of(desc) == (0, 1)

    def test_reply_classification(self):
        # A reply leg's descriptor has REPLY_BIT set and decodes to the
        # reply kind, replier -> original sender.
        pool = InFlightPool()
        for kind, reply in (
            (MessageKind.PROPAGATE, MessageKind.ACK),
            (MessageKind.COLLECT, MessageKind.COLLECT_REPLY),
        ):
            b = _broadcast(pool, sender=0, n=2, kind=kind)
            _remove(pool, b.request_descriptor(1))
            pool.add_reply(b.request_descriptor(1))
            desc = b.reply_descriptor(1)
            assert desc & REPLY_BIT and desc in pool.descriptors
            assert pool.kind_of(desc) is reply
            assert pool.endpoints_of(desc) == (1, 0)

    def test_uids_unique(self):
        # A leg's identity is its descriptor, unique over the run: the
        # reply to a delivered request gets a descriptor of its own.
        pool = InFlightPool()
        _broadcast(pool, sender=0, n=4)
        request = pool.descriptors[0]
        _remove(pool, request)
        pool.add_reply(request)
        descs = list(pool.descriptors) + [request]
        assert len(set(descs)) == len(descs)
        assert {pool.kind_of(desc) for desc in descs} == {
            MessageKind.PROPAGATE, MessageKind.ACK,
        }

    def test_identity_semantics(self):
        # Two legs with equal fields are still two legs: identity is the
        # descriptor, not the (sender, recipient, kind, call id, var).
        pool = InFlightPool()
        first = _broadcast(pool, sender=0, n=2).request_descriptor(1)
        second = _broadcast(pool, sender=0, n=2).request_descriptor(1)
        assert first != second
        assert pool.endpoints_of(first) == pool.endpoints_of(second)
        assert pool.kind_of(first) is pool.kind_of(second)
        _remove(pool, first)
        assert pool.descriptors == [second]


class TestUidDeterminism:
    """Runs are reproducible back to back within one process.

    Regression tests for the old module-global message counter: message
    identities (and anything that reads them) used to depend on how many
    simulations had already run in the process.
    """

    @staticmethod
    def _delivered_descs(seed=3):
        from repro.adversary.fifo import EagerAdversary
        from repro.core import make_leader_elect
        from repro.sim.runtime import Deliver, Simulation

        descs = []

        class RecordingAdversary(EagerAdversary):
            def actions(self, sim):
                for action in super().actions(sim):
                    if isinstance(action, Deliver):
                        descs.append(action.desc)
                    yield action

        sim = Simulation(
            n=5,
            participants={pid: make_leader_elect() for pid in range(5)},
            adversary=RecordingAdversary(),
            seed=seed,
        )
        sim.run()
        return descs

    def test_identical_runs_see_identical_uids(self):
        first = self._delivered_descs()
        second = self._delivered_descs()
        assert first == second
        assert first and len(set(first)) == len(first)

    def test_back_to_back_traces_byte_identical(self, tmp_path):
        from repro.obs.replay import record_trace

        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        record_trace(str(first), task="elect", n=8,
                     adversary="sequential", seed=7)
        record_trace(str(second), task="elect", n=8,
                     adversary="sequential", seed=7)
        assert first.read_bytes() == second.read_bytes()


class TestInFlightPool:
    def test_empty_pool(self):
        pool = InFlightPool()
        assert len(pool) == 0
        assert not pool
        assert pool.last_action() is None
        assert pool.actions_in_send_order() == []

    def test_add_and_remove(self):
        pool = InFlightPool()
        _broadcast(pool, sender=0, n=2)
        assert len(pool) == 1
        action = pool.last_action()
        assert pool.endpoints_at(action.slot) == (0, 1)
        pool.remove(action.slot, action.desc)
        assert len(pool) == 0

    def test_remove_missing_raises(self):
        pool = InFlightPool()
        with pytest.raises(KeyError):
            pool.remove(0, 5)

    def test_double_remove_raises(self):
        pool = InFlightPool()
        _broadcast(pool, sender=0, n=2)
        desc = pool.descriptors[0]
        pool.remove(0, desc)
        with pytest.raises(KeyError):
            pool.remove(0, desc)

    def test_swap_remove_keeps_others(self):
        pool = InFlightPool()
        _broadcast(pool, sender=0, n=6)
        descs = list(pool.descriptors)
        _remove(pool, descs[1])
        remaining = set(pool.descriptors)
        assert remaining == set(descs) - {descs[1]}
        # All remaining legs are still removable by their tracked slots.
        for desc in descs[::-1]:
            if desc in remaining:
                action = pool.action_for(desc)
                pool.remove(action.slot, action.desc)
        assert len(pool) == 0

    def test_endpoint_indexes(self):
        pool = InFlightPool()
        b = _broadcast(pool, sender=1, n=4)       # 1->0, 1->2, 1->3
        a = b.request_descriptor(2)
        c = b.request_descriptor(3)
        _remove(pool, b.request_descriptor(0))
        pool.add_reply(b.request_descriptor(0))  # 0->1
        reply = b.reply_descriptor(0)
        assert dict(pool.sent_by(1)) == {a: 2, c: 3}
        assert dict(pool.addressed_to(1)) == {reply: 0}
        assert pool.by_sender[1] == {a: 2, c: 3}
        assert pool.by_recipient[1] == {reply: 0}
        assert pool.slots == {
            desc: slot for slot, desc in enumerate(pool.descriptors)
        }
        _remove(pool, a)
        assert dict(pool.sent_by(1)) == {c: 3}

    def test_indexes_empty_for_unknown_pid(self):
        pool = InFlightPool()
        assert len(pool.sent_by(99)) == 0
        assert len(pool.addressed_to(99)) == 0

    def test_iteration(self):
        pool = InFlightPool()
        b = _broadcast(pool, sender=0, n=4)
        request = b.request_descriptor(1)
        _remove(pool, request)
        pool.add_reply(request)
        order = [action.desc for action in pool.actions_in_send_order()]
        assert order == [
            b.request_descriptor(2),
            b.request_descriptor(3),
            b.reply_descriptor(1),
        ]
        for action in pool.actions_in_send_order():
            assert pool.descriptors[action.slot] == action.desc


class TestUnindexedPool:
    """The indexed=False fast path: no endpoint bookkeeping, loud failure."""

    def test_add_remove_work_without_indexes(self):
        pool = InFlightPool(indexed=False)
        assert not pool.indexed
        _broadcast(pool, sender=0, n=6)
        descs = list(pool.descriptors)
        assert pool.last_action().desc == descs[-1]
        _remove(pool, descs[1])
        assert set(pool.descriptors) == set(descs) - {descs[1]}
        while pool:
            action = pool.last_action()
            pool.remove(action.slot, action.desc)
        assert len(pool) == 0

    def test_index_api_raises(self):
        # Lazily rebuilding would scramble send order (swap-remove
        # reorders the list) and silently break determinism, so the API
        # refuses instead.
        pool = InFlightPool(indexed=False)
        _broadcast(pool, sender=1, n=3)
        with pytest.raises(RuntimeError, match="uses_endpoint_indexes"):
            pool.sent_by(1)
        with pytest.raises(RuntimeError, match="indexed=False"):
            pool.addressed_to(2)
        with pytest.raises(RuntimeError):
            pool.action_for(pool.descriptors[0])
        with pytest.raises(RuntimeError):
            pool.actions_in_send_order()

    @pytest.mark.parametrize("view", ["slots", "by_sender", "by_recipient"])
    def test_index_views_raise(self, view):
        pool = InFlightPool(indexed=False)
        _broadcast(pool, sender=1, n=3)
        with pytest.raises(RuntimeError, match="indexed=False"):
            getattr(pool, view)

    def test_indexed_default_unchanged(self):
        pool = InFlightPool()
        assert pool.indexed
        b = _broadcast(pool, sender=1, n=3)
        assert dict(pool.sent_by(1)) == {
            b.request_descriptor(0): 0, b.request_descriptor(2): 2,
        }

    def test_declaring_adversaries_match_their_usage(self):
        # Every adversary that declares uses_endpoint_indexes=False must be
        # one of the audited scan-only strategies; the targeted ones keep
        # the default.
        from repro.adversary import ADVERSARY_FACTORIES

        flags = {
            name: factory().uses_endpoint_indexes
            for name, factory in ADVERSARY_FACTORIES.items()
        }
        assert flags == {
            "random": False,
            "eager": False,
            "round_robin": False,
            "oblivious": False,
            "sequential": False,
            "quorum_split": False,
            "coin_aware": True,
            "bubble": True,
        }

    def test_crash_wrappers_inherit_flag(self):
        from repro.adversary import (
            CrashingAdversary,
            RandomAdversary,
            RandomCrashAdversary,
        )
        from repro.adversary.bubble import BubbleAdversary

        inner = RandomAdversary(seed=0)
        assert not CrashingAdversary(inner, []).uses_endpoint_indexes
        assert not RandomCrashAdversary(inner).uses_endpoint_indexes
        assert CrashingAdversary(BubbleAdversary(), []).uses_endpoint_indexes


class TestViews:
    """What a leg carries, read from its broadcast's columns, and
    resolving a recorded delivery back to its in-flight leg."""

    def test_propagate_view_carries_given_payload(self):
        pool = InFlightPool()
        full = {"k": (1, True, "version")}
        b = pool.open_broadcast(
            sender=2, call_id=7, kind=MessageKind.PROPAGATE, var="X", n=4,
            entries=full,
        )
        desc = b.request_descriptor(0)
        broadcast = pool.broadcast_of(desc)
        assert (broadcast.sender, broadcast.call_id, broadcast.var) == (2, 7, "X")
        assert pool.endpoints_of(desc) == (2, 0)
        assert pool.kind_of(desc) is MessageKind.PROPAGATE
        assert broadcast.entries is full and broadcast.views is None

    def test_collect_reply_view_carries_responder_view(self):
        pool = InFlightPool()
        b = pool.open_broadcast(
            sender=0, call_id=3, kind=MessageKind.COLLECT, var="X", n=3
        )
        b.views[2] = {"k": 1}
        desc = b.reply_descriptor(2)
        broadcast = pool.broadcast_of(desc)
        assert pool.endpoints_of(desc) == (2, 0)
        assert pool.kind_of(desc) is MessageKind.COLLECT_REPLY
        assert broadcast.views[desc & PID_MASK] == {"k": 1}
        assert broadcast.entries is None

    def test_match_resolves_recorded_delivery(self):
        pool = InFlightPool()
        b = _broadcast(pool, sender=1, n=3, call_id=9)
        action = pool.match(1, 2, "propagate", 9)
        assert action == pool.action_for(b.request_descriptor(2))
        assert pool.match(1, 2, "ack", 9) is None
        assert pool.match(1, 2, "propagate", 8) is None


def test_comm_call_keys_name_the_merged_entries(monkeypatch):
    """With delta propagation off, each PROPAGATE delivery merges exactly
    the keys its ``comm.call`` names: ``keys``, or every key the sender
    holds when ``keys`` is null.  A trace's readers rely on this in place
    of the payload, which no event carries."""
    from repro.adversary import EagerAdversary
    from repro.obs.events import EventType, ListSink
    from repro.sim import Collect, Propagate, RegisterFile, Simulation

    merged = []
    merge = RegisterFile.merge

    def spy(self, var, incoming):
        merged.append(set(incoming))
        merge(self, var, incoming)

    monkeypatch.setattr(RegisterFile, "merge", spy)

    def algorithm(api):
        api.put("X", api.pid, 1)
        api.put("X", api.pid + 10, 2)
        yield Propagate("X", (api.pid,))
        yield Propagate("X", (api.pid + 10, api.pid))
        yield Propagate("X")
        yield Collect("X")
        return True

    sink = ListSink()
    Simulation(
        4, {0: algorithm, 1: algorithm}, EagerAdversary(), sink=sink,
        delta_propagation=False,
    ).run()
    held = [set() for _ in range(4)]  # the keys each processor holds
    sent = {}
    expected = []
    for event in sink.events:
        fields = event.fields
        if event.etype == EventType.REG_PUT:
            held[event.pid].add(fields["key"])
        elif event.etype == EventType.COMM_CALL and fields["kind"] == "propagate":
            keys = fields["keys"]
            sent[fields["call"]] = set(held[event.pid] if keys is None else keys)
        elif event.etype == EventType.MSG_DELIVER and fields["kind"] == "propagate":
            expected.append(sent[fields["call"]])
            held[event.pid] |= sent[fields["call"]]
    assert None in {
        event.fields["keys"] for event in sink.of_type(EventType.COMM_CALL)
    }
    assert len(expected) == 18
    assert merged == expected


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["open", "reply", "remove"]),
            st.integers(min_value=0, max_value=4),
        ),
        max_size=60,
    )
)
def test_batch_pool_matches_reference_model(operations):
    """The descs list obeys the swap-remove slot discipline: after any
    interleaving of broadcasts, replies, and removals, every slot holds
    exactly what a naive list model predicts.

    This is the invariant position-choosing adversaries lean on: the
    pool's order is a pure function of the sends and deliveries.
    """
    pool = InFlightPool(indexed=False)
    model: list[int] = []
    for op, arg in operations:
        if op == "open":
            broadcast = pool.open_broadcast(
                sender=arg, call_id=1, kind=MessageKind.PROPAGATE, var="v", n=5
            )
            model.extend(
                broadcast.request_descriptor(pid) for pid in range(5) if pid != arg
            )
        elif op == "reply" and model:
            request = model[arg % len(model)] & ~REPLY_BIT
            pool.add_reply(request)
            model.append(request | REPLY_BIT)
        elif op == "remove" and model:
            slot = arg % len(model)
            pool.remove(slot, model[slot])
            model[slot] = model[-1]
            model.pop()
        assert len(pool) == len(model)
        assert list(pool.descriptors) == model
        for slot, desc in enumerate(model):
            action = pool.action_at(slot)
            assert (action.slot, action.desc) == (slot, desc)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["open", "reply", "remove"]),
            st.integers(min_value=0, max_value=4),
        ),
        max_size=60,
    )
)
def test_pool_matches_reference_model(operations):
    """Random broadcast/reply/remove sequences: the pool, its slot map and
    its endpoint indexes must always agree with a naive send-ordered
    reference model."""
    pool = InFlightPool()
    model: list[tuple[int, int, int]] = []  # (desc, sender, recipient)
    replied: set[int] = set()
    for op, arg in operations:
        if op == "open":
            broadcast = _broadcast(pool, sender=arg, n=5)
            model.extend(
                (broadcast.request_descriptor(pid), arg, pid)
                for pid in range(5) if pid != arg
            )
        elif op == "reply":
            requests = [
                (desc, sender, recipient) for desc, sender, recipient in model
                if not desc & REPLY_BIT and desc not in replied
            ]
            if requests:
                desc, sender, recipient = requests[arg % len(requests)]
                _remove(pool, desc)
                model.remove((desc, sender, recipient))
                pool.add_reply(desc)
                replied.add(desc)
                model.append((desc | REPLY_BIT, recipient, sender))
        elif model:
            victim = model.pop(len(model) // 2)
            _remove(pool, victim[0])
        assert len(pool) == len(model)
        assert [a.desc for a in pool.actions_in_send_order()] == [
            desc for desc, _, _ in model
        ]
        for desc, sender, recipient in model:
            assert pool.endpoints_of(desc) == (sender, recipient)
            assert pool.descriptors[pool.action_for(desc).slot] == desc
        for pid in range(5):
            assert list(pool.sent_by(pid)) == [
                (desc, recipient) for desc, sender, recipient in model
                if sender == pid
            ]
            assert list(pool.addressed_to(pid)) == [
                (desc, sender) for desc, sender, recipient in model
                if recipient == pid
            ]
