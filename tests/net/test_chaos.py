"""Chaos-plan tests: validation, determinism, and serialization.

The whole point of seeded fault injection is that a failing chaotic run
can be re-run: the fate of frame ``i`` on link ``src -> dst`` must be a
pure function of ``(plan, src, dst, i)``.  These tests pin that down,
plus the plan-file round trip the CLI and CI smoke jobs rely on, and
the one rule every chaos sender applies to a delayed, duplicated frame.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.chaos import (
    CLEAN_FATE,
    CLEAN_PLAN,
    ChaosPlan,
    Partition,
    fates_for,
    load_plan,
)
from repro.net.client import ServiceClient
from repro.net.node import NodeRuntime
from repro.net.service import SERVICE_PID, ElectionService, _Session
from repro.net.wire import Frame, FrameType, pack_frame
from repro.obs.jsonl import iter_events

plans = st.builds(
    ChaosPlan,
    seed=st.integers(min_value=0, max_value=2**31),
    drop=st.floats(min_value=0.0, max_value=0.9),
    delay=st.floats(min_value=0.0, max_value=1.0),
    duplicate=st.floats(min_value=0.0, max_value=1.0),
)


class TestValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError, match="drop rate"):
            ChaosPlan(drop=1.5)
        with pytest.raises(ValueError, match="delay rate"):
            ChaosPlan(delay=-0.1)

    def test_blanket_total_drop_rejected(self):
        with pytest.raises(ValueError, match="never terminate"):
            ChaosPlan(drop=1.0)

    def test_delay_range_ordering(self):
        with pytest.raises(ValueError, match="delay_ms"):
            ChaosPlan(delay_ms=(10.0, 5.0))

    def test_clean_plan_is_inactive(self):
        assert not CLEAN_PLAN.active
        assert ChaosPlan(drop=0.1).active
        assert ChaosPlan(partitions=(Partition((0,), (1,)),)).active


class TestDeterminism:
    @given(plans, st.integers(0, 7), st.integers(0, 7))
    @settings(max_examples=50)
    def test_fates_are_pure_functions_of_the_seed(self, plan, src, dst):
        assert fates_for(plan, src, dst, 50) == fates_for(plan, src, dst, 50)

    def test_links_draw_independent_streams(self):
        plan = ChaosPlan(seed=7, drop=0.5)
        assert fates_for(plan, 0, 1, 64) != fates_for(plan, 1, 0, 64)

    def test_clean_plan_touches_nothing(self):
        assert fates_for(CLEAN_PLAN, 0, 1, 32) == [CLEAN_FATE] * 32

    def test_drop_rate_is_roughly_honored(self):
        fates = fates_for(ChaosPlan(seed=1, drop=0.3), 0, 1, 2000)
        dropped = sum(1 for fate in fates if fate.drop)
        assert 0.2 < dropped / len(fates) < 0.4

    def test_delay_draws_stay_in_range(self):
        plan = ChaosPlan(seed=2, delay=1.0, delay_ms=(5.0, 10.0))
        for fate in fates_for(plan, 0, 1, 200):
            assert 0.005 <= fate.delay_s <= 0.010


class TestPartitions:
    def test_partition_drops_matching_direction_only(self):
        partition = Partition(src=(0, 1), dst=(2,))
        assert partition.blocks(0, 2, elapsed_ms=0.0)
        assert partition.blocks(1, 2, elapsed_ms=0.0)
        assert not partition.blocks(2, 0, elapsed_ms=0.0)

    def test_partition_heals(self):
        partition = Partition(src=(0,), dst=(1,), heal_ms=100.0)
        assert partition.blocks(0, 1, elapsed_ms=99.9)
        assert not partition.blocks(0, 1, elapsed_ms=100.0)

    def test_partitioned_link_drops_every_frame_until_heal(self):
        plan = ChaosPlan(partitions=(Partition((0,), (1,), heal_ms=50.0),))
        assert all(fate.drop for fate in fates_for(plan, 0, 1, 16, elapsed_ms=0.0))
        assert all(
            fate.clean for fate in fates_for(plan, 0, 1, 16, elapsed_ms=60.0)
        )

    def test_unrelated_link_unaffected(self):
        plan = ChaosPlan(partitions=(Partition((0,), (1,)),))
        assert all(fate.clean for fate in fates_for(plan, 2, 3, 16))


class TestSerialization:
    @given(plans)
    @settings(max_examples=50)
    def test_obj_round_trip(self, plan):
        assert ChaosPlan.from_obj(plan.to_obj()) == plan

    def test_round_trip_with_partitions(self):
        plan = ChaosPlan(
            seed=3,
            drop=0.25,
            partitions=(
                Partition((0, 1), (2, 3), heal_ms=250.0),
                Partition((4,), (0,)),
            ),
        )
        assert ChaosPlan.from_obj(json.loads(plan.to_json())) == plan

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos plan keys"):
            ChaosPlan.from_obj({"seed": 0, "jitter": 1.0})

    def test_load_plan_file(self, tmp_path):
        plan = ChaosPlan(seed=9, drop=0.1, delay=0.2, delay_ms=(2.0, 8.0))
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json(), encoding="utf-8")
        assert load_plan(str(path)) == plan

    def test_load_plan_rejects_non_object(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ValueError, match="must be a JSON object"):
            load_plan(str(path))


class _Writer:
    """A stream writer / transport stand-in that records each write."""

    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(data)

    def is_closing(self):
        return False


class TestDelayedDuplicates:
    """Every sender writes a delayed frame's duplicates with the frame,
    after its delay, never ahead of it and never dropped."""

    PLAN = ChaosPlan(seed=0, delay=1.0, delay_ms=(1.0, 2.0), duplicate=1.0)
    FRAME = Frame(FrameType.ACK, 0, {"call": 1, "rpc": 1})

    def test_node(self):
        writer = _Writer()

        async def body():
            node = NodeRuntime(pid=0, n=2, seed=0, driver_port=1, plan=self.PLAN)
            await node.send_through_chaos(writer, self.FRAME, self.PLAN.link(0, 1))
            assert writer.writes == []
            await asyncio.gather(*node._background)
            return node.stats

        stats = asyncio.run(body())
        assert writer.writes == [pack_frame(self.FRAME)] * 2
        assert (stats.frames_sent, stats.frames_delayed, stats.frames_duplicated) == (2, 1, 1)

    def test_service_client(self):
        writer = _Writer()

        async def body():
            client = ServiceClient(asyncio.StreamReader(), writer, "a", plan=self.PLAN)
            client._send(self.FRAME)
            assert writer.writes == []
            await asyncio.gather(*client._background)
            client._read_task.cancel()

        asyncio.run(body())
        assert writer.writes == [pack_frame(self.FRAME)] * 2

    def test_service(self):
        transport = _Writer()

        async def body():
            service = ElectionService(plan=self.PLAN)
            session = _Session(service, sid=0)
            session.transport = transport
            session.link = self.PLAN.link(SERVICE_PID, 0)
            service._send(session, self.FRAME)
            assert transport.writes == []
            await asyncio.gather(*service._background)
            return service.metrics.snapshot()

        snapshot = asyncio.run(body())
        assert transport.writes == [pack_frame(self.FRAME)] * 2
        assert snapshot["counters"]["svc.frames_sent"] == 2


#: Every frame on every link drops (a partition that never heals).
DROP_PLAN = ChaosPlan(seed=0, partitions=(
    Partition(src=(0, SERVICE_PID), dst=(0, 1, SERVICE_PID)),
))


class _ClosedWriter(_Writer):
    def is_closing(self):
        return True


class TestSenderFates:
    """Each sender's share of the one fate rule: a dropped frame writes
    nothing and runs only that sender's drop action, a clean frame is
    written once, and a closed sink decides whether a fate is drawn."""

    FRAME = TestDelayedDuplicates.FRAME

    def _node(self, plan, writer, tmp_path):
        trace = tmp_path / "node.jsonl"
        link = plan.link(0, 1)

        async def body():
            node = NodeRuntime(pid=0, n=2, seed=0, driver_port=1, plan=plan,
                               trace_path=str(trace))
            await node.send_through_chaos(writer, self.FRAME, link)
            assert node._background == set()
            await node._shutdown()
            return node.stats

        stats = asyncio.run(body())
        events = [event.etype for event in iter_events(str(trace))]
        return stats, events, link

    def _client(self, plan, writer, closed=False):
        async def body():
            client = ServiceClient(asyncio.StreamReader(), writer, "a", plan=plan)
            client._closed = closed
            client._send(self.FRAME)
            assert client._background == set()
            client._read_task.cancel()
            return client._link

        return asyncio.run(body())

    def _service(self, plan, transport, closed=False):
        async def body():
            service = ElectionService(plan=plan)
            session = _Session(service, sid=7)
            session.transport = transport
            session.link = plan.link(SERVICE_PID, 0)
            session.closed = closed
            service._send(session, self.FRAME)
            assert service._background == set()
            return service, session.link

        return asyncio.run(body())

    def test_node_drop(self, tmp_path):
        writer = _Writer()
        stats, events, _ = self._node(DROP_PLAN, writer, tmp_path)
        assert writer.writes == []
        assert (stats.frames_sent, stats.frames_dropped, stats.frames_delayed,
                stats.frames_duplicated) == (0, 1, 0, 0)
        assert stats.frames_by_kind[FrameType.ACK] == 1
        assert events.count("net.drop") == 1 and "msg.send" not in events

    def test_service_drop(self):
        transport = _Writer()
        service, _ = self._service(DROP_PLAN, transport)
        assert transport.writes == []
        assert list(service.dlq) == [(7, self.FRAME)]
        counters = service.metrics.snapshot()["counters"]
        assert counters["svc.frames_dropped"] == 1
        assert "svc.frames_sent" not in counters and "svc.frames_delayed" not in counters

    def test_client_drop(self):
        writer = _Writer()
        link = self._client(DROP_PLAN, writer)
        assert writer.writes == [] and link.frames_seen == 1

    def test_node_clean(self, tmp_path):
        writer = _Writer()
        stats, events, _ = self._node(CLEAN_PLAN, writer, tmp_path)
        assert writer.writes == [pack_frame(self.FRAME)]
        assert (stats.frames_sent, stats.frames_dropped, stats.frames_delayed,
                stats.frames_duplicated) == (1, 0, 0, 0)
        assert events.count("msg.send") == 1

    def test_service_clean(self):
        transport = _Writer()
        service, _ = self._service(CLEAN_PLAN, transport)
        assert transport.writes == [pack_frame(self.FRAME)]
        assert list(service.dlq) == []
        assert service.metrics.snapshot()["counters"] == {"svc.frames_sent": 1}

    def test_client_clean(self):
        writer = _Writer()
        self._client(CLEAN_PLAN, writer)
        assert writer.writes == [pack_frame(self.FRAME)]

    def test_node_draws_a_fate_for_a_closed_writer(self, tmp_path):
        writer = _ClosedWriter()
        stats, _, link = self._node(CLEAN_PLAN, writer, tmp_path)
        assert writer.writes == [] and stats.frames_sent == 0
        assert link.frames_seen == 1

    def test_service_draws_no_fate_for_a_closed_session(self):
        transport = _Writer()
        service, link = self._service(DROP_PLAN, transport, closed=True)
        assert transport.writes == [] and list(service.dlq) == []
        assert link.frames_seen == 0

    def test_client_draws_a_fate_when_closed(self):
        writer = _Writer()
        link = self._client(CLEAN_PLAN, writer, closed=True)
        assert writer.writes == [] and link.frames_seen == 1
