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
