"""Edge cases: error hierarchy, stale replies, re-running, degenerate sizes."""

from __future__ import annotations

import pytest

from repro.adversary import EagerAdversary
from repro.adversary.base import Adversary, fallback_action
from repro.sim import (
    AdversaryProtocolError,
    Collect,
    CrashBudgetError,
    ProcessProtocolError,
    Propagate,
    QuiescenceError,
    Simulation,
    SimulationError,
    SimulationLimitError,
    Step,
)
from repro.sim.messages import MessageKind


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            SimulationLimitError,
            QuiescenceError,
            AdversaryProtocolError,
            CrashBudgetError,
            ProcessProtocolError,
        ],
    )
    def test_all_derive_from_simulation_error(self, exc):
        assert issubclass(exc, SimulationError)
        assert issubclass(exc, Exception)


class TestStaleReplies:
    def test_stale_ack_is_discarded(self):
        """An ACK arriving for an already-resolved call must not corrupt
        the next outstanding call's quorum count."""

        def algorithm(api):
            api.put("X", api.pid, 1)
            yield Propagate("X", (api.pid,))
            views = yield Collect("X")
            return len(views)

        class Manual(Adversary):
            """Never asked; its default flag keeps the pool indexed."""

            def choose(self, sim):
                return fallback_action(sim)

        sim = Simulation(5, {0: algorithm}, Manual(), seed=0)
        # Drive manually: start 0, deliver its propagates (acks flow back),
        # resolve, then deliver leftover acks against the collect call.
        sim.execute(Step(0))
        guard = 0
        while sim.undecided and guard < 10_000:
            guard += 1
            # Always deliver the OLDEST message first to maximize staleness.
            if sim.in_flight:
                sim.execute(sim.in_flight.actions_in_send_order()[0])
            elif sim.steppable:
                sim.execute(Step(min(sim.steppable)))
        result = sim._result()
        assert result.outcomes[0] >= 5 // 2 + 1

    def test_reply_to_nonexistent_call_ignored(self):
        sim = Simulation(3, {}, EagerAdversary(), seed=0)
        pool = sim.in_flight
        broadcast = pool.open_broadcast(
            sender=0, call_id=999, kind=MessageKind.PROPAGATE, var="X", n=3
        )
        while pool:  # drop the request legs; keep only a stray ACK 1 -> 0
            pool.remove(len(pool) - 1, pool.descriptors[-1])
        pool.add_reply(broadcast.request_descriptor(1))
        sim.execute(pool.last_action())  # must not raise
        assert len(sim.in_flight) == 0


class TestRunLifecycle:
    def test_run_after_completion_is_idempotent(self):
        def algorithm(api):
            api.put("X", api.pid, 1)
            yield Propagate("X", (api.pid,))
            return "ok"

        sim = Simulation(3, {0: algorithm}, EagerAdversary(), seed=0)
        first = sim.run()
        second = sim.run()
        assert first.outcomes == second.outcomes == {0: "ok"}

    def test_no_participants_returns_immediately(self):
        sim = Simulation(4, {}, EagerAdversary(), seed=0)
        result = sim.run()
        assert result.terminated
        assert result.decisions == {}
        assert result.metrics.events_executed == 0


class TestDegenerateSizes:
    def test_n_one_collect(self):
        def algorithm(api):
            api.put("X", 0, "solo")
            views = yield Collect("X")
            return views

        sim = Simulation(1, {0: algorithm}, EagerAdversary(), seed=0)
        views = sim.run().outcomes[0]
        assert views == [{0: "solo"}]

    def test_n_two_full_protocol(self):
        from repro.core import make_leader_elect

        from ..conftest import violated

        sim = Simulation(
            2,
            {0: make_leader_elect(), 1: make_leader_elect()},
            EagerAdversary(),
            seed=0,
        )
        result = sim.run()
        assert violated("elect", result) == []

    def test_crash_budget_zero_for_tiny_systems(self):
        assert Simulation(1, {}, EagerAdversary()).crash_budget == 0
        assert Simulation(2, {}, EagerAdversary()).crash_budget == 0
        assert Simulation(3, {}, EagerAdversary()).crash_budget == 1
