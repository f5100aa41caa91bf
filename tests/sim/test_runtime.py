"""Runtime semantics: quorums, crashes, determinism, error paths."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.adversary import EagerAdversary, RandomAdversary, SequentialAdversary
from repro.adversary.base import Adversary
from repro.harness.runners import run_leader_election
from repro.obs.events import ListSink, MultiSink
from repro.obs.metrics import MetricsSink
from repro.sim import (
    AdversaryProtocolError,
    Collect,
    Crash,
    CrashBudgetError,
    ProcessProtocolError,
    Propagate,
    QuiescenceError,
    Simulation,
    SimulationLimitError,
    Step,
)
from repro.sim.registers import POLICY_OR
from repro.sim.rng import make_stream


def writer_factory(value="payload"):
    def algorithm(api):
        api.put("X", api.pid, value)
        yield Propagate("X", (api.pid,))
        return "wrote"

    return algorithm


def reader_factory():
    def algorithm(api):
        views = yield Collect("X")
        return views

    return algorithm


def looper_factory():
    def algorithm(api):
        while True:
            api.put("X", api.pid, 0)
            yield Propagate("X", (api.pid,))

    return algorithm


class TestQuorumSemantics:
    def test_propagate_reaches_majority(self):
        sim = Simulation(5, {0: writer_factory("v")}, EagerAdversary(), seed=1)
        result = sim.run()
        assert result.outcomes == {0: "wrote"}
        holders = sum(
            1 for process in sim.processes if process.registers.get("X", 0) == "v"
        )
        assert holders >= 5 // 2 + 1

    def test_collect_returns_quorum_of_views(self):
        sim = Simulation(7, {3: reader_factory()}, EagerAdversary(), seed=1)
        result = sim.run()
        views = result.outcomes[3]
        assert len(views) >= 7 // 2 + 1

    def test_collect_includes_own_view(self):
        def algorithm(api):
            api.put("X", api.pid, "mine")
            views = yield Collect("X")
            return views

        sim = Simulation(5, {2: algorithm}, EagerAdversary(), seed=1)
        views = sim.run().outcomes[2]
        assert any(view.get(2) == "mine" for view in views)

    def test_sequential_calls_intersect(self):
        """A collect issued after a completed propagate must observe it —
        the quorum-intersection property every proof in the paper uses."""
        sim = Simulation(
            9,
            {0: writer_factory("seen"), 8: reader_factory()},
            SequentialAdversary(order=[0, 8]),
            seed=3,
        )
        views = sim.run().outcomes[8]
        assert any(view.get(0) == "seen" for view in views)

    def test_intersection_holds_for_every_seed(self):
        for seed in range(10):
            sim = Simulation(
                6,
                {0: writer_factory("seen"), 5: reader_factory()},
                SequentialAdversary(order=[0, 5]),
                seed=seed,
            )
            views = sim.run().outcomes[5]
            assert any(view.get(0) == "seen" for view in views)

    def test_single_processor_needs_no_remote_acks(self):
        sim = Simulation(1, {0: writer_factory()}, EagerAdversary(), seed=0)
        result = sim.run()
        assert result.outcomes == {0: "wrote"}
        assert result.metrics.messages_total == 0

    def test_two_processors_need_one_remote_ack(self):
        sim = Simulation(2, {0: writer_factory()}, EagerAdversary(), seed=0)
        result = sim.run()
        assert result.outcomes == {0: "wrote"}
        # one PROPAGATE out, one ACK back
        assert result.metrics.messages_total == 2


class TestMetrics:
    def test_message_accounting(self):
        n = 5
        sim = Simulation(n, {0: writer_factory()}, EagerAdversary(), seed=0)
        result = sim.run()
        metrics = result.metrics
        assert metrics.messages_sent_by[0] == n - 1  # the broadcast
        assert metrics.request_messages == n - 1
        assert metrics.messages_total >= (n - 1) + n // 2  # plus quorum acks
        assert metrics.comm_calls_by[0] == 1
        assert metrics.max_comm_calls == 1

    def test_summary_keys(self):
        sim = Simulation(3, {0: writer_factory()}, EagerAdversary(), seed=0)
        summary = sim.run().metrics.summary()
        for key in (
            "messages_total",
            "request_messages",
            "max_comm_calls",
            "deliveries",
            "steps",
            "crashes",
            "events_executed",
        ):
            assert key in summary

    def test_decision_interval_recorded(self):
        sim = Simulation(4, {1: writer_factory()}, EagerAdversary(), seed=0)
        result = sim.run()
        decision = result.decisions[1]
        assert 0 < decision.start_time <= decision.decide_time


    def test_each_call_completes_once(self):
        # Replies landing between a call's quorum and the caller's next
        # Step are counted, but the call's comm.done is emitted once.
        capture, telemetry = ListSink(), MetricsSink()
        run = run_leader_election(
            16, adversary="eager", seed=0, sink=MultiSink(capture, telemetry)
        )
        events = capture.events
        calls = Counter(e.fields["call"] for e in events if e.etype == "comm.call")
        done = Counter(e.fields["call"] for e in events if e.etype == "comm.done")
        assert set(calls.values()) == {1}
        assert done == calls
        counters = telemetry.registry.snapshot()["counters"]
        assert counters["comm.done"] == counters["comm.calls"]
        assert counters["comm.calls"] == sum(run.result.metrics.comm_calls_by)


class TestDeterminism:
    def test_same_seed_same_run(self):
        def run(seed):
            sim = Simulation(
                6,
                {pid: writer_factory() for pid in range(3)},
                RandomAdversary(seed=seed),
                seed=seed,
            )
            result = sim.run()
            return (result.metrics.summary(), result.outcomes)

        assert run(11) == run(11)

    def test_different_seeds_usually_differ(self):
        def run(seed):
            sim = Simulation(
                6,
                {pid: writer_factory() for pid in range(3)},
                RandomAdversary(seed=seed),
                seed=seed,
            )
            return sim.run().metrics.events_executed

        assert len({run(seed) for seed in range(8)}) > 1


class TestCrashes:
    def test_default_budget(self):
        assert Simulation(9, {}, EagerAdversary()).crash_budget == 4
        assert Simulation(10, {}, EagerAdversary()).crash_budget == 4
        assert Simulation(11, {}, EagerAdversary()).crash_budget == 5

    def test_crash_budget_enforced(self):
        sim = Simulation(5, {0: writer_factory()}, EagerAdversary(), crash_budget=1)
        sim.execute(Crash(1))
        with pytest.raises(CrashBudgetError):
            sim.execute(Crash(2))

    def test_double_crash_rejected(self):
        sim = Simulation(5, {0: writer_factory()}, EagerAdversary())
        sim.execute(Crash(1))
        with pytest.raises(AdversaryProtocolError):
            sim.execute(Crash(1))

    def test_step_of_crashed_rejected(self):
        sim = Simulation(5, {0: writer_factory()}, EagerAdversary())
        sim.execute(Crash(0))
        with pytest.raises(AdversaryProtocolError):
            sim.execute(Step(0))

    def test_terminates_with_minority_responders_crashed(self):
        n = 7
        sim = Simulation(n, {0: writer_factory()}, EagerAdversary(), seed=0)
        for pid in (4, 5, 6):  # ceil(7/2) - 1 = 3 crashes allowed
            sim.execute(Crash(pid))
        result = sim.run()
        assert result.outcomes == {0: "wrote"}

    def test_majority_crash_blocks_quorum(self):
        n = 7
        sim = Simulation(
            n, {0: writer_factory()}, EagerAdversary(), seed=0, crash_budget=n
        )
        for pid in range(1, 5):  # 4 crashes: only 3 processors left
            sim.execute(Crash(pid))
        with pytest.raises(QuiescenceError):
            sim.run()

    def test_majority_crash_reported_without_require(self):
        n = 5
        sim = Simulation(
            n, {0: writer_factory()}, EagerAdversary(), seed=0, crash_budget=n
        )
        for pid in range(1, 4):
            sim.execute(Crash(pid))
        result = sim.run(require_termination=False)
        assert result.undecided == {0}
        assert not result.terminated

    def test_crashed_participant_not_awaited(self):
        sim = Simulation(
            5, {0: writer_factory(), 1: writer_factory()}, EagerAdversary(), seed=0
        )
        sim.execute(Crash(1))
        result = sim.run()
        assert result.outcomes == {0: "wrote"}
        assert 1 in result.crashed


class TestLogicalClock:
    """``clock`` is ``metrics.events_executed``, not a counter of its own."""

    def test_clock_tracks_events_executed(self):
        sim = Simulation(
            5, {0: writer_factory(), 1: reader_factory()}, EagerAdversary(),
            seed=0,
        )

        def agree():
            assert sim.clock == sim.metrics.events_executed

        agree()
        sim.execute(Step(0))
        agree()
        action = sim.in_flight.action_at(0)
        sim.execute(action)
        agree()
        sim.execute(Crash(4))
        agree()
        with pytest.raises(KeyError):
            sim.execute(action)  # stale: that leg was delivered
        agree()
        assert sim.clock == 4
        sim.run()
        agree()
        assert sim.clock > 4

    def test_clock_cannot_be_assigned(self):
        sim = Simulation(3, {0: writer_factory()}, EagerAdversary())
        with pytest.raises(AttributeError):
            sim.clock = 5


class TestErrorPaths:
    def test_event_limit(self):
        sim = Simulation(
            3, {0: looper_factory()}, EagerAdversary(), seed=0, max_events=200
        )
        with pytest.raises(SimulationLimitError):
            sim.run()

    def test_bad_yield_rejected(self):
        def bad(api):
            yield "not-a-request"

        sim = Simulation(3, {0: bad}, EagerAdversary(), seed=0)
        with pytest.raises(ProcessProtocolError):
            sim.run()

    def test_participant_pid_out_of_range(self):
        with pytest.raises(ValueError):
            Simulation(3, {7: writer_factory()}, EagerAdversary())

    def test_zero_processors_rejected(self):
        with pytest.raises(ValueError):
            Simulation(0, {}, EagerAdversary())

    def test_unknown_action_rejected(self):
        sim = Simulation(3, {0: writer_factory()}, EagerAdversary())
        with pytest.raises(AdversaryProtocolError):
            sim.execute("deliver-everything")

    def test_adversary_passing_while_enabled(self):
        class Lazy(Adversary):
            def choose(self, sim):
                return None

        sim = Simulation(3, {0: writer_factory()}, Lazy(), seed=0)
        with pytest.raises(AdversaryProtocolError):
            sim.run()


class TestResponders:
    def test_non_participants_reply_but_never_decide(self):
        sim = Simulation(6, {2: reader_factory()}, EagerAdversary(), seed=0)
        result = sim.run()
        assert set(result.decisions) == {2}
        # Responders never invoked an algorithm.
        for process in sim.processes:
            if process.pid != 2:
                assert process.coroutine is None

    def test_decided_participants_keep_replying(self):
        """After a participant decides, it still serves collects — required
        by the model (processors assist even after returning)."""
        sim = Simulation(
            4,
            {0: writer_factory("early"), 1: reader_factory()},
            SequentialAdversary(order=[0, 1]),
            seed=0,
        )
        views = sim.run().outcomes[1]
        assert any(view.get(0) == "early" for view in views)

    def test_responders_hold_no_coin_stream(self):
        participants = {pid: writer_factory() for pid in range(4)}
        sim = Simulation(64, participants, EagerAdversary(), seed=9)
        for process in sim.processes:
            if process.pid in participants:
                # Streams are named by pid, not by build order.
                expected = make_stream(9, f"proc/{process.pid}")
                assert process.rng.getstate() == expected.getstate()
            else:
                assert process.rng is None
        assert sim.run().terminated


class TestRegisterPolicyIntegration:
    def test_or_policy_spreads_sticky_flag(self):
        def setter(api):
            api.put("Flag", 0, True, policy=POLICY_OR)
            yield Propagate("Flag", (0,))
            return True

        def checker(api):
            views = yield Collect("Flag")
            return any(view.get(0, False) for view in views)

        sim = Simulation(
            5,
            {0: setter, 4: checker},
            SequentialAdversary(order=[0, 4]),
            seed=0,
        )
        result = sim.run()
        assert result.outcomes[4] is True
