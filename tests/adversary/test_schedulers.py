"""Behavioural tests for every scheduling strategy.

Each adversary must (a) drive any protocol to termination, and (b)
realize its documented attack/shape.  The attack-specific assertions live
in the core tests (e.g. the naive sifter breaking); here we verify
scheduling mechanics.
"""

from __future__ import annotations

import pytest

from repro.adversary import (
    BubbleAdversary,
    EagerAdversary,
    ObliviousAdversary,
    QuorumSplitAdversary,
    RandomAdversary,
    RoundRobinAdversary,
    SequentialAdversary,
)
from repro.adversary.base import Adversary, fallback_action
from repro.core import make_leader_elect
from repro.obs.events import EventType, ListSink
from repro.sim import Collect, Deliver, Propagate, Simulation, Step

from ..conftest import ALL_ADVERSARY_NAMES, fresh_adversary


def ping_factory(api):
    api.put("X", api.pid, api.pid)
    yield Propagate("X", (api.pid,))
    views = yield Collect("X")
    return len(views)


class TestFallbackAction:
    def test_prefers_delivery(self):
        # The fallback delivers the newest in-flight leg by position.
        sim = Simulation(4, {0: ping_factory}, EagerAdversary(), seed=0)
        sim.execute(Step(0))  # issues the propagate broadcast
        action = fallback_action(sim)
        assert action == Deliver(2, sim.in_flight.descriptors[2])
        assert sim.in_flight.endpoints_at(action.slot) == (0, 3)

    def test_steps_when_pool_empty(self):
        sim = Simulation(4, {0: ping_factory}, EagerAdversary(), seed=0)
        action = fallback_action(sim)
        assert action == Step(0)

    def test_none_at_quiescence(self):
        sim = Simulation(4, {}, EagerAdversary(), seed=0)
        assert fallback_action(sim) is None


class TestEveryAdversaryTerminates:
    @pytest.mark.parametrize("name", ALL_ADVERSARY_NAMES)
    def test_simple_protocol_terminates(self, name):
        sim = Simulation(
            6,
            {pid: ping_factory for pid in range(4)},
            fresh_adversary(name, seed=5),
            seed=5,
        )
        result = sim.run()
        assert result.terminated
        assert set(result.decisions) == {0, 1, 2, 3}

    @pytest.mark.parametrize("name", ALL_ADVERSARY_NAMES)
    def test_leader_election_terminates(self, name):
        sim = Simulation(
            8,
            {pid: make_leader_elect() for pid in range(8)},
            fresh_adversary(name, seed=2),
            seed=2,
        )
        result = sim.run()
        assert result.terminated


class TestAdversaryReuseContract:
    """setup() must reset per-run state: a reused instance == a fresh one."""

    @staticmethod
    def _assert_reuse_matches_fresh(name, n, participants):
        def outcome(adversary):
            sim = Simulation(n, participants(), adversary, seed=3)
            result = sim.run()
            return (
                sorted(result.decisions.items()),
                result.metrics.events_executed,
                result.metrics.messages_total,
            )

        reused = fresh_adversary(name, seed=3)
        first = outcome(reused)
        second = outcome(reused)
        fresh = outcome(fresh_adversary(name, seed=3))
        assert second == first == fresh

    @pytest.mark.parametrize("name", ALL_ADVERSARY_NAMES)
    def test_second_run_matches_fresh_instance(self, name):
        self._assert_reuse_matches_fresh(
            name, 6, lambda: {pid: ping_factory for pid in range(4)}
        )

    @pytest.mark.parametrize("name", ALL_ADVERSARY_NAMES)
    def test_second_coin_flipping_run_matches_fresh_instance(self, name):
        # ping_factory flips no coins; a poison-pill election does, so a
        # coin-keyed cache left over from the first run would show here.
        self._assert_reuse_matches_fresh(
            name, 16, lambda: {pid: make_leader_elect() for pid in range(16)}
        )


class TestRandomAdversary:
    def test_bias_validation(self):
        with pytest.raises(ValueError):
            RandomAdversary(deliver_bias=0.0)
        with pytest.raises(ValueError):
            RandomAdversary(deliver_bias=1.0)

    @pytest.mark.parametrize("bias", [0.0, 1.0, 1.5, -1.0])
    def test_oblivious_bias_validation(self, bias):
        """The oblivious scheduler draws the same way, so it checks the bias too."""
        with pytest.raises(ValueError):
            ObliviousAdversary(deliver_bias=bias)

    def test_reproducible(self):
        def run(seed):
            sim = Simulation(
                5,
                {pid: ping_factory for pid in range(3)},
                RandomAdversary(seed=seed),
                seed=7,
            )
            return sim.run().metrics.events_executed

        assert run(3) == run(3)


class TestActionsContract:
    """``Simulation.run`` drains ``actions()``; a ``choose()`` it would
    never call is rejected when the class is defined."""

    def test_choose_below_actions_is_rejected(self):
        with pytest.raises(TypeError, match="EagerAdversary implements actions"):
            class Stale(EagerAdversary):
                def choose(self, sim):
                    return None

    def test_choose_beside_actions_is_rejected(self):
        with pytest.raises(TypeError, match="would never be called"):
            class Both(Adversary):
                def choose(self, sim):
                    return None

                def actions(self, sim):
                    yield None

    def test_actions_below_choose_wraps_it(self):
        steps = []

        class Counting(BubbleAdversary):
            def actions(self, sim):
                for action in super().actions(sim):
                    steps.append(isinstance(action, Step))
                    yield action

        sim = Simulation(
            5, {pid: make_leader_elect() for pid in range(5)}, Counting(), seed=2
        )
        result = sim.run()
        assert result.terminated
        assert sum(steps) == result.metrics.steps

    def test_resumed_once_per_executed_action(self):
        """Each resume sees the previous action executed, and the run
        stops resuming once every participant decided."""
        resumed_at = []

        class Counting(EagerAdversary):
            def actions(self, sim):
                for action in super().actions(sim):
                    resumed_at.append(sim.metrics.events_executed)
                    yield action

        sim = Simulation(
            5, {pid: make_leader_elect() for pid in range(5)}, Counting(), seed=2
        )
        result = sim.run()
        assert result.terminated
        assert resumed_at == list(range(result.metrics.events_executed))

    def test_neither_method_fails_at_run(self):
        sim = Simulation(3, {0: ping_factory}, Adversary(), seed=0)
        with pytest.raises(NotImplementedError):
            sim.run()


class TestSequentialAdversary:
    def test_serializes_decisions(self):
        """Under the sequential adversary, participant i decides before
        participant i+1 performs any computation step."""
        sink = ListSink()
        sim = Simulation(
            6,
            {pid: ping_factory for pid in range(4)},
            SequentialAdversary(),
            seed=0,
            sink=sink,
        )
        sim.run()
        decide_times = {
            event.pid: event.time for event in sink.of_type(EventType.PROC_DECIDE)
        }
        start_times = {
            event.pid: event.time for event in sink.of_type(EventType.PROC_START)
        }
        for pid in range(3):
            assert decide_times[pid] < start_times[pid + 1]

    def test_respects_custom_order(self):
        order = [3, 1, 2, 0]
        sink = ListSink()
        sim = Simulation(
            6,
            {pid: ping_factory for pid in range(4)},
            SequentialAdversary(order=order),
            seed=0,
            sink=sink,
        )
        sim.run()
        decide_times = {
            event.pid: event.time for event in sink.of_type(EventType.PROC_DECIDE)
        }
        observed = sorted(decide_times, key=decide_times.get)
        assert observed == order


class TestRoundRobinAdversary:
    def test_rotates_across_processors(self):
        sink = ListSink()
        sim = Simulation(
            6,
            {pid: ping_factory for pid in range(6)},
            RoundRobinAdversary(),
            seed=0,
            sink=sink,
        )
        sim.run()
        first_steps = {}
        for event in sink.of_type(EventType.SCHED_STEP):
            first_steps.setdefault(event.pid, event.time)
        ordered = sorted(first_steps, key=first_steps.get)
        assert ordered == list(range(6))


class TestQuorumSplitAdversary:
    def test_same_half_preferred(self):
        adversary = QuorumSplitAdversary(first_half={0, 1, 2})
        sim = Simulation(
            6, {pid: ping_factory for pid in range(6)}, adversary, seed=0
        )
        result = sim.run()
        assert result.terminated

    def test_default_half_is_lower_pids(self):
        adversary = QuorumSplitAdversary()
        sim = Simulation(4, {0: ping_factory}, adversary, seed=0)
        sim.adversary.setup(sim)
        assert adversary._half == frozenset({0, 1})


class TestBubbleAdversary:
    def test_default_bubble_is_quarter_of_participants(self):
        adversary = BubbleAdversary()
        sim = Simulation(
            8, {pid: ping_factory for pid in range(8)}, adversary, seed=0
        )
        adversary.setup(sim)
        assert adversary.unreleased == {0, 1}

    def test_members_release_after_threshold(self):
        adversary = BubbleAdversary(bubble={0}, threshold=2)
        sim = Simulation(
            6, {pid: ping_factory for pid in range(6)}, adversary, seed=0
        )
        result = sim.run()
        assert result.terminated
        assert adversary.unreleased == frozenset()

    def test_bubbled_traffic_buffered_until_release(self):
        """The first delivery involving the bubbled processor happens only
        once at least ``threshold`` of its messages are buffered."""
        threshold = 3
        observed_buffer_at_first_delivery = []

        class Probe(BubbleAdversary):
            def choose(self, sim):
                action = super().choose(sim)
                if (
                    isinstance(action, Deliver)
                    and not observed_buffer_at_first_delivery
                    and 0 in sim.in_flight.endpoints_at(action.slot)
                ):
                    buffered = len(sim.in_flight.sent_by(0)) + len(
                        sim.in_flight.addressed_to(0)
                    )
                    observed_buffer_at_first_delivery.append(buffered)
                return action

        adversary = Probe(bubble={0}, threshold=threshold)
        sim = Simulation(
            6, {pid: ping_factory for pid in range(6)}, adversary, seed=0
        )
        result = sim.run()
        assert result.terminated
        assert observed_buffer_at_first_delivery
        assert observed_buffer_at_first_delivery[0] >= threshold


class TestObliviousAdversary:
    def test_reproducible(self):
        def run():
            sim = Simulation(
                5,
                {pid: ping_factory for pid in range(3)},
                ObliviousAdversary(seed=4),
                seed=9,
            )
            return sim.run().metrics.events_executed

        assert run() == run()
