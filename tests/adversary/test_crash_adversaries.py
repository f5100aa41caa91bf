"""Tests for crash-injecting adversary wrappers."""

from __future__ import annotations

import pytest

from repro.adversary import (
    CrashingAdversary,
    EagerAdversary,
    RandomAdversary,
    RandomCrashAdversary,
)
from repro.obs.events import EventType, ListSink
from repro.sim import Collect, Propagate, Simulation


def ping_factory(api):
    api.put("X", api.pid, api.pid)
    yield Propagate("X", (api.pid,))
    views = yield Collect("X")
    return len(views)


class TestCrashingAdversary:
    def test_scheduled_crash_fires(self):
        adversary = CrashingAdversary(EagerAdversary(), [(0, 3)])
        sim = Simulation(7, {0: ping_factory}, adversary, seed=0)
        result = sim.run()
        assert 3 in result.crashed
        assert result.terminated

    def test_crash_of_participant_removes_it(self):
        adversary = CrashingAdversary(EagerAdversary(), [(0, 1)])
        sim = Simulation(
            7, {0: ping_factory, 1: ping_factory}, adversary, seed=0
        )
        result = sim.run()
        assert 1 in result.crashed
        assert set(result.decisions) == {0}

    def test_multiple_scheduled_crashes_in_order(self):
        adversary = CrashingAdversary(EagerAdversary(), [(5, 4), (0, 3)])
        sim = Simulation(9, {0: ping_factory}, adversary, seed=0)
        result = sim.run()
        assert {3, 4} <= set(result.crashed)

    def test_already_crashed_target_skipped(self):
        adversary = CrashingAdversary(EagerAdversary(), [(0, 3), (1, 3)])
        sim = Simulation(7, {0: ping_factory}, adversary, seed=0)
        result = sim.run()
        assert result.terminated
        assert result.crashed == {3}

    def test_budget_respected(self):
        # Schedule more crashes than the budget allows; extras are skipped.
        schedule = [(0, pid) for pid in range(1, 7)]
        adversary = CrashingAdversary(EagerAdversary(), schedule)
        sim = Simulation(9, {0: ping_factory}, adversary, seed=0)
        result = sim.run()
        assert len(result.crashed) == sim.crash_budget

    def test_name_composition(self):
        adversary = CrashingAdversary(EagerAdversary(), [])
        assert adversary.name == "crashing+eager"


class TestRandomCrashAdversary:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            RandomCrashAdversary(EagerAdversary(), rate=1.5)

    def test_zero_rate_never_crashes(self):
        adversary = RandomCrashAdversary(EagerAdversary(), rate=0.0, seed=1)
        sim = Simulation(7, {0: ping_factory}, adversary, seed=1)
        result = sim.run()
        assert not result.crashed

    def test_high_rate_crashes_but_never_exceeds_budget(self):
        adversary = RandomCrashAdversary(RandomAdversary(seed=2), rate=0.9, seed=2)
        sim = Simulation(9, {0: ping_factory}, adversary, seed=2)
        result = sim.run(require_termination=False)
        assert result.crashed  # a 90% rate certainly crashed someone
        assert len(result.crashed) <= sim.crash_budget
        # The run ends either with a decision or with the participant dead.
        assert 0 in result.decisions or 0 in result.crashed

    def test_max_crashes_cap(self):
        adversary = RandomCrashAdversary(
            EagerAdversary(), rate=0.9, seed=3, max_crashes=1
        )
        sim = Simulation(9, {0: ping_factory}, adversary, seed=3)
        result = sim.run()
        assert len(result.crashed) <= 1

    def test_max_crashes_crash_points_pinned(self):
        # Seed 1 at rate 0.05 crashes four processors uncapped; the cap
        # stops it after these two, at these logical times.
        sink = ListSink()
        adversary = RandomCrashAdversary(
            RandomAdversary(seed=1), rate=0.05, seed=1, max_crashes=2
        )
        sim = Simulation(
            9, {pid: ping_factory for pid in range(4)}, adversary, seed=1,
            sink=sink,
        )
        result = sim.run()
        crashes = [
            (event.time, event.pid) for event in sink.events
            if event.etype == EventType.SCHED_CRASH
        ]
        assert crashes == [(5, 4), (11, 8)]
        assert result.metrics.crashes == 2
        assert result.metrics.events_executed == 127
        assert sorted(result.decisions) == [0, 1, 2, 3]

    def test_termination_with_minority_crashes(self):
        for seed in range(5):
            adversary = RandomCrashAdversary(
                RandomAdversary(seed=seed), rate=0.01, seed=seed
            )
            sim = Simulation(
                9,
                {pid: ping_factory for pid in range(4)},
                adversary,
                seed=seed,
            )
            result = sim.run(require_termination=False)
            # Everyone alive decided (the budget keeps quorums reachable).
            assert not result.undecided


class TestAdversaryReuse:
    """Regression tests for the setup() per-run-state reset contract.

    A reused adversary instance must behave exactly like a fresh one:
    replay and shrinking re-drive runs through the same instance, so any
    surviving cursor or consumed RNG stream silently changes the
    schedule (historically: CrashingAdversary skipped all crashes on its
    second run, RandomCrashAdversary crashed at different points).
    """

    def _crash_sets(self, adversary, runs=2, n=9):
        observed = []
        for _ in range(runs):
            sim = Simulation(n, {0: ping_factory}, adversary, seed=0)
            observed.append(frozenset(sim.run().crashed))
        return observed

    def test_crashing_adversary_replays_schedule_on_reuse(self):
        adversary = CrashingAdversary(EagerAdversary(), [(0, 3), (5, 4)])
        first, second = self._crash_sets(adversary)
        assert first == {3, 4}
        assert second == first  # cursor rewound: crashes fire again

    def test_random_crash_adversary_identical_on_reuse(self):
        adversary = RandomCrashAdversary(EagerAdversary(), rate=0.2, seed=7)
        first, second = self._crash_sets(adversary)
        assert first  # the 20% rate crashed someone
        assert second == first  # RNG re-derived: same crash points

    def test_reused_equals_fresh(self):
        def fresh():
            return RandomCrashAdversary(EagerAdversary(), rate=0.2, seed=7)

        reused = RandomCrashAdversary(EagerAdversary(), rate=0.2, seed=7)
        for _ in range(3):
            sim_fresh = Simulation(9, {0: ping_factory}, fresh(), seed=0)
            sim_reused = Simulation(9, {0: ping_factory}, reused, seed=0)
            assert sim_fresh.run().crashed == sim_reused.run().crashed
