"""Tests for the baseline algorithms: tournament, naive sifter, linear renaming."""

from __future__ import annotations

import pytest

from repro.core import Outcome
from repro.core.baselines import (
    bracket_levels,
    make_linear_renaming,
    make_naive_sifter,
    make_tournament,
    make_two_processor_test_and_set,
)
from repro.harness import run_leader_election, run_renaming, run_sifting_phase
from repro.sim import Simulation

from ..conftest import ALL_ADVERSARY_NAMES, fresh_adversary, violated


class TestBracketLevels:
    def test_values(self):
        assert bracket_levels(1) == 0
        assert bracket_levels(2) == 1
        assert bracket_levels(4) == 2
        assert bracket_levels(5) == 3
        assert bracket_levels(8) == 3
        assert bracket_levels(9) == 4


class TestTwoProcessorTestAndSet:
    @pytest.mark.parametrize("seed", range(8))
    def test_pair_unique_winner(self, seed):
        sim = Simulation(
            5,
            {0: make_two_processor_test_and_set(), 1: make_two_processor_test_and_set()},
            fresh_adversary("random", seed),
            seed=seed,
        )
        outcomes = sim.run().outcomes
        wins = [pid for pid, o in outcomes.items() if o is Outcome.WIN]
        assert len(wins) == 1

    def test_solo_bye_wins(self):
        sim = Simulation(
            5, {2: make_two_processor_test_and_set()}, fresh_adversary("eager"), seed=0
        )
        assert sim.run().outcomes[2] is Outcome.WIN


class TestTournament:
    @pytest.mark.parametrize("name", ALL_ADVERSARY_NAMES)
    def test_unique_winner_every_adversary(self, name):
        run = run_leader_election(
            n=8, algorithm="tournament", adversary=fresh_adversary(name, 2), seed=2
        )
        assert run.winner is not None

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 8, 11, 16])
    def test_odd_and_even_sizes(self, n):
        run = run_leader_election(n=n, algorithm="tournament", adversary="random", seed=1)
        assert run.winner is not None

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_partial_participation_byes(self, k):
        run = run_leader_election(
            n=8, k=k, algorithm="tournament", adversary="random", seed=4
        )
        assert run.winner is not None

    @pytest.mark.parametrize("seed", range(8))
    def test_many_seeds(self, seed):
        run = run_leader_election(n=8, algorithm="tournament", adversary="random", seed=seed)
        assert violated("elect", run.result) == []

    def test_time_grows_with_bracket_depth(self):
        """The whole point of the paper: the tournament pays per level."""
        small = run_leader_election(n=4, algorithm="tournament", adversary="eager", seed=0)
        large = run_leader_election(n=32, algorithm="tournament", adversary="eager", seed=0)
        assert large.max_comm_calls > small.max_comm_calls


class TestNaiveSifter:
    @pytest.mark.parametrize("name", ALL_ADVERSARY_NAMES)
    def test_at_least_one_survivor(self, name):
        run = run_sifting_phase(
            n=12, kind="naive", adversary=fresh_adversary(name, 3), seed=3, check=False
        )
        assert run.survivors >= 1

    @pytest.mark.parametrize("seed", range(6))
    def test_broken_by_coin_aware_adversary(self, seed):
        """The paper's motivating attack: the strong adversary sees the
        flips and keeps *everyone* alive."""
        run = run_sifting_phase(
            n=16, kind="naive", adversary="coin_aware", seed=seed, check=False
        )
        assert run.survivors == run.k

    def test_sifts_against_oblivious_adversary(self):
        """Against a state-blind scheduler the strawman does sift."""
        total = 0
        repeats = 10
        for seed in range(repeats):
            total += run_sifting_phase(
                n=16, kind="naive", adversary="oblivious", seed=seed, check=False
            ).survivors
        assert total / repeats <= 12  # clearly below everyone-survives

    def test_poison_pill_resists_same_attack(self):
        """Contrast: PoisonPill under the identical adversary still sifts
        hard — the commit state kills late low-priority processors."""
        total = 0
        repeats = 8
        for seed in range(repeats):
            total += run_sifting_phase(
                n=16, kind="poison_pill", adversary="coin_aware", seed=seed
            ).survivors
        assert total / repeats <= 8


class TestLinearRenaming:
    @pytest.mark.parametrize("seed", range(5))
    def test_unique_names(self, seed):
        run = run_renaming(n=6, algorithm="linear", adversary="random", seed=seed)
        assert sorted(run.names.values()) == list(range(6))

    @pytest.mark.parametrize("name", ALL_ADVERSARY_NAMES)
    def test_every_adversary(self, name):
        run = run_renaming(
            n=6, algorithm="linear", adversary=fresh_adversary(name, 5), seed=5
        )
        assert len(set(run.names.values())) == 6

    def test_blind_trials_waste_more_than_paper_algorithm(self):
        """Without shared contention info, collisions multiply: summed over
        seeds, the baseline needs at least as many trials as Figure 3."""
        baseline_trials = 0
        paper_trials = 0
        for seed in range(6):
            baseline_trials += run_renaming(
                n=8, algorithm="linear", adversary="random", seed=seed
            ).max_trials
            paper_trials += run_renaming(
                n=8, algorithm="paper", adversary="random", seed=seed
            ).max_trials
        assert baseline_trials >= paper_trials

    def test_factory_smoke(self):
        sim = Simulation(
            4,
            {pid: make_linear_renaming() for pid in range(4)},
            fresh_adversary("eager"),
            seed=0,
        )
        result = sim.run()
        assert sorted(result.outcomes.values()) == [0, 1, 2, 3]


class TestFactoriesSmoke:
    def test_naive_sifter_factory(self):
        sim = Simulation(
            4, {pid: make_naive_sifter() for pid in range(4)}, fresh_adversary("eager"), seed=0
        )
        outcomes = sim.run().outcomes
        assert all(o in (Outcome.SURVIVE, Outcome.DIE) for o in outcomes.values())

    def test_tournament_factory(self):
        sim = Simulation(
            4, {pid: make_tournament() for pid in range(4)}, fresh_adversary("eager"), seed=0
        )
        outcomes = sim.run().outcomes
        assert sum(1 for o in outcomes.values() if o is Outcome.WIN) == 1
