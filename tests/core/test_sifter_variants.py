"""Tests for the sifting-phase variants inside the round loop.

The paper's final construction uses Heterogeneous PoisonPill per round;
the end of Section 3.1 notes that plain PoisonPill applied recursively
already yields an O(log log n)-style algorithm.  Both variants must be
correct; the heterogeneous one should never need more rounds by more
than a constant.
"""

from __future__ import annotations

import pytest

from repro.core import make_leader_elect
from repro.harness import run_leader_election
from repro.sim import Simulation

from ..conftest import ALL_ADVERSARY_NAMES, fresh_adversary, violated


class TestBasicSifterLeaderElection:
    @pytest.mark.parametrize("name", ALL_ADVERSARY_NAMES)
    def test_unique_winner_every_adversary(self, name):
        run = run_leader_election(
            n=9,
            algorithm="poison_pill_basic",
            adversary=fresh_adversary(name, 6),
            seed=6,
        )
        assert run.winner is not None

    @pytest.mark.parametrize("seed", range(8))
    def test_many_seeds(self, seed):
        run = run_leader_election(
            n=8, algorithm="poison_pill_basic", adversary="random", seed=seed
        )
        assert violated("elect", run.result) == []

    def test_solo_wins(self):
        run = run_leader_election(
            n=8, k=1, algorithm="poison_pill_basic", adversary="eager", seed=0
        )
        assert run.winner == 0

    def test_rounds_counted(self):
        run = run_leader_election(
            n=8, algorithm="poison_pill_basic", adversary="random", seed=1
        )
        assert run.rounds >= 1

    def test_unknown_sifter_rejected(self):
        factory = make_leader_elect(sifter="bogus")
        sim = Simulation(4, {0: factory}, fresh_adversary("eager"), seed=0)
        with pytest.raises(ValueError, match="unknown sifter"):
            sim.run()


class TestVariantComparison:
    def test_both_variants_terminate_at_scale(self):
        basic = run_leader_election(
            n=32, algorithm="poison_pill_basic", adversary="random", seed=2
        )
        het = run_leader_election(
            n=32, algorithm="poison_pill", adversary="random", seed=2
        )
        assert basic.winner is not None
        assert het.winner is not None

    def test_basic_sifter_kills_harder_per_round_sequentially(self):
        """Under a sequential schedule at small n, sqrt(n) < log^2(n), so
        plain PoisonPill rounds tend to shed more processors per round —
        the crossover the paper's asymptotics eventually reverse."""
        totals = {"poison_pill": 0, "poison_pill_basic": 0}
        for algorithm in totals:
            for seed in range(4):
                run = run_leader_election(
                    n=24, algorithm=algorithm, adversary="random", seed=seed
                )
                totals[algorithm] += run.rounds
        # Loose: both finish within a handful of rounds overall.
        assert totals["poison_pill"] <= 4 * 8
        assert totals["poison_pill_basic"] <= 4 * 8
