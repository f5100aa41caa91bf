"""Tests for the full leader-election algorithm (Figure 6, Theorem A.5)."""

from __future__ import annotations

import pytest

from repro.adversary import RandomAdversary, RandomCrashAdversary
from repro.core import Outcome, make_leader_elect
from repro.harness import run_leader_election
from repro.harness.runners import LeaderElectionReport
from repro.sim import Simulation

from ..conftest import ALL_ADVERSARY_NAMES, fresh_adversary, violated


class TestUniqueWinner:
    @pytest.mark.parametrize("name", ALL_ADVERSARY_NAMES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_adversary(self, name, seed):
        run = run_leader_election(
            n=10, adversary=fresh_adversary(name, seed), seed=seed
        )
        assert run.winner is not None
        losers = [
            pid for pid, o in run.result.outcomes.items() if o is Outcome.LOSE
        ]
        assert len(losers) == run.k - 1

    @pytest.mark.parametrize("seed", range(15))
    def test_many_random_schedules(self, seed):
        run = run_leader_election(n=8, adversary="random", seed=seed)
        assert run.winner is not None

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 13, 16])
    def test_various_sizes(self, n):
        run = run_leader_election(n=n, adversary="random", seed=3)
        assert run.winner is not None


class TestAdaptivity:
    """Theorem A.5 is stated in k, the participants, not n."""

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_few_participants_among_many(self, k):
        run = run_leader_election(n=16, k=k, adversary="random", seed=1)
        assert run.winner is not None
        assert run.k == k

    def test_solo_participant_wins_fast(self):
        run = run_leader_election(n=16, k=1, adversary="eager", seed=0)
        assert run.winner == 0
        # doorway (2) + round 1 preround (2) + round 1 HPP (4) + round 2
        # preround (2, wins there) = 10 communicate calls.
        assert run.max_comm_calls == 10
        assert run.rounds == 1

    @pytest.mark.parametrize("pattern", ["first", "last", "spread", "random"])
    def test_participation_patterns(self, pattern):
        run = run_leader_election(
            n=12, k=4, pattern=pattern, adversary="random", seed=2
        )
        assert run.winner is not None


class TestLinearizability:
    def test_sequential_first_invoker_wins(self):
        """Under the sequential schedule the first participant finishes its
        whole protocol before anyone else starts, so it must win and all
        later arrivals must lose at the doorway."""
        for seed in range(5):
            run = run_leader_election(n=8, adversary="sequential", seed=seed)
            assert run.winner == 0

    def test_checker_accepts_all_adversaries(self, adversary_name):
        run = run_leader_election(
            n=9, adversary=fresh_adversary(adversary_name, 4), seed=4
        )
        assert violated("elect", run.result) == []
        assert LeaderElectionReport.of(run.result).winner == run.winner

    def test_no_lose_before_winner_start(self):
        for seed in range(8):
            run = run_leader_election(n=7, adversary="random", seed=seed)
            winner_start = run.result.decisions[run.winner].start_time
            for pid, decision in run.result.decisions.items():
                if decision.result is Outcome.LOSE:
                    assert decision.decide_time >= winner_start


class TestCrashTolerance:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_crash_storm(self, seed):
        adversary = RandomCrashAdversary(
            RandomAdversary(seed=seed), rate=0.002, seed=seed
        )
        sim = Simulation(
            9,
            {pid: make_leader_elect() for pid in range(9)},
            adversary,
            seed=seed,
        )
        result = sim.run(require_termination=False)
        assert not result.undecided  # all alive participants decided
        assert violated("elect", result) == []  # at most one winner, linearizable

    def test_winner_may_crash_leaving_losers(self):
        """If the in-flight winner crashes, survivors may all lose; that is
        linearizable (the crashed op is linearized as the winner)."""
        seeds_with_crash = 0
        for seed in range(12):
            adversary = RandomCrashAdversary(
                RandomAdversary(seed=seed), rate=0.004, seed=seed
            )
            sim = Simulation(
                7,
                {pid: make_leader_elect() for pid in range(7)},
                adversary,
                seed=seed,
            )
            result = sim.run(require_termination=False)
            assert violated("elect", result) == []
            if result.crashed:
                seeds_with_crash += 1
        assert seeds_with_crash > 0  # the storm actually exercised crashes


class TestComplexitySanity:
    def test_rounds_grow_very_slowly(self):
        """log* growth: going from 8 to 64 participants should add at most
        a couple of sifting rounds on fair schedules."""
        small = run_leader_election(n=8, adversary="random", seed=5)
        large = run_leader_election(n=64, adversary="random", seed=5)
        assert large.rounds <= small.rounds + 6

    def test_message_complexity_scales_with_k_not_quadratic_in_k(self):
        """O(kn): with n fixed, halving k should not halve messages by much
        more than linearly (loose sanity bound)."""
        full = run_leader_election(n=32, k=32, adversary="random", seed=6)
        half = run_leader_election(n=32, k=16, adversary="random", seed=6)
        assert half.messages_total < full.messages_total

    def test_ablation_without_lists_still_elects(self):
        sim = Simulation(
            8,
            {pid: make_leader_elect(use_lists=False) for pid in range(8)},
            fresh_adversary("random", 7),
            seed=7,
        )
        result = sim.run()
        assert violated("elect", result) == []
