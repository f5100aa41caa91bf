"""End-to-end integration: full protocol stacks, compositions, determinism."""

from __future__ import annotations

import pytest

from repro.core import Outcome, leader_elect, make_get_name, make_leader_elect
from repro.harness import run_leader_election, run_renaming
from repro.sim import Simulation

from ..conftest import ALL_ADVERSARY_NAMES, fresh_adversary, violated


class TestFullMatrix:
    """The whole algorithm stack against every adversary."""

    @pytest.mark.parametrize("name", ALL_ADVERSARY_NAMES)
    @pytest.mark.parametrize("n", [2, 6, 11])
    def test_leader_election_matrix(self, name, n):
        run = run_leader_election(n=n, adversary=fresh_adversary(name, n), seed=n)
        assert run.winner is not None

    @pytest.mark.parametrize("name", ALL_ADVERSARY_NAMES)
    def test_renaming_matrix(self, name):
        run = run_renaming(n=7, adversary=fresh_adversary(name, 3), seed=3)
        assert sorted(run.names.values()) == list(range(7))


class TestComposition:
    def test_two_disjoint_elections_in_one_system(self):
        """Namespace isolation: the same processors elect two independent
        leaders, one per namespace, in a single execution."""

        def both(api):
            first = yield from leader_elect(api, namespace="alpha")
            second = yield from leader_elect(api, namespace="beta")
            return (first, second)

        n = 6
        for seed in range(4):
            sim = Simulation(
                n,
                {pid: both for pid in range(n)},
                fresh_adversary("random", seed),
                seed=seed,
            )
            result = sim.run()
            alpha_winners = [
                pid for pid, (a, _) in result.outcomes.items() if a is Outcome.WIN
            ]
            beta_winners = [
                pid for pid, (_, b) in result.outcomes.items() if b is Outcome.WIN
            ]
            assert len(alpha_winners) == 1
            assert len(beta_winners) == 1

    def test_mixed_participant_sets(self):
        """Leader election among evens while odds run renaming: protocols
        coexist in one system without interference."""
        n = 8
        participants = {}
        for pid in range(0, n, 2):
            participants[pid] = make_leader_elect()
        for pid in range(1, n, 2):
            participants[pid] = make_get_name()
        sim = Simulation(n, participants, fresh_adversary("random", 6), seed=6)
        result = sim.run()
        winners = [
            pid for pid in range(0, n, 2)
            if result.outcomes[pid] is Outcome.WIN
        ]
        names = [result.outcomes[pid] for pid in range(1, n, 2)]
        assert len(winners) == 1
        assert len(set(names)) == len(names)
        assert all(isinstance(name, int) for name in names)

    def test_election_winner_stable_under_rerun(self):
        first = run_leader_election(n=10, adversary="random", seed=42)
        second = run_leader_election(n=10, adversary="random", seed=42)
        assert first.winner == second.winner
        assert first.rounds == second.rounds
        assert first.result.metrics.summary() == second.result.metrics.summary()


class TestScale:
    def test_moderately_large_election(self):
        run = run_leader_election(n=64, adversary="eager", seed=0)
        assert run.winner is not None
        # O(log* k) rounds: single digits even at n = 64.
        assert run.rounds <= 10

    def test_moderately_large_renaming(self):
        run = run_renaming(n=24, adversary="eager", seed=0)
        assert sorted(run.names.values()) == list(range(24))

    def test_message_budget_not_absurd(self):
        """O(kn) messages with sane constants: stay under 60 n^2."""
        n = 32
        run = run_leader_election(n=n, adversary="random", seed=1)
        assert run.messages_total < 60 * n * n


class TestCheckersOnRealRuns:
    @pytest.mark.parametrize("seed", range(5))
    def test_leader_election_always_checkable(self, seed):
        run = run_leader_election(n=9, adversary="random", seed=seed, check=False)
        assert violated("elect", run.result) == []

    @pytest.mark.parametrize("seed", range(5))
    def test_renaming_always_checkable(self, seed):
        run = run_renaming(n=6, adversary="random", seed=seed, check=False)
        assert violated("rename", run.result) == []
