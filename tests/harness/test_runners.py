"""Tests for the high-level experiment runners."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro.adversary import EagerAdversary
from repro.core import Outcome
from repro.harness.runners import (
    SpecificationViolation,
    make_adversary,
    run_leader_election,
    run_renaming,
    run_sifting_phase,
)
from repro.sim import Simulation


class TestMakeAdversary:
    def test_by_name(self):
        assert make_adversary("random").name == "random"
        assert make_adversary("bubble").name == "bubble"

    def test_passthrough_instance(self):
        instance = EagerAdversary()
        assert make_adversary(instance) is instance

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown adversary"):
            make_adversary("chaos-monkey")


class TestRunLeaderElection:
    def test_returns_structured_run(self):
        run = run_leader_election(n=6, adversary="eager", seed=0)
        assert run.n == 6
        assert run.k == 6
        assert run.algorithm == "poison_pill"
        assert run.adversary == "eager"
        assert run.winner in range(6)
        assert run.max_comm_calls > 0
        assert run.messages_total > 0
        assert run.rounds >= 1

    def test_adversary_instance_name_recorded(self):
        run = run_leader_election(n=4, adversary=EagerAdversary(), seed=0)
        assert run.adversary == "eager"

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_leader_election(n=4, algorithm="paxos")

    def test_tournament_selection(self):
        run = run_leader_election(n=4, algorithm="tournament", adversary="eager", seed=0)
        assert run.algorithm == "tournament"
        assert run.winner is not None

    def test_crash_schedule_wiring(self):
        run = run_leader_election(
            n=7, adversary="eager", seed=0, crash_schedule=[(0, 6)]
        )
        assert 6 in run.result.crashed

    def test_reproducible(self):
        first = run_leader_election(n=6, adversary="random", seed=9)
        second = run_leader_election(n=6, adversary="random", seed=9)
        assert first.winner == second.winner
        assert first.messages_total == second.messages_total


    def test_unchecked_run_reports_the_winner(self):
        checked = run_leader_election(n=8, adversary="random", seed=0)
        unchecked = run_leader_election(
            n=8, adversary="random", seed=0, check=False
        )
        assert checked.winner == unchecked.winner == 5
        assert unchecked.report == checked.report
        assert unchecked.report.losers == (0, 1, 2, 3, 4, 6, 7)

    def test_check_raises_naming_the_invariant(self):
        def always_win(api):
            return Outcome.WIN
            yield  # a coroutine that decides at its first step

        sim = Simulation(
            3, {pid: always_win for pid in range(3)}, EagerAdversary(), seed=0
        )
        with pytest.raises(SpecificationViolation) as excinfo:
            run_leader_election(n=3, simulation=sim)
        assert excinfo.value.invariant == "unique_winner"


class TestRegistryImport:
    def test_runners_import_leaves_the_registry_unloaded(self):
        # The runners load repro.check on their check path only, so a
        # bare import (a benchmark's set-up) does not pay for it.
        code = (
            "import sys, repro.harness.runners; "
            "print(sorted(m for m in sys.modules if m.startswith('repro.check')))"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True,
        ).stdout
        assert out.strip() == "[]"


class TestRunSiftingPhase:
    def test_kinds(self):
        for kind in ("poison_pill", "heterogeneous", "naive"):
            run = run_sifting_phase(n=6, kind=kind, adversary="eager", seed=0, check=False)
            assert run.kind == kind
            assert 1 <= run.survivors <= 6

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm 'bogus' for task 'sift'"):
            run_sifting_phase(n=4, kind="bogus")

    def test_survivor_fraction(self):
        run = run_sifting_phase(n=6, kind="poison_pill", adversary="eager", seed=0)
        assert run.survivor_fraction == pytest.approx(run.survivors / 6)

    def test_bias_passthrough(self):
        run = run_sifting_phase(
            n=6, kind="poison_pill", adversary="eager", seed=0, bias=1.0
        )
        assert run.survivors == 6  # all flip high

    @pytest.mark.parametrize(
        "kind, bias",
        [("heterogeneous", 0.5), ("poison_pill", 2.0), ("naive", -0.1)],
    )
    def test_unusable_bias_rejected(self, kind, bias):
        # The heterogeneous coin bias comes from the view, and a
        # probability outside [0, 1] is not one: neither is ignored.
        with pytest.raises(ValueError, match="bias"):
            run_sifting_phase(n=4, kind=kind, bias=bias)


class TestRunRenaming:
    def test_returns_structured_run(self):
        run = run_renaming(n=5, adversary="eager", seed=0)
        assert run.algorithm == "paper"
        assert sorted(run.names.values()) == list(range(5))
        assert run.max_trials >= 1

    def test_linear_algorithm(self):
        run = run_renaming(n=5, algorithm="linear", adversary="eager", seed=0)
        assert sorted(run.names.values()) == list(range(5))

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_renaming(n=4, algorithm="bogus")

    def test_reproducible(self):
        first = run_renaming(n=5, adversary="random", seed=4)
        second = run_renaming(n=5, adversary="random", seed=4)
        assert first.names == second.names
        assert first.messages_total == second.messages_total
