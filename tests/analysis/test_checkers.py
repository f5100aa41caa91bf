"""The problem specifications on synthetic execution results.

Each case hands a hand-built result to the invariant registry
(:mod:`repro.check.invariants`) — the same folds the runners' ``check``
path and ``repro check`` use — and asserts which invariants it breaks.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.check.invariants import PROTOCOLS, CheckContext
from repro.core import Outcome
from repro.harness.runners import LeaderElectionReport
from repro.sim.runtime import Decision, SimulationResult
from repro.sim.trace import Metrics

from ..conftest import violated


def synthetic_result(
    n=4,
    outcomes=None,
    crashed=(),
    undecided=(),
    start_times=None,
    intervals=None,
):
    """Build a SimulationResult by hand.

    ``outcomes`` maps pid -> result; ``intervals`` optionally maps pid ->
    (start, decide).  Start times default to pid+1, decide times to 100+pid.
    """
    outcomes = outcomes or {}
    intervals = intervals or {}
    decisions = {}
    starts = dict(start_times or {})
    for pid, result in outcomes.items():
        start, decide = intervals.get(pid, (pid + 1, 100 + pid))
        decisions[pid] = Decision(
            pid=pid, result=result, start_time=start, decide_time=decide
        )
        starts.setdefault(pid, start)
    return SimulationResult(
        n=n,
        decisions=decisions,
        metrics=Metrics(n),
        undecided=frozenset(undecided),
        crashed=frozenset(crashed),
        start_times=starts,
    )


def survivors(result):
    """The registry's SURVIVE count for ``result``."""
    run = SimpleNamespace(n=result.n, k=result.n, result=result)
    return CheckContext(PROTOCOLS["poison_pill"], run).survivors


class TestLeaderElectionChecker:
    def test_accepts_single_winner(self):
        result = synthetic_result(
            outcomes={0: Outcome.WIN, 1: Outcome.LOSE, 2: Outcome.LOSE},
            intervals={0: (1, 50), 1: (2, 60), 2: (3, 70)},
        )
        assert violated("elect", result) == []
        report = LeaderElectionReport.of(result)
        assert report.winner == 0
        assert report.losers == (1, 2)

    def test_rejects_two_winners(self):
        result = synthetic_result(outcomes={0: Outcome.WIN, 1: Outcome.WIN})
        assert "unique_winner" in violated("elect", result)

    def test_rejects_all_losers_crash_free(self):
        result = synthetic_result(outcomes={0: Outcome.LOSE, 1: Outcome.LOSE})
        assert "winner_exists" in violated("elect", result)

    def test_rejects_stray_outcome(self):
        result = synthetic_result(outcomes={0: Outcome.SURVIVE})
        assert "valid_election_outcomes" in violated("elect", result)

    def test_rejects_lose_before_winner_invocation(self):
        result = synthetic_result(
            outcomes={0: Outcome.WIN, 1: Outcome.LOSE},
            intervals={0: (50, 90), 1: (1, 10)},  # loser finished before
        )
        assert "election_linearizable" in violated("elect", result)

    def test_accepts_crashed_pending_winner(self):
        result = synthetic_result(
            outcomes={1: Outcome.LOSE},
            crashed={0},
            start_times={0: 1},
            intervals={1: (2, 30)},
        )
        assert violated("elect", result) == []
        report = LeaderElectionReport.of(result)
        assert report.winner is None
        assert report.crashed == (0,)

    def test_rejects_losers_with_no_possible_winner(self):
        # Processor 0 crashed but only *after* the loser had already
        # returned... actually: crashed op started after the LOSE response,
        # so nothing can be linearized as the winner.
        result = synthetic_result(
            outcomes={1: Outcome.LOSE},
            crashed={0},
            start_times={0: 99},
            intervals={1: (2, 30)},
        )
        assert "election_linearizable" in violated("elect", result)

    def test_accepts_undecided_pending_winner(self):
        result = synthetic_result(
            outcomes={1: Outcome.LOSE},
            undecided={0},
            start_times={0: 1},
            intervals={1: (2, 30)},
        )
        # The pending invoker linearizes as the winner; only termination,
        # which a crash-free run owes, is left open.
        assert violated("elect", result) == ["election_terminates"]
        report = LeaderElectionReport.of(result)
        assert report.undecided == (0,)

    def test_accepts_empty_execution(self):
        result = synthetic_result()
        assert violated("elect", result) == []
        assert LeaderElectionReport.of(result).winner is None


class TestSiftingChecker:
    def test_accepts_mixed_outcomes(self):
        result = synthetic_result(
            outcomes={0: Outcome.SURVIVE, 1: Outcome.DIE, 2: Outcome.DIE}
        )
        assert violated("sift", result) == []
        assert survivors(result) == 1

    def test_rejects_zero_survivors(self):
        result = synthetic_result(outcomes={0: Outcome.DIE, 1: Outcome.DIE})
        assert "at_least_one_survivor" in violated("sift", result)

    def test_allows_zero_survivors_with_crashes(self):
        result = synthetic_result(outcomes={0: Outcome.DIE}, crashed={1})
        assert violated("sift", result) == []
        assert survivors(result) == 0

    def test_rejects_stray_outcome(self):
        result = synthetic_result(outcomes={0: Outcome.WIN})
        assert "valid_sift_outcomes" in violated("sift", result)

    def test_count_survivors(self):
        result = synthetic_result(
            outcomes={0: Outcome.SURVIVE, 1: Outcome.SURVIVE, 2: Outcome.DIE}
        )
        assert survivors(result) == 2


class TestRenamingChecker:
    def test_accepts_distinct_names(self):
        result = synthetic_result(outcomes={0: 2, 1: 0, 2: 3})
        assert violated("rename", result) == []
        assert result.outcomes == {0: 2, 1: 0, 2: 3}

    def test_rejects_duplicates(self):
        result = synthetic_result(outcomes={0: 1, 1: 1})
        assert "names_unique" in violated("rename", result)

    def test_rejects_out_of_range(self):
        result = synthetic_result(n=4, outcomes={0: 4})
        assert "names_in_range" in violated("rename", result)

    def test_rejects_negative(self):
        result = synthetic_result(n=4, outcomes={0: -1})
        assert "names_in_range" in violated("rename", result)

    def test_rejects_non_integer(self):
        result = synthetic_result(outcomes={0: "zero"})
        assert "names_in_range" in violated("rename", result)

    def test_rejects_crash_free_non_termination(self):
        result = synthetic_result(outcomes={0: 1}, undecided={1})
        assert "renaming_terminates" in violated("rename", result)

    def test_accepts_non_termination_with_crashes(self):
        # undecided + crashed: quorum loss can legally block termination
        result = synthetic_result(outcomes={0: 1}, undecided={1}, crashed={2, 3})
        assert violated("rename", result) == []
        assert result.outcomes == {0: 1}
