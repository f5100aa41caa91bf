"""Invariant registry tests: good protocols pass, broken ones are caught."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.linearizability import (
    READ,
    WRITE,
    RegisterOp,
    check_register_linearizable,
)
from repro.check.explore import explore
from repro.check.invariants import (
    CORE_PROTOCOLS,
    INVARIANTS,
    PROTOCOLS,
    CheckContext,
    invariants_for,
)
from repro.core.protocol import Outcome

#: Response time of an operation that never responded (crashed or
#: undecided); effectively "+infinity" for interval comparisons.
PENDING_TIME = 2**62


def fake_ctx(
    protocol: str,
    outcomes: dict[int, object],
    *,
    start_times: dict[int, int] | None = None,
    decide_times: dict[int, int] | None = None,
    crashed: frozenset[int] = frozenset(),
    undecided: frozenset[int] = frozenset(),
    terminated: bool = True,
    n: int | None = None,
):
    """A synthetic CheckContext for exercising run-scope checks directly."""
    start_times = start_times or {pid: pid + 1 for pid in outcomes}
    decide_times = decide_times or {pid: 100 + pid for pid in outcomes}
    decisions = {
        pid: SimpleNamespace(
            pid=pid,
            result=value,
            start_time=start_times[pid],
            decide_time=decide_times[pid],
        )
        for pid, value in outcomes.items()
    }
    result = SimpleNamespace(
        n=n if n is not None else max(len(outcomes), 1),
        decisions=decisions,
        crashed=crashed,
        undecided=undecided,
        terminated=terminated,
        start_times=dict(start_times),
    )
    run = SimpleNamespace(n=result.n, k=len(outcomes), result=result)
    return CheckContext(PROTOCOLS[protocol], run)


class TestRegistry:
    def test_core_protocols_are_registered_and_good(self):
        for name in CORE_PROTOCOLS:
            assert not PROTOCOLS[name].known_bad

    def test_naive_sifter_is_a_negative_control(self):
        assert PROTOCOLS["naive_sifter"].known_bad

    def test_unknown_invariant_name_raises(self):
        with pytest.raises(ValueError, match="unknown invariants"):
            invariants_for("sift", ["not_a_real_invariant"])

    def test_selection_filters_by_task(self):
        names = {inv.name for inv in invariants_for("elect")}
        assert "unique_winner" in names
        assert "at_least_one_survivor" not in names

    def test_every_invariant_cites_a_claim(self):
        for invariant in INVARIANTS.values():
            assert invariant.claim
            assert invariant.description


class TestRunScopeChecks:
    def test_unique_winner_flags_two_winners(self):
        ctx = fake_ctx(
            "leader_election", {0: Outcome.WIN, 1: Outcome.WIN, 2: Outcome.LOSE}
        )
        message = INVARIANTS["unique_winner"].check(ctx)
        assert message is not None and "[0, 1]" in message

    def test_unique_winner_accepts_single_winner(self):
        ctx = fake_ctx("leader_election", {0: Outcome.WIN, 1: Outcome.LOSE})
        assert INVARIANTS["unique_winner"].check(ctx) is None

    def test_winner_exists_flags_all_lose(self):
        ctx = fake_ctx("leader_election", {0: Outcome.LOSE, 1: Outcome.LOSE})
        assert INVARIANTS["winner_exists"].check(ctx) is not None

    def test_winner_exists_tolerates_crashed_winner(self):
        ctx = fake_ctx(
            "leader_election", {1: Outcome.LOSE}, crashed=frozenset({0})
        )
        assert INVARIANTS["winner_exists"].check(ctx) is None

    def test_linearizability_flags_early_loser(self):
        # The loser responded (t=2) before the winner even invoked (t=10):
        # no atomic test-and-set history can explain that LOSE.
        ctx = fake_ctx(
            "leader_election",
            {0: Outcome.WIN, 1: Outcome.LOSE},
            start_times={0: 10, 1: 1},
            decide_times={0: 20, 1: 2},
        )
        message = INVARIANTS["election_linearizable"].check(ctx)
        assert message is not None and "not linearizable" in message

    def test_linearizability_accepts_ordered_history(self):
        ctx = fake_ctx(
            "leader_election",
            {0: Outcome.WIN, 1: Outcome.LOSE},
            start_times={0: 1, 1: 2},
            decide_times={0: 5, 1: 9},
        )
        assert INVARIANTS["election_linearizable"].check(ctx) is None

    @settings(max_examples=100, deadline=None)
    @given(
        winner=st.tuples(st.integers(0, 40), st.integers(0, 40)).map(sorted),
        losers=st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 40)).map(sorted),
            max_size=6,
        ),
        pending=st.booleans(),
    )
    def test_linearizability_closed_form_matches_register_checker(
        self, winner, losers, pending
    ):
        # One WRITE of "won" (the winner, or a crashed pending invoker that
        # never responded) and a READ of "won" per LOSE: the closed-form
        # rule must accept exactly the histories the brute-force register
        # linearizability checker accepts.
        start, end = winner
        outcomes = {pid: Outcome.LOSE for pid in range(1, len(losers) + 1)}
        starts = {pid: interval[0] for pid, interval in zip(outcomes, losers)}
        decides = {pid: interval[1] for pid, interval in zip(outcomes, losers)}
        if not pending:
            outcomes[0] = Outcome.WIN
            decides[0] = end
        starts[0] = start
        ctx = fake_ctx(
            "leader_election", outcomes, start_times=starts,
            decide_times=decides,
            crashed=frozenset({0}) if pending else frozenset(),
        )
        ops = [RegisterOp(0, WRITE, "won", start, PENDING_TIME if pending else end)]
        ops += [
            RegisterOp(pid, READ, "won", starts[pid], decides[pid])
            for pid in range(1, len(losers) + 1)
        ]
        closed_form_ok = INVARIANTS["election_linearizable"].check(ctx) is None
        assert closed_form_ok == (check_register_linearizable(ops) is not None)

    def test_at_least_one_survivor_flags_total_wipeout(self):
        ctx = fake_ctx("poison_pill", {0: Outcome.DIE, 1: Outcome.DIE})
        assert INVARIANTS["at_least_one_survivor"].check(ctx) is not None

    def test_at_least_one_survivor_ignores_crashed_runs(self):
        ctx = fake_ctx(
            "poison_pill",
            {0: Outcome.DIE, 1: Outcome.DIE},
            crashed=frozenset({2}),
        )
        assert INVARIANTS["at_least_one_survivor"].check(ctx) is None

    def test_no_false_death_flags_dying_singleton(self):
        ctx = fake_ctx("poison_pill", {0: Outcome.DIE})
        assert INVARIANTS["no_false_death"].check(ctx) is not None

    def test_names_unique_flags_duplicates(self):
        ctx = fake_ctx("renaming", {0: 3, 1: 3, 2: 0}, n=4)
        message = INVARIANTS["names_unique"].check(ctx)
        assert message is not None and "duplicate" in message

    def test_names_in_range_flags_overflow(self):
        ctx = fake_ctx("renaming", {0: 0, 1: 7}, n=4)
        assert INVARIANTS["names_in_range"].check(ctx) is not None
        assert INVARIANTS["names_in_range"].check(
            fake_ctx("renaming", {0: 0, 1: 3}, n=4)
        ) is None

    @pytest.mark.parametrize(
        "invariant, protocol, outcomes, message",
        [
            (
                "valid_election_outcomes", "leader_election",
                {0: Outcome.WIN, 1: Outcome.SURVIVE},
                "outcomes outside ['win', 'lose']: "
                "p1=<Outcome.SURVIVE: 'survive'>",
            ),
            (
                "valid_sift_outcomes", "poison_pill",
                {0: Outcome.SURVIVE, 1: Outcome.WIN},
                "outcomes outside ['survive', 'die']: p1=<Outcome.WIN: 'win'>",
            ),
            (
                "unique_winner", "leader_election",
                {0: Outcome.WIN, 1: Outcome.WIN, 2: Outcome.LOSE},
                "multiple winners: [0, 1]",
            ),
            (
                "names_unique", "renaming", {0: 1, 1: 1, 2: 0},
                "duplicate names assigned: {1: [0, 1]}",
            ),
            (
                "no_false_death", "poison_pill", {0: Outcome.DIE},
                "the sole participant died",
            ),
        ],
    )
    def test_one_offender_message_text_is_stable(
        self, invariant, protocol, outcomes, message
    ):
        # `repro replay` compares an artifact's stored message
        # with the replayed one exactly, so this text must not drift.
        ctx = fake_ctx(protocol, outcomes)
        assert INVARIANTS[invariant].check(ctx) == message


class TestEndToEnd:
    """The checker must pass the real protocols and fail the broken one."""

    @pytest.mark.parametrize("protocol", CORE_PROTOCOLS)
    def test_core_protocols_pass_smoke_budget(self, protocol):
        report = explore(protocol, n=8, budget=12, seed=3, shrink=False)
        assert report.ok, report.describe()
        assert len(report.outcomes) == 12

    def test_naive_sifter_caught_by_ensemble_invariant(self):
        # Only the coin-aware adversary defeats the naive sifter; a pure
        # coin_aware batch keeps the test fast and deterministic.
        report = explore(
            "naive_sifter", n=8, budget=6, seed=0,
            adversaries=("coin_aware",), modes=("random",), shrink=False,
        )
        assert not report.ok
        violations = {record.invariant for record in report.violations}
        assert "sifting_effective" in violations
        record = report.violations[0]
        assert record.scope == "ensemble"
        assert "coin_aware" in record.message

    def test_real_sifters_survive_coin_aware_batch(self):
        # The same batch that kills the naive sifter must not flag the
        # paper's algorithms (the catch-22 of Section 1).
        for protocol in ("poison_pill", "heterogeneous"):
            report = explore(
                protocol, n=8, budget=6, seed=0,
                adversaries=("coin_aware",), modes=("random",), shrink=False,
            )
            assert report.ok, report.describe()
