"""Tests for streaming invariant checking (fail during the run).

Synthetic streams pin each streaming fold's trigger exactly; the
integration tests then attach a :class:`StreamingChecker` to live
simulations and verify the acceptance criterion: the naive sifter under
the coin-aware adversary is caught *before* the run completes, with the
offending event pinpointed, while correct protocols pass clean.  The
agreement tests pin that streaming and post-hoc checking are one
definition: over the same events they report the same invariants.
"""

from __future__ import annotations

import pytest

from repro.check.invariants import (
    INVARIANTS,
    PROTOCOLS,
    CheckContext,
    evaluate_run,
    invariants_for,
    run_protocol,
    stream_folds,
)
from repro.check.streaming import StreamingChecker, StreamingViolation
from repro.core.protocol import Outcome
from repro.harness.runners import (
    make_adversary,
    run_leader_election,
    run_sifting_phase,
)
from repro.obs.events import Event, EventType, ListSink, feed


def _decide(time, pid, result):
    """A synthetic proc.decide event carrying ``result``."""
    return Event(time, EventType.PROC_DECIDE, pid, {"result": result})


class TestRegistry:
    """Invariant metadata and task filtering."""

    def test_every_streamed_invariant_is_a_registry_fold(self):
        for task in ("elect", "sift", "rename", "serve"):
            folds = [
                inv.stream_name for inv in invariants_for(task) if inv.streams
            ]
            assert folds
            assert [name for name, _ in stream_folds(task)] == folds

    def test_filtering_by_task_and_name(self):
        elect = [name for name, _ in stream_folds("elect")]
        assert "unique_winner" in elect
        assert "no_false_death" not in elect
        only = stream_folds("sift", names=["no_false_death"])
        assert [name for name, _ in only] == ["no_false_death"]

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown streaming invariants"):
            stream_folds("elect", names=["nope"])


class TestMonitorsSynthetic:
    """Each streaming fold's exact trigger on hand-built streams."""

    def test_second_winner_raises_with_event_id(self):
        checker = StreamingChecker("elect")
        checker.emit(_decide(10, 3, "win"))
        checker.emit(_decide(11, 4, "lose"))
        with pytest.raises(StreamingViolation) as excinfo:
            checker.emit(_decide(12, 5, "win"))
        violation = excinfo.value
        assert violation.invariant == "unique_winner"
        assert violation.event_index == 2
        assert violation.event.pid == 5
        assert "event #2" in str(violation) and "t=12" in str(violation)

    def test_live_outcome_enums_are_normalized(self):
        checker = StreamingChecker("elect")
        checker.emit(_decide(1, 0, Outcome.WIN))
        with pytest.raises(StreamingViolation):
            checker.emit(_decide(2, 1, Outcome.WIN))

    def test_invalid_outcome_flagged_per_decision(self):
        checker = StreamingChecker("elect")
        with pytest.raises(StreamingViolation) as excinfo:
            checker.emit(_decide(1, 0, "survive"))
        assert excinfo.value.invariant == "valid_election_outcomes"

    def test_false_death_needs_a_high_sifter_coin(self):
        checker = StreamingChecker("sift", k=4)
        coin = Event(1, EventType.COIN_FLIP, 2,
                     {"label": "sift.coin", "value": 1})
        checker.emit(coin)
        with pytest.raises(StreamingViolation) as excinfo:
            checker.emit(_decide(2, 2, "die"))
        assert excinfo.value.invariant == "no_false_death"
        # A low coin dying is fine.
        clean = StreamingChecker("sift", k=4)
        clean.emit(Event(1, EventType.COIN_FLIP, 2,
                         {"label": "sift.coin", "value": 0}))
        clean.emit(_decide(2, 2, "die"))

    def test_duplicate_name_flagged(self):
        checker = StreamingChecker("rename")
        checker.emit(_decide(1, 0, 7))
        with pytest.raises(StreamingViolation) as excinfo:
            checker.emit(_decide(2, 3, 7))
        assert excinfo.value.invariant == "names_unique"

    def test_sifting_witness_fires_at_threshold(self):
        # k=10 -> threshold ceil(0.8 * 10) = 8 survivors.
        checker = StreamingChecker("sift", k=10,
                                   invariants=["sifting_witness"])
        for pid in range(7):
            checker.emit(_decide(pid, pid, "survive"))
        with pytest.raises(StreamingViolation) as excinfo:
            checker.emit(_decide(8, 8, "survive"))
        assert excinfo.value.invariant == "sifting_witness"
        assert excinfo.value.event_index == 7

    def test_sifting_witness_disarmed_by_crash_and_small_k(self):
        crashed = StreamingChecker("sift", k=10,
                                   invariants=["sifting_witness"])
        crashed.emit(Event(0, EventType.SCHED_CRASH, 9, {}))
        for pid in range(10):
            crashed.emit(_decide(pid, pid, "survive"))  # no raise
        small = StreamingChecker("sift", k=4,
                                 invariants=["sifting_witness"])
        for pid in range(4):
            small.emit(_decide(pid, pid, "survive"))  # below SIFTING_MIN_K

    def test_fail_fast_off_records_and_drops_monitor(self):
        checker = StreamingChecker("elect", fail_fast=False)
        feed([
            _decide(1, 0, "win"),
            _decide(2, 1, "win"),
            _decide(3, 2, "win"),  # fold already dropped: no new entry
        ], checker)
        assert len(checker.violations) == 1
        assert checker.events_checked == 3


class TestLiveRuns:
    """StreamingChecker attached to real simulations."""

    def test_correct_election_passes_clean(self):
        checker = StreamingChecker("elect")
        run = run_leader_election(
            n=16, adversary="random", seed=11, sink=checker,
        )
        assert run.winner is not None
        assert checker.violations == []
        assert checker.events_checked > 0

    def test_naive_sifter_caught_before_run_completes(self):
        # The acceptance criterion: the coin-aware adversary makes the
        # naive sifter keep everyone alive, and the witness fold must
        # fire mid-run — with participants still undecided — rather than
        # after the fact.
        checker = StreamingChecker("sift", k=16)
        with pytest.raises(StreamingViolation) as excinfo:
            run_sifting_phase(
                kind="naive", n=16, adversary="coin_aware", seed=3,
                sink=checker, check=False,
            )
        violation = excinfo.value
        assert violation.invariant == "sifting_witness"
        assert violation.event_index < checker.events_checked + 1

    def test_naive_sifter_violation_recorded_without_fail_fast(self):
        checker = StreamingChecker("sift", k=16, fail_fast=False)
        run = run_sifting_phase(
            kind="naive", n=16, adversary="coin_aware", seed=3,
            sink=checker, check=False,
        )
        names = [violation.invariant for violation in checker.violations]
        assert "sifting_witness" in names
        # The violation fired strictly before the stream ended.
        witness = checker.violations[0]
        assert witness.event_index < checker.events_checked - 1
        assert run.survivors > 0

    def test_paper_sifter_does_not_trip_the_witness(self):
        checker = StreamingChecker("sift", k=16, fail_fast=False)
        run_sifting_phase(
            kind="heterogeneous", n=16, adversary="coin_aware", seed=3,
            sink=checker, check=False,
        )
        assert checker.violations == []


def _decides(events):
    return [
        (event.time, event.pid, event.fields["result"]) for event in events
        if event.etype == EventType.PROC_DECIDE
    ]


class TestAgreement:
    """Streaming and post-hoc checking run the same folds, so they agree."""

    @pytest.mark.parametrize("adversary", ["random", "coin_aware"])
    @pytest.mark.parametrize("n", [8, 17])
    @pytest.mark.parametrize(
        "protocol",
        ["leader_election", "heterogeneous", "naive_sifter", "renaming"],
    )
    def test_stream_reports_what_post_hoc_reports(self, protocol, n, adversary):
        spec = PROTOCOLS[protocol]
        streamed = {inv.name for inv in invariants_for(spec.task) if inv.streams}
        for seed in range(3):
            sink = ListSink()
            run = run_protocol(
                spec, n, None, make_adversary(adversary, seed), seed, sink=sink,
            )
            post_hoc = {
                name for name, _ in evaluate_run(spec, run, sink.events)
                if name in streamed
            }
            ctx = CheckContext(spec, run, sink.events)
            if spec.task == "sift" and INVARIANTS["sifting_effective"].witness(ctx):
                post_hoc.add("sifting_witness")
            checker = StreamingChecker(spec.task, k=run.k, fail_fast=False)
            feed(sink.events, checker)
            stream = {v.invariant for v in checker.violations}
            assert stream == post_hoc, (protocol, n, adversary, seed)
            # Without a captured stream, the post-hoc driver rebuilds the
            # decide events from the decisions in the order they were emitted.
            rebuilt = CheckContext(spec, run).items()
            assert _decides(rebuilt) == _decides(sink.events)

    def test_corpus_contains_a_violation(self):
        # The naive sifter under coin_aware must show up on both sides,
        # or the agreement above is only ever agreement on silence.
        spec = PROTOCOLS["naive_sifter"]
        run = run_protocol(spec, 17, None, make_adversary("coin_aware", 0), 0)
        assert INVARIANTS["sifting_effective"].witness(CheckContext(spec, run))
