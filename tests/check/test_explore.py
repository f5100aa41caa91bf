"""Explorer tests: planning, determinism, and parallel equivalence."""

from __future__ import annotations

import pytest

from repro.check.explore import (
    DEFAULT_ADVERSARIES,
    SystematicAdversary,
    TrialSpec,
    capture_run,
    choice_prefixes,
    explore,
    plan_trials,
)
from repro.check.invariants import PROTOCOLS
from repro.obs.replay import schedule_of


class TestPlanning:
    def test_budget_is_exact(self):
        for budget in (1, 2, 7, 50):
            trials = plan_trials(budget, seed=0)
            assert len(trials) == budget
            assert [trial.index for trial in trials] == list(range(budget))

    def test_random_mode_gets_half_when_mixed(self):
        trials = plan_trials(40, seed=0)
        by_mode = {}
        for trial in trials:
            by_mode[trial.mode] = by_mode.get(trial.mode, 0) + 1
        assert by_mode["random"] == 20
        assert by_mode["crash"] + by_mode["systematic"] == 20

    def test_single_mode_gets_everything(self):
        trials = plan_trials(10, seed=0, modes=("random",))
        assert all(trial.mode == "random" for trial in trials)
        assert len(trials) == 10

    def test_plan_is_deterministic(self):
        assert plan_trials(30, seed=5) == plan_trials(30, seed=5)
        assert plan_trials(30, seed=5) != plan_trials(30, seed=6)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown modes"):
            plan_trials(5, seed=0, modes=("chaos",))

    def test_unknown_adversary_rejected(self):
        with pytest.raises(ValueError, match="unknown adversaries"):
            plan_trials(5, seed=0, adversaries=("mystery",))

    def test_adversary_rotation_covers_registry(self):
        trials = plan_trials(
            len(DEFAULT_ADVERSARIES) * 2, seed=0, modes=("random",)
        )
        assert {t.adversary for t in trials} == set(DEFAULT_ADVERSARIES)


class TestChoicePrefixes:
    def test_breadth_first_counts(self):
        prefixes = list(choice_prefixes(branching=2, depth=3))
        # 1 + 2 + 4 + 8 prefixes at depths 0..3.
        assert len(prefixes) == 15
        assert prefixes[0] == ()
        assert prefixes[1:3] == [(0,), (1,)]

    def test_validation(self):
        with pytest.raises(ValueError):
            list(choice_prefixes(branching=0, depth=2))


class TestDeterminism:
    def test_trial_is_pure_function_of_spec(self):
        spec = PROTOCOLS["poison_pill"]
        trial = TrialSpec(index=0, mode="random", adversary="coin_aware", seed=11)
        schedules = []
        for _ in range(2):
            _, events = capture_run(spec, trial, 16, None)
            schedules.append(schedule_of(events))
        assert schedules[0] == schedules[1]

    @pytest.mark.parametrize("adversary", DEFAULT_ADVERSARIES)
    def test_every_explorer_adversary_is_reproducible(self, adversary):
        spec = PROTOCOLS["heterogeneous"]
        trial = TrialSpec(index=0, mode="random", adversary=adversary, seed=4)
        first = schedule_of(capture_run(spec, trial, 8, None)[1])
        second = schedule_of(capture_run(spec, trial, 8, None)[1])
        assert first == second

    def test_crash_trial_is_reproducible(self):
        spec = PROTOCOLS["leader_election"]
        trial = TrialSpec(
            index=0, mode="crash", adversary="random", seed=9, crash_rate=0.05
        )
        first = schedule_of(capture_run(spec, trial, 8, None)[1])
        second = schedule_of(capture_run(spec, trial, 8, None)[1])
        assert first == second
        assert any(entry["e"] == "sched.crash" for entry in first)

    def test_parallel_equals_serial(self):
        serial = explore("poison_pill", n=8, budget=10, seed=2, workers=1,
                         shrink=False)
        parallel = explore("poison_pill", n=8, budget=10, seed=2, workers=2,
                           shrink=False)
        assert [o.stats for o in serial.outcomes] == [
            o.stats for o in parallel.outcomes
        ]
        assert serial.ok == parallel.ok


class TestSystematicAdversary:
    def test_prefix_changes_schedule(self):
        spec = PROTOCOLS["poison_pill"]
        base = TrialSpec(
            index=0, mode="systematic", adversary="systematic", seed=1,
            choices=(),
        )
        twisted = TrialSpec(
            index=1, mode="systematic", adversary="systematic", seed=1,
            choices=(3, 1, 2, 0, 3, 1),
        )
        first = schedule_of(capture_run(spec, base, 8, None)[1])
        second = schedule_of(capture_run(spec, twisted, 8, None)[1])
        assert first != second

    def test_reuse_resets_cursor(self):
        adversary = SystematicAdversary((1, 0, 2))
        spec = PROTOCOLS["poison_pill"]
        from repro.check.invariants import run_protocol
        from repro.obs.events import ListSink

        digests = []
        for _ in range(2):
            sink = ListSink()
            run_protocol(spec, 8, None, adversary, 7, sink=sink)
            digests.append(schedule_of(sink.events))
        assert digests[0] == digests[1]

    def test_explore_systematic_mode_end_to_end(self):
        report = explore(
            "poison_pill", n=8, budget=12, seed=1,
            modes=("systematic",), shrink=False,
        )
        assert len(report.outcomes) == 12
        assert report.ok, report.describe()


class TestReportShape:
    def test_report_describe_mentions_modes_and_invariants(self):
        report = explore("renaming", n=6, budget=6, seed=1, shrink=False)
        text = report.describe()
        assert "renaming" in text
        assert "names_unique" in text
        assert "random=" in text
