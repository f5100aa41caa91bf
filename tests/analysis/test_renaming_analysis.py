"""Tests for the Section 4 execution analyzer — on synthetic pieces and
on real recorded renaming executions under many adversaries."""

from __future__ import annotations

import math

import pytest

from repro.adversary import CrashingAdversary
from repro.analysis.renaming_analysis import RenamingAnalysis, group_sizes
from repro.core import make_get_name
from repro.obs.events import ListSink, MultiSink
from repro.obs.jsonl import JsonlSink, iter_events
from repro.sim import Simulation

from ..conftest import ALL_ADVERSARY_NAMES, fresh_adversary


class TestGroupSizes:
    def test_power_of_two(self):
        assert group_sizes(8) == [4, 2, 1, 1]
        assert group_sizes(16) == [8, 4, 2, 1, 1]

    def test_non_power(self):
        assert sum(group_sizes(12)) == 12
        assert group_sizes(12)[0] == 6

    def test_single(self):
        assert group_sizes(1) == [1]

    def test_cover_exactly(self):
        for n in range(1, 40):
            assert sum(group_sizes(n)) == n


def analyzed_run(n, adversary_name, seed):
    sink = ListSink()
    sim = Simulation(
        n,
        {pid: make_get_name() for pid in range(n)},
        fresh_adversary(adversary_name, seed),
        seed=seed,
        sink=sink,
    )
    result = sim.run()
    return RenamingAnalysis.from_events(n, sink.events), result


class TestReconstruction:
    def test_requires_events(self):
        with pytest.raises(ValueError, match="event stream"):
            RenamingAnalysis.from_events(4, [])

    def test_every_name_reaches_quorum_crash_free(self):
        analysis, _ = analyzed_run(8, "random", 1)
        assert all(
            time != math.inf for time in analysis.quorum_times.values()
        )

    def test_order_is_permutation(self):
        analysis, _ = analyzed_run(8, "random", 2)
        assert sorted(analysis.order) == list(range(8))
        assert all(analysis.order[analysis.rank[u]] == u for u in range(8))

    def test_order_sorted_by_quorum_time(self):
        analysis, _ = analyzed_run(8, "random", 3)
        times = [analysis.quorum_times[u] for u in analysis.order]
        assert times == sorted(times)

    def test_iterations_recorded(self):
        analysis, result = analyzed_run(8, "random", 4)
        # Every participant logged at least its winning iteration.
        pids = {record.pid for record in analysis.iterations}
        assert pids == set(range(8))
        for record in analysis.iterations:
            if record.completed_pick:
                assert record.spot in range(8)
                assert record.start_clock <= record.pick_clock

    def test_winning_pick_matches_returned_name(self):
        analysis, result = analyzed_run(8, "sequential", 5)
        for pid, decision in result.decisions.items():
            last = max(
                (r for r in analysis.iterations if r.pid == pid and r.completed_pick),
                key=lambda r: r.index,
            )
            assert last.spot == decision.result

    def test_phase_ends_monotone(self):
        analysis, _ = analyzed_run(8, "random", 6)
        finite = [end for end in analysis.phase_ends if end != math.inf]
        assert finite == sorted(finite)


class TestFromTraceFile:
    """A recorded trace gives the analysis the live stream gives."""

    @pytest.mark.parametrize("n, name, seed, crashes", [
        (8, "random", 0, ()),
        (12, "quorum_split", 1, ()),
        (8, "coin_aware", 2, ()),
        (10, "random", 3, ((5, 0), (40, 9), (120, 4))),
    ])
    def test_file_fed_equals_live(self, tmp_path, n, name, seed, crashes):
        adversary = fresh_adversary(name, seed)
        if crashes:
            adversary = CrashingAdversary(adversary, crashes)
        path = str(tmp_path / "rename.jsonl")
        live, trace = ListSink(), JsonlSink(path)
        sim = Simulation(
            n,
            {pid: make_get_name() for pid in range(n)},
            adversary,
            seed=seed,
            sink=MultiSink(live, trace),
        )
        sim.run()
        trace.close()
        assert len(sim.crashed) == len(crashes)
        from_file = RenamingAnalysis.from_events(n, iter_events(path))
        assert from_file == RenamingAnalysis.from_events(n, live.events)
        from_file.check_all()


class TestSection4Structure:
    """The proofs' structural facts hold on real executions — for every
    adversary and a spread of seeds."""

    @pytest.mark.parametrize("name", ALL_ADVERSARY_NAMES)
    def test_all_checks_every_adversary(self, name):
        analysis, _ = analyzed_run(8, name, 7)
        analysis.check_all()

    @pytest.mark.parametrize("seed", range(8))
    def test_all_checks_many_seeds(self, seed):
        analysis, _ = analyzed_run(10, "random", seed)
        analysis.check_all()

    @pytest.mark.parametrize("seed", range(4))
    def test_all_checks_fragmented(self, seed):
        analysis, _ = analyzed_run(12, "quorum_split", seed)
        analysis.check_all()

    def test_sequential_all_iterations_clean(self):
        """Serialized processors always see fully current contention, so
        no iteration can be dirty and none can cross."""
        analysis, _ = analyzed_run(10, "sequential", 1)
        for record in analysis.iterations:
            if record.completed_pick:
                kind, _ = analysis.classify(record)
                assert kind == "clean"
                assert analysis.is_cross(record) is None

    def test_lemma_a9_bound_has_headroom(self):
        """The highest group's contender count is far below n."""
        analysis, _ = analyzed_run(16, "random", 9)
        top_group = max(analysis.group_of.values())
        contenders = {
            record.pid
            for record in analysis.iterations
            if record.spot is not None
            and analysis.group_of[record.spot] >= top_group
        }
        assert len(contenders) <= 16 / 2 ** (top_group - 1)
