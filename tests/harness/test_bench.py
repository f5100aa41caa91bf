"""Tests for the benchmark-baseline harness (`repro.harness.bench`)."""

from __future__ import annotations

import copy
import json

import pytest

from repro.harness.bench import (
    BENCH_FORMAT_VERSION,
    EXPERIMENTS,
    compare_results,
    load_result,
    profile_cell,
    render_tables,
    run_experiment,
    self_time,
    verify_parallel_matches_serial,
)


def small_result(exp="e1", workers=1):
    """One fast measured run (repeats=1) used across the tests."""
    return run_experiment(exp, workers=workers, repeats=1)


class TestRunExperiment:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment("e99")

    def test_cells_cover_the_grid(self):
        result = small_result()
        assert result.exp == "e1"
        assert tuple(cell.param for cell in result.cells) == result.grid
        assert result.grid == EXPERIMENTS["e1"].grid(full=False)

    def test_cells_carry_measurements(self):
        result = small_result()
        for cell in result.cells:
            assert cell.wall_s > 0
            assert cell.runs_per_s > 0
            assert cell.messages_total > 0
            assert cell.max_comm_calls > 0
            assert len(cell.fingerprint) == 16

    def test_fingerprints_reproducible(self):
        first = small_result()
        second = small_result()
        assert first.fingerprints == second.fingerprints

    def test_full_grid_is_larger(self):
        assert len(EXPERIMENTS["e1"].grid(full=True)) > len(
            EXPERIMENTS["e1"].grid(full=False)
        )


class TestProfileCell:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            profile_cell("e99")

    def test_profile_shape(self):
        meta = profile_cell("e1", value=8)
        assert meta["param"] == 8
        assert meta["wall_s"] > 0
        assert set(meta) == {"param", "seed", "wall_s", "rows"}
        for row in meta["rows"]:
            assert set(row) == {"span", "parent", "count", "incl_ms", "self_ms"}
            assert row["count"] > 0
            assert 0 <= row["self_ms"] <= row["incl_ms"]
        # The simulator's own spans show up.
        spans = {row["span"] for row in meta["rows"]}
        assert {"adversary.choose", "execute.deliver", "execute.step"} <= spans
        json.dumps(meta)  # must be JSON-embeddable as baseline meta

    def test_run_experiment_embeds_profile(self):
        result = run_experiment("e1", repeats=1, profile=True)
        meta = result.meta["profile"]
        assert meta["param"] == EXPERIMENTS["e1"].grid(full=False)[-1]
        assert meta["rows"]
        # The profiled re-run must not pollute the measured cells.
        assert tuple(cell.param for cell in result.cells) == result.grid

    def test_render_tables_summarize_self_time(self, tmp_path):
        result = run_experiment("e1", repeats=1, profile=True)
        result.save(str(tmp_path))
        text = render_tables(str(tmp_path))
        assert f"profiled n={result.meta['profile']['param']}" in text
        assert "self time by span:" in text and "execute.deliver" in text
        shares = self_time(result.meta["profile"]["rows"])
        assert [share for _, _, share in shares] == sorted(
            (share for _, _, share in shares), reverse=True)
        assert sum(share for _, _, share in shares) == pytest.approx(1.0)


class TestBaselineFiles:
    def test_save_load_roundtrip(self, tmp_path):
        result = small_result()
        path = result.save(str(tmp_path))
        assert path.endswith("BENCH_E1.json")
        loaded = load_result(path)
        assert loaded.exp == result.exp
        assert loaded.grid == result.grid
        assert loaded.fingerprints == result.fingerprints
        assert [cell.to_dict() for cell in loaded.cells] == [
            cell.to_dict() for cell in result.cells
        ]

    def test_version_mismatch_rejected(self, tmp_path):
        result = small_result()
        path = result.save(str(tmp_path))
        with open(path) as fp:
            obj = json.load(fp)
        obj["version"] = BENCH_FORMAT_VERSION + 1
        with open(path, "w") as fp:
            json.dump(obj, fp)
        with pytest.raises(ValueError, match="bench format version"):
            load_result(path)


class TestComparison:
    def test_identical_runs_compare_ok(self):
        baseline = small_result()
        comparison = compare_results(baseline, small_result())
        assert comparison.comparable
        assert comparison.ok
        assert not comparison.regressions and not comparison.drifted
        assert "verdict: OK" in comparison.describe()

    def test_slowdown_flags_regression(self):
        baseline = small_result()
        current = copy.deepcopy(baseline)
        for cell in current.cells:
            cell.wall_s = cell.wall_s * 10 + 1.0  # beyond ratio AND delta floor
        comparison = compare_results(baseline, current)
        assert len(comparison.regressions) == len(current.cells)
        assert not comparison.ok
        assert "REGRESSION" in comparison.describe()

    def test_small_cell_jitter_not_flagged(self):
        baseline = small_result()
        current = copy.deepcopy(baseline)
        for base_cell, cell in zip(baseline.cells, current.cells):
            base_cell.wall_s = 0.01
            cell.wall_s = 0.05  # 5x slower relatively, but millisecond-scale
        comparison = compare_results(baseline, current)
        assert not comparison.regressions

    def test_fingerprint_drift_flagged(self):
        baseline = small_result()
        current = copy.deepcopy(baseline)
        current.cells[0].fingerprint = "0" * 16
        comparison = compare_results(baseline, current)
        assert comparison.drifted and not comparison.ok
        assert "DRIFT" in comparison.describe()

    def test_different_repeats_skip_drift_check(self):
        baseline = small_result()
        current = copy.deepcopy(baseline)
        current.repeats += 1
        current.cells[0].fingerprint = "0" * 16
        comparison = compare_results(baseline, current)
        assert not comparison.comparable
        assert not comparison.drifted  # drift not judged across configs

    def test_extended_grid_still_checks_common_cells(self):
        # Cell seeds are grid-independent, so growing the grid with new
        # values must not silence drift detection on the old cells.
        baseline = small_result()
        current = copy.deepcopy(baseline)
        extra = copy.deepcopy(current.cells[-1])
        extra.param = current.cells[-1].param * 2
        current.cells.append(extra)
        current.grid = tuple(cell.param for cell in current.cells)
        comparison = compare_results(baseline, current)
        assert comparison.comparable
        assert comparison.ok  # common cells match; the new cell is ignored
        assert len(comparison.cells) == len(baseline.cells)
        current.cells[0].fingerprint = "0" * 16
        drifted = compare_results(baseline, current)
        assert drifted.drifted and not drifted.ok

    def test_cross_experiment_comparison_rejected(self):
        baseline = small_result()
        other = copy.deepcopy(baseline)
        other.exp = "e3"
        with pytest.raises(ValueError, match="cannot compare"):
            compare_results(baseline, other)

    def test_speedup_ratio_direction(self):
        baseline = small_result()
        current = copy.deepcopy(baseline)
        for cell in current.cells:
            cell.wall_s = cell.wall_s / 2
        comparison = compare_results(baseline, current)
        assert all(cell.speedup > 1.5 for cell in comparison.cells)


class TestSerialParallelVerification:
    def test_parallel_matches_serial(self):
        match, serial, fanned = verify_parallel_matches_serial(
            "e1", workers=2, repeats=1
        )
        assert match
        assert serial.fingerprints == fanned.fingerprints
        assert serial.workers == 1 and fanned.workers == 2
        # The folded counters must agree exactly, not just the digests.
        for serial_cell, parallel_cell in zip(serial.cells, fanned.cells):
            assert serial_cell.messages_total == parallel_cell.messages_total
            assert serial_cell.steps == parallel_cell.steps
            assert serial_cell.max_comm_calls == parallel_cell.max_comm_calls
