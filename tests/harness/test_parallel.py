"""Tests for the process-parallel sweep engine behind ``sweep``/``repeat``.

The load-bearing property is *bit-identical determinism*: a sweep run
with ``workers=N`` must produce exactly the per-cell results of the
serial sweep — same derived seeds, same decisions, same counters — for
any N and any chunking.  Everything else (chunk shaping, fallbacks) is
plumbing around that guarantee.
"""

from __future__ import annotations

import pytest

from repro.harness import parallel
from repro.harness.parallel import (
    chunk_tasks,
    repeat_seeds,
    resolve_workers,
    run_seeded_tasks,
)
from repro.harness.runners import run_leader_election, run_sifting_phase
from repro.harness.sweep import SweepCell, repeat, sweep
from repro.sim.rng import derive_seed


def _elect(n, seed):
    return run_leader_election(n=n, adversary="random", seed=seed)


def _sift(n, seed):
    return run_sifting_phase(n=n, kind="heterogeneous",
                             adversary="sequential", seed=seed)


def _assert_cells_identical(serial_cells, parallel_cells):
    """Bit-identical per-cell results: params, seeds, decisions, metrics."""
    assert len(serial_cells) == len(parallel_cells)
    for expected, actual in zip(serial_cells, parallel_cells):
        assert expected.param == actual.param
        assert len(expected.runs) == len(actual.runs)
        for serial_run, parallel_run in zip(expected.runs, actual.runs):
            assert serial_run.seed == parallel_run.seed
            assert serial_run.result.outcomes == parallel_run.result.outcomes
            assert (serial_run.result.metrics.summary()
                    == parallel_run.result.metrics.summary())
            assert (serial_run.result.metrics.comm_calls_by
                    == parallel_run.result.metrics.comm_calls_by)


class TestTaskPlumbing:
    def test_chunks_cover_all_tasks_in_order(self):
        tasks = [(i, 100 + i) for i in range(10)]
        chunks = chunk_tasks(tasks, workers=3)
        flattened = [task for chunk in chunks for task in chunk]
        assert flattened == tasks

    def test_explicit_chunk_size(self):
        tasks = [(i, i) for i in range(7)]
        chunks = chunk_tasks(tasks, workers=2, chunk_size=3)
        assert [len(chunk) for chunk in chunks] == [3, 3, 1]

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            chunk_tasks([(0, 0)], workers=1, chunk_size=0)

    def test_results_land_in_task_order(self):
        tasks = [(index, seed) for index, seed in enumerate([9, 7, 5, 3])]
        results = run_seeded_tasks(lambda i, s: (i, s), tasks, workers=2)
        assert results == [(0, 9), (1, 7), (2, 5), (3, 3)]

    def test_resolve_workers(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(4) == 4
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) >= 1
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_repeat_seeds_match_serial_derivation(self):
        seeds = repeat_seeds(4, seed_base=7, label="sweep/16")
        assert seeds == [derive_seed(7, f"sweep/16/{i}") for i in range(4)]

    def test_zero_repeats_rejected(self):
        with pytest.raises(ValueError):
            repeat(lambda seed: seed, repeats=0, workers=2)


class TestParallelRepeat:
    def test_same_seeds_and_order_as_serial(self):
        serial = repeat(lambda seed: seed, repeats=6, seed_base=3)
        fanned = repeat(lambda seed: seed, repeats=6, seed_base=3, workers=3)
        assert fanned == serial

    def test_workers_via_repeat_api(self):
        serial = repeat(lambda seed: seed * 2, repeats=5, seed_base=1)
        fanned = repeat(lambda seed: seed * 2, repeats=5, seed_base=1, workers=2)
        assert fanned == serial


class TestParallelSweepDeterminism:
    """The acceptance property: workers=N equals serial, cell by cell."""

    def test_e1_grid_bit_identical(self):
        serial = sweep([4, 8, 16], _elect, repeats=3, seed_base=10)
        fanned = sweep([4, 8, 16], _elect, repeats=3, seed_base=10, workers=4)
        _assert_cells_identical(serial, fanned)
        # Leader election specifics: the elected winner must agree too.
        for expected, actual in zip(serial, fanned):
            assert ([run.winner for run in expected.runs]
                    == [run.winner for run in actual.runs])

    def test_e3_grid_bit_identical(self):
        serial = sweep([8, 16], _sift, repeats=3, seed_base=30)
        fanned = sweep([8, 16], _sift, repeats=3, seed_base=30, workers=4)
        _assert_cells_identical(serial, fanned)
        for expected, actual in zip(serial, fanned):
            assert ([run.survivors for run in expected.runs]
                    == [run.survivors for run in actual.runs])

    def test_seed_derivation_is_the_documented_formula(self):
        cells = sweep([8], _elect, repeats=3, seed_base=10, workers=2)
        for i, run in enumerate(cells[0].runs):
            assert run.seed == derive_seed(10, f"sweep/{8!r}/{i}")

    def test_chunking_does_not_change_results(self):
        tasks = list(enumerate(repeat_seeds(4, seed_base=5, label="sweep/8")))
        one_per_chunk = run_seeded_tasks(lambda _i, seed: _elect(8, seed), tasks,
                                         workers=2, chunk_size=1)
        one_big_chunk = run_seeded_tasks(lambda _i, seed: _elect(8, seed), tasks,
                                         workers=2, chunk_size=16)
        serial = sweep([8], _elect, repeats=4, seed_base=5)
        _assert_cells_identical(serial, [SweepCell(8, tuple(one_per_chunk))])
        _assert_cells_identical(serial, [SweepCell(8, tuple(one_big_chunk))])

    def test_merged_metrics_identical_across_paths(self):
        serial = sweep([8], _elect, repeats=3, seed_base=10)
        fanned = sweep([8], _elect, repeats=3, seed_base=10, workers=2)
        serial_merged = serial[0].merged_metrics()
        parallel_merged = fanned[0].merged_metrics()
        assert serial_merged is not None and parallel_merged is not None
        assert serial_merged.summary() == parallel_merged.summary()


class TestFallbacks:
    def test_serial_fallback_without_fork(self, monkeypatch):
        monkeypatch.setattr(parallel, "fork_available", lambda: False)
        serial = sweep([4, 8], _elect, repeats=2, seed_base=1)
        degraded = sweep([4, 8], _elect, repeats=2, seed_base=1, workers=4)
        _assert_cells_identical(serial, degraded)

    def test_workers_one_never_forks(self, monkeypatch):
        def boom(*args, **kwargs):  # pragma: no cover - should not run
            raise AssertionError("workers=1 must not create a process pool")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", boom)
        cells = sweep([4], _elect, repeats=2, seed_base=2, workers=1)
        assert len(cells[0].runs) == 2

    def test_single_task_stays_inline(self, monkeypatch):
        def boom(*args, **kwargs):  # pragma: no cover - should not run
            raise AssertionError("a single task must not create a process pool")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", boom)
        results = repeat(lambda seed: seed, repeats=1, workers=8)
        assert len(results) == 1
