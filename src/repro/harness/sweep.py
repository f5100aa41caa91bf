"""Parameter sweeps with seed fan-out and aggregation.

A sweep runs a measurement function over a grid of parameter values,
``repeats`` times per value with derived seeds, and aggregates each cell
into a :class:`~repro.analysis.stats.Summary`.  Benchmarks use sweeps for
every table: one row per parameter value, one column per measured metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generic, Hashable, Iterable, Mapping, Sequence, TypeVar

from ..analysis.stats import Summary, summarize
from ..sim.trace import Metrics

P = TypeVar("P", bound=Hashable)
R = TypeVar("R")


def merged_metrics(runs: Iterable[object]) -> Metrics | None:
    """Combine the :class:`~repro.sim.trace.Metrics` of several runs.

    Accepts the Run objects the harness produces (anything exposing
    ``.result.metrics``) or bare :class:`Metrics` instances, and folds
    them into one accumulator with :meth:`Metrics.merge` — the supported
    way for sweep workers to combine counters, instead of re-summing the
    per-kind dicts by hand.  Returns ``None`` for an empty run set.
    """
    accumulator: Metrics | None = None
    for run in runs:
        metrics = run if isinstance(run, Metrics) else run.result.metrics
        if accumulator is None:
            accumulator = Metrics(len(metrics.comm_calls_by))
        accumulator.merge(metrics)
    return accumulator


@dataclass(frozen=True, slots=True)
class SweepCell(Generic[P, R]):
    """All repetitions of one parameter value."""

    param: P
    runs: tuple[R, ...]

    def metric(self, extract: Callable[[R], float]) -> Summary:
        """Summarize one metric across the cell's repetitions."""
        return summarize(extract(run) for run in self.runs)

    def merged_metrics(self) -> Metrics | None:
        """The cell's runs' counters folded into one :class:`Metrics`."""
        return merged_metrics(self.runs)


def repeat(
    fn: Callable[[int], R],
    repeats: int,
    seed_base: int = 0,
    label: str = "repeat",
    workers: int = 1,
) -> list[R]:
    """Run ``fn(seed)`` with ``repeats`` independent derived seeds.

    ``workers > 1`` fans the repetitions out over forked worker processes
    (:func:`repro.harness.parallel.run_seeded_tasks`); ``workers=0``
    means all CPUs.  Seeds and result order do not depend on ``workers``.
    """
    from .parallel import repeat_seeds, run_seeded_tasks

    tasks = list(enumerate(repeat_seeds(repeats, seed_base, label)))
    return run_seeded_tasks(lambda _index, seed: fn(seed), tasks, workers=workers)


def sweep(
    values: Iterable[P],
    fn: Callable[[P, int], R],
    repeats: int = 5,
    seed_base: int = 0,
    workers: int = 1,
) -> list[SweepCell[P, R]]:
    """Run ``fn(value, seed)`` over the grid; returns one cell per value.

    Repetition ``i`` of ``value`` runs with seed
    ``derive_seed(seed_base, f"sweep/{value!r}/{i}")``.  ``workers > 1``
    flattens the whole grid into one task list over forked worker
    processes, so workers stay busy across cell boundaries, with
    bit-identical per-cell results (see :mod:`repro.harness.parallel` for
    the determinism argument); ``workers=0`` means all CPUs.
    """
    from .parallel import repeat_seeds, run_seeded_tasks

    grid = list(values)
    tasks = [
        (value_index * repeats + i, seed)
        for value_index, value in enumerate(grid)
        for i, seed in enumerate(repeat_seeds(repeats, seed_base, f"sweep/{value!r}"))
    ]
    results = run_seeded_tasks(
        lambda index, seed: fn(grid[index // repeats], seed), tasks, workers=workers
    )
    return [
        SweepCell(param=value, runs=tuple(results[index * repeats:(index + 1) * repeats]))
        for index, value in enumerate(grid)
    ]


def cell_table(
    cells: Sequence[SweepCell[P, R]],
    metrics: Mapping[str, Callable[[R], float]],
) -> list[dict[str, object]]:
    """Flatten sweep cells into row dicts: param plus one Summary per metric."""
    rows: list[dict[str, object]] = []
    for cell in cells:
        row: dict[str, object] = {"param": cell.param}
        for name, extract in metrics.items():
            row[name] = cell.metric(extract)
        rows.append(row)
    return rows
