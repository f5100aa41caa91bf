"""Process-parallel execution of sweeps and repeats.

The sweep harness (:mod:`repro.harness.sweep`) hands every repetition of
every grid cell to :func:`run_seeded_tasks`, which runs them in one
process or fans them out over a
:class:`~concurrent.futures.ProcessPoolExecutor` while keeping the
results **bit-identical** to the serial path:

* Each repetition's seed is derived exactly as the serial path derives it
  — ``derive_seed(seed_base, "sweep/<value>/<i>")`` — so a run's entire
  random behaviour depends only on its own derived seed, never on which
  worker executed it or in what order.
* The simulator holds no process-global mutable state (message uids are
  per-:class:`~repro.sim.runtime.Simulation`), so executing runs in any
  partition across any number of processes yields the same per-run
  objects.

Workers are forked, not spawned: the measurement function — commonly a
closure or lambda over benchmark configuration — is stashed in a module
global *before* the pool starts and inherited by the children through
``fork``, so it never needs to be pickled.  Only the per-task
``(index, seed)`` pairs and the per-run results cross process boundaries.
Tasks are grouped into chunks to amortize that pickling.

When ``workers <= 1``, when the grid is trivially small, or when the
platform cannot fork (e.g. Windows), everything degrades gracefully to
the serial path — same seeds, same results, no subprocess machinery.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence, TypeVar

from ..sim.rng import derive_seed

R = TypeVar("R")

#: The measurement function inherited by forked workers.  Set by
#: :func:`run_seeded_tasks` immediately before the pool forks; ``fork``
#: children see the parent's memory, so closures and lambdas work without
#: being picklable.
_WORKER_FN: Callable[[int, int], object] | None = None


def fork_available() -> bool:
    """True iff this platform supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def default_workers() -> int:
    """The worker count ``workers=0``/``None`` resolves to (CPU count)."""
    return os.cpu_count() or 1


def resolve_workers(workers: int | None) -> int:
    """Normalize a ``workers`` argument: ``None``/``0`` means all CPUs."""
    if workers is None or workers == 0:
        return default_workers()
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


def chunk_tasks(tasks: Sequence[tuple[int, int]], workers: int,
                chunk_size: int | None = None) -> list[list[tuple[int, int]]]:
    """Split ``(index, seed)`` tasks into contiguous chunks for submission.

    The default aims at four chunks per worker — small enough to balance
    load when cells have uneven cost, large enough to amortize the
    executor's per-future pickling and IPC overhead.
    """
    if chunk_size is None:
        chunk_size = max(1, len(tasks) // (workers * 4) or 1)
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return [list(tasks[i:i + chunk_size]) for i in range(0, len(tasks), chunk_size)]


def _run_chunk(chunk: Sequence[tuple[int, int]]) -> list[tuple[int, object]]:
    """Worker-side: run the inherited measurement fn over one chunk."""
    fn = _WORKER_FN
    assert fn is not None, "worker forked before _WORKER_FN was set"
    return [(index, fn(index, seed)) for index, seed in chunk]


def run_seeded_tasks(
    fn: Callable[[int, int], R],
    tasks: Sequence[tuple[int, int]],
    workers: int | None = None,
    chunk_size: int | None = None,
) -> list[R]:
    """Execute ``fn(index, seed)`` for every task; results in task order.

    The engine of :func:`repro.harness.sweep.repeat` and
    :func:`repro.harness.sweep.sweep`.  Results land at the list position
    of their task regardless of which worker finished first, so callers
    observe exactly the serial ordering.
    """
    workers = resolve_workers(workers)
    if workers <= 1 or len(tasks) <= 1 or not fork_available():
        return [fn(index, seed) for index, seed in tasks]
    global _WORKER_FN
    results: list[R | None] = [None] * len(tasks)
    chunks = chunk_tasks(tasks, workers, chunk_size)
    _WORKER_FN = fn
    try:
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(
            max_workers=min(workers, len(chunks)), mp_context=context
        ) as pool:
            for chunk_result in pool.map(_run_chunk, chunks):
                for index, result in chunk_result:
                    results[index] = result
    finally:
        _WORKER_FN = None
    return results  # type: ignore[return-value]


def repeat_seeds(repeats: int, seed_base: int, label: str) -> list[int]:
    """The derived seeds of ``repeats`` repetitions labelled ``label``, in order."""
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    return [derive_seed(seed_base, f"{label}/{i}") for i in range(repeats)]
