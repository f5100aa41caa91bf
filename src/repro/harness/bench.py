"""Benchmark-baseline harness: measured sweeps with recorded trajectories.

Every performance claim in this repository should be *measured, not
asserted*.  This module runs the claim-table experiments under the
parallel sweep engine, records per-cell wall-clock, throughput, and
counter totals, and persists them as ``BENCH_<exp>.json`` files so a
future change can be compared against a recorded baseline::

    python -m repro bench --exp e1 --workers 4 --baseline --out bench/
    ...hack on the simulator...
    python -m repro bench --exp e1 --workers 4 --compare bench/BENCH_E1.json

Two properties make the numbers trustworthy:

* **Determinism** — each cell also records a *fingerprint*: a SHA-256
  over the per-run results (winners, survivor counts, message and call
  totals).  Fingerprints must match between serial and parallel runs of
  the same grid (``--check-serial`` asserts this) and between a baseline
  and a pure-performance change; a fingerprint drift means behaviour
  changed, not just speed.
* **Honest aggregation** — counter totals are folded from the runs' own
  :class:`~repro.sim.trace.Metrics` via
  :func:`~repro.harness.sweep.merged_metrics`, the same path the claim
  tables use.
"""

from __future__ import annotations

import hashlib
import json
import platform
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..obs.profile import Profiler
from ..sim.rng import derive_seed
from ..sim.trace import Metrics
from .runners import run_leader_election, run_sifting_phase
from .sweep import merged_metrics, repeat

#: Bumped when the BENCH_*.json schema changes incompatibly.
BENCH_FORMAT_VERSION = 1

#: Slowdown ratio beyond which a comparison flags a regression.
REGRESSION_TOLERANCE = 0.25

#: Absolute wall-clock excess (seconds) a cell must also show before it is
#: flagged: millisecond-scale cells jitter far beyond any relative
#: tolerance, so a regression must be both relatively and absolutely real.
REGRESSION_MIN_DELTA_S = 0.1


# ----------------------------------------------------------------------
# Experiment specs
# ----------------------------------------------------------------------

def _elect_time_runner(n: int, seed: int, profiler=None):
    return run_leader_election(n=n, algorithm="poison_pill",
                               adversary="random", seed=seed, profiler=profiler)


def _elect_messages_runner(n: int, seed: int, profiler=None):
    return run_leader_election(n=n, adversary="random", seed=seed,
                               profiler=profiler)


def _sift_survivors_runner(n: int, seed: int, profiler=None):
    return run_sifting_phase(n=n, kind="heterogeneous",
                             adversary="sequential", seed=seed, profiler=profiler)


@dataclass(slots=True)
class _MergedResult:
    """Adapter so a run *pair* exposes the ``.result.metrics`` shape."""

    metrics: Metrics


@dataclass(slots=True)
class LargeNSiftPair:
    """One E4 repetition: the same (n, seed) cell under both adversaries.

    The large-n experiment measures the simulator, not one scheduler, so
    each repetition runs the sequential attack *and* the oblivious
    scheduler back to back; counters are folded for the cell totals while
    the fingerprint keeps the two runs' digests separate (a behaviour
    change in either one must drift the cell).
    """

    sequential: Any
    oblivious: Any

    @property
    def result(self) -> _MergedResult:
        """Both runs' counters folded, shaped like a single Run's result."""
        metrics = merged_metrics((self.sequential, self.oblivious))
        assert metrics is not None
        return _MergedResult(metrics)


def _sift_large_n_runner(n: int, seed: int, profiler=None) -> LargeNSiftPair:
    common = dict(n=n, k=16, kind="heterogeneous", seed=seed, profiler=profiler)
    return LargeNSiftPair(
        sequential=run_sifting_phase(adversary="sequential", **common),
        oblivious=run_sifting_phase(adversary="oblivious", **common),
    )


def _elect_fingerprint(run) -> list:
    return [run.winner, run.rounds, run.max_comm_calls, run.messages_total]


def _sift_fingerprint(run) -> list:
    return [run.survivors, run.result.metrics.messages_total,
            run.result.metrics.max_comm_calls]


def _sift_pair_fingerprint(pair: LargeNSiftPair) -> list:
    return [_sift_fingerprint(pair.sequential), _sift_fingerprint(pair.oblivious)]


@dataclass(frozen=True, slots=True)
class BenchExperiment:
    """One benchmarkable experiment: a grid, a runner, a result digest.

    ``runner(n, seed, profiler=None)`` runs one repetition; a
    :class:`~repro.obs.profile.Profiler` passed to it times every run.
    """

    name: str
    title: str
    values: tuple[int, ...]
    values_full: tuple[int, ...]
    seed_base: int
    runner: Callable[[int, int], Any]
    fingerprint: Callable[[Any], list]

    def grid(self, full: bool = False) -> tuple[int, ...]:
        """The parameter grid: default fast values or the full sweep."""
        return self.values_full if full else self.values


#: The benchmarked experiments, keyed by their DESIGN.md claim id.  E1 and
#: E3 are the headline sweep-scaling grids; E2 is the message-heavy grid
#: the payload-sharing optimization targets.
EXPERIMENTS: dict[str, BenchExperiment] = {
    exp.name: exp
    for exp in (
        BenchExperiment(
            name="e1",
            title="leader election time (max communicate calls)",
            values=(8, 16, 32),
            values_full=(8, 16, 32, 64, 128),
            seed_base=10,
            runner=_elect_time_runner,
            fingerprint=_elect_fingerprint,
        ),
        BenchExperiment(
            name="e2",
            title="leader election message complexity (message-heavy)",
            values=(16, 32, 48),
            values_full=(16, 32, 64, 96),
            seed_base=20,
            runner=_elect_messages_runner,
            fingerprint=_elect_fingerprint,
        ),
        BenchExperiment(
            name="e3",
            title="sifting survivors under the sequential attack",
            values=(16, 32, 64),
            values_full=(16, 32, 64, 128),
            seed_base=30,
            runner=_sift_survivors_runner,
            fingerprint=_sift_fingerprint,
        ),
        BenchExperiment(
            name="e4",
            title="large-n sifting (sequential + oblivious, k=16)",
            values=(256, 1024, 4096, 16384),
            values_full=(256, 1024, 4096, 16384, 65536),
            seed_base=40,
            runner=_sift_large_n_runner,
            fingerprint=_sift_pair_fingerprint,
        ),
    )
}


def _experiment(exp: str) -> BenchExperiment:
    try:
        return EXPERIMENTS[exp]
    except KeyError:
        raise ValueError(
            f"unknown experiment {exp!r}; known: {sorted(EXPERIMENTS)}"
        ) from None


# ----------------------------------------------------------------------
# Measured results
# ----------------------------------------------------------------------

@dataclass(slots=True)
class BenchCell:
    """Measurements for one grid cell: timing plus folded counters."""

    param: int
    repeats: int
    wall_s: float
    runs_per_s: float
    messages_total: int
    steps: int
    deliveries: int
    events_executed: int
    max_comm_calls: int
    fingerprint: str

    def to_dict(self) -> dict[str, Any]:
        """The JSON object form stored inside a ``BENCH_*.json`` file."""
        return {
            "param": self.param,
            "repeats": self.repeats,
            "wall_s": self.wall_s,
            "runs_per_s": self.runs_per_s,
            "messages_total": self.messages_total,
            "steps": self.steps,
            "deliveries": self.deliveries,
            "events_executed": self.events_executed,
            "max_comm_calls": self.max_comm_calls,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_dict(cls, obj: dict[str, Any]) -> "BenchCell":
        """Rebuild a cell from its :meth:`to_dict` form."""
        return cls(**obj)


@dataclass(slots=True)
class BenchResult:
    """One recorded benchmark run of one experiment."""

    exp: str
    workers: int
    repeats: int
    grid: tuple[int, ...]
    wall_s_total: float
    cells: list[BenchCell]
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def fingerprints(self) -> dict[int, str]:
        """Per-cell result digests, keyed by grid value."""
        return {cell.param: cell.fingerprint for cell in self.cells}

    def to_dict(self) -> dict[str, Any]:
        """The JSON object written to ``BENCH_*.json``."""
        return {
            "version": BENCH_FORMAT_VERSION,
            "exp": self.exp,
            "workers": self.workers,
            "repeats": self.repeats,
            "grid": list(self.grid),
            "wall_s_total": self.wall_s_total,
            "cells": [cell.to_dict() for cell in self.cells],
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, obj: dict[str, Any]) -> "BenchResult":
        """Rebuild a result from its :meth:`to_dict` form."""
        return cls(
            exp=obj["exp"],
            workers=obj["workers"],
            repeats=obj["repeats"],
            grid=tuple(obj["grid"]),
            wall_s_total=obj["wall_s_total"],
            cells=[BenchCell.from_dict(cell) for cell in obj["cells"]],
            meta=obj.get("meta", {}),
        )

    def save(self, directory: str = ".") -> str:
        """Write ``BENCH_<EXP>.json`` into ``directory``; returns the path."""
        import os

        path = os.path.join(directory, f"BENCH_{self.exp.upper()}.json")
        os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(self.to_dict(), fp, indent=2, sort_keys=True)
            fp.write("\n")
        return path


def load_result(path: str) -> BenchResult:
    """Load a ``BENCH_*.json`` baseline written by :meth:`BenchResult.save`."""
    with open(path, "r", encoding="utf-8") as fp:
        obj = json.load(fp)
    if obj.get("version") != BENCH_FORMAT_VERSION:
        raise ValueError(
            f"{path}: bench format version {obj.get('version')!r}, "
            f"expected {BENCH_FORMAT_VERSION}"
        )
    return BenchResult.from_dict(obj)


def cell_fingerprint(experiment: BenchExperiment, runs: Sequence[Any]) -> str:
    """A stable digest of one cell's per-run results (order-sensitive)."""
    payload = json.dumps(
        [experiment.fingerprint(run) for run in runs],
        sort_keys=True, separators=(",", ":"), default=str,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def render_tables(directory: str = "bench") -> str:
    """Render every ``BENCH_*.json`` baseline in ``directory`` as text.

    The human-readable companion of the committed baselines: regenerated
    from the recorded JSON (never measured fresh), so the tables cannot
    drift from the numbers they summarize.  The CLI writes the result to
    ``<directory>/bench_tables.txt`` via ``repro bench --render-tables``.
    """
    import glob
    import os

    from .tables import Table

    paths = sorted(glob.glob(os.path.join(directory, "BENCH_*.json")))
    if not paths:
        raise ValueError(f"no BENCH_*.json baselines in {directory!r}")
    chunks: list[str] = []
    for path in paths:
        result = load_result(path)
        table = Table(
            f"{result.exp}: {result.meta.get('title', '')} "
            f"(workers={result.workers}, repeats={result.repeats})",
            ["n", "wall s", "runs/s", "messages", "max comm calls",
             "fingerprint"],
        )
        for cell in result.cells:
            table.add_row(
                cell.param,
                round(cell.wall_s, 3),
                round(cell.runs_per_s, 2),
                cell.messages_total,
                cell.max_comm_calls,
                cell.fingerprint,
            )
        table.add_note(f"total wall-clock {result.wall_s_total:.3f}s")
        profile = result.meta.get("profile")
        if profile:
            table.add_note(
                f"profiled n={profile['param']} ({profile['wall_s']:.3f}s); "
                "self time by span: " + ", ".join(
                    f"{span} {share:.0%}" for span, _, share in self_time(profile["rows"])
                )
            )
        chunks.append(table.render())
    return "\n\n".join(chunks) + "\n"


def self_time(rows: Sequence[dict[str, Any]]) -> list[tuple[str, int, float]]:
    """Per span name, summed over parents: calls and share of all self time.

    Folds :meth:`~repro.obs.profile.Profiler.rows` into
    ``(span, count, share)`` tuples, largest share first.
    """
    folded: dict[str, list[float]] = {}
    for row in rows:
        total = folded.setdefault(row["span"], [0, 0.0])
        total[0] += row["count"]
        total[1] += row["self_ms"]
    overall = sum(self_ms for _, self_ms in folded.values()) or 1.0
    return sorted(
        ((span, count, self_ms / overall) for span, (count, self_ms) in folded.items()),
        key=lambda entry: -entry[2],
    )


def profile_cell(exp: str, value: int | None = None) -> dict[str, Any]:
    """Run one repetition of one grid cell under a span :class:`Profiler`.

    Runs the experiment's runner once for ``value`` (default: the largest
    fast-grid value) with the same derived seed repetition 0 of a sweep
    would use, and returns a JSON-ready summary: the cell, its seed, the
    profiled wall-clock and the profiler's call-tree ``rows`` (count,
    inclusive and self milliseconds per ``(span, parent)``).  Embedded in
    baseline ``meta`` by ``--profile`` so a recorded number always carries
    the evidence of *where* the time went.
    """
    experiment = _experiment(exp)
    if value is None:
        value = experiment.values[-1]
    seed = derive_seed(experiment.seed_base, f"sweep/{value!r}/0")
    profiler = Profiler()
    start = time.perf_counter()
    experiment.runner(value, seed, profiler=profiler)
    wall = time.perf_counter() - start
    return {
        "param": value,
        "seed": seed,
        "wall_s": round(wall, 6),
        "rows": profiler.rows(),
    }


def run_experiment(
    exp: str,
    workers: int = 1,
    repeats: int = 3,
    full: bool = False,
    profile: bool = False,
) -> BenchResult:
    """Run one experiment's grid, timing each cell.

    Each cell's repetitions are fanned out over ``workers`` processes;
    the derived seeds (and therefore the fingerprints) are independent of
    ``workers``.  With ``profile=True`` the largest cell is additionally
    re-run once under :func:`profile_cell` (outside the timed loop) and
    its span rows are stored in ``meta["profile"]``.
    """
    experiment = _experiment(exp)
    grid = experiment.grid(full)
    cells: list[BenchCell] = []
    total_start = time.perf_counter()
    for value in grid:
        cell_start = time.perf_counter()
        runs = repeat(
            lambda seed, v=value: experiment.runner(v, seed),
            repeats=repeats,
            seed_base=experiment.seed_base,
            label=f"sweep/{value!r}",
            workers=workers,
        )
        wall = time.perf_counter() - cell_start
        metrics = merged_metrics(runs)
        assert metrics is not None
        cells.append(BenchCell(
            param=value,
            repeats=repeats,
            wall_s=wall,
            runs_per_s=repeats / wall if wall > 0 else float("inf"),
            messages_total=metrics.messages_total,
            steps=metrics.steps,
            deliveries=metrics.deliveries,
            events_executed=metrics.events_executed,
            max_comm_calls=metrics.max_comm_calls,
            fingerprint=cell_fingerprint(experiment, runs),
        ))
    meta: dict[str, Any] = {
        "title": experiment.title,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    if profile:
        meta["profile"] = profile_cell(exp, grid[-1])
    return BenchResult(
        exp=exp,
        workers=workers,
        repeats=repeats,
        grid=grid,
        wall_s_total=time.perf_counter() - total_start,
        cells=cells,
        meta=meta,
    )


# ----------------------------------------------------------------------
# Baseline comparison
# ----------------------------------------------------------------------

@dataclass(slots=True)
class CellComparison:
    """One cell of a baseline-vs-current comparison."""

    param: int
    baseline_wall_s: float
    current_wall_s: float
    speedup: float           # >1 means the current run is faster
    regression: bool
    drift: bool              # fingerprints differ: behaviour changed


@dataclass(slots=True)
class BenchComparison:
    """A full comparison of a current run against a recorded baseline."""

    exp: str
    cells: list[CellComparison]
    comparable: bool         # same grid/repeats, so drift checks apply
    notes: list[str]

    @property
    def regressions(self) -> list[CellComparison]:
        """Cells whose wall-clock worsened beyond the tolerance."""
        return [cell for cell in self.cells if cell.regression]

    @property
    def drifted(self) -> list[CellComparison]:
        """Cells whose result fingerprints changed — a behaviour change."""
        return [cell for cell in self.cells if cell.drift]

    @property
    def ok(self) -> bool:
        """True iff no cell regressed and no fingerprint drifted."""
        return not self.regressions and not self.drifted

    def describe(self) -> str:
        """Human-readable per-cell report with a final verdict line."""
        lines = [f"bench comparison [{self.exp}]:"]
        for cell in self.cells:
            status = "ok"
            if cell.drift:
                status = "DRIFT"
            elif cell.regression:
                status = "REGRESSION"
            lines.append(
                f"  n={cell.param:<6} baseline {cell.baseline_wall_s:8.3f}s"
                f"  current {cell.current_wall_s:8.3f}s"
                f"  speedup {cell.speedup:5.2f}x  [{status}]"
            )
        lines.extend(f"  note: {note}" for note in self.notes)
        verdict = "OK" if self.ok else (
            "BEHAVIOUR DRIFTED" if self.drifted else "REGRESSED"
        )
        lines.append(f"  verdict: {verdict}")
        return "\n".join(lines)


def compare_results(
    baseline: BenchResult,
    current: BenchResult,
    tolerance: float = REGRESSION_TOLERANCE,
    min_delta_s: float = REGRESSION_MIN_DELTA_S,
) -> BenchComparison:
    """Compare a current run against a baseline, flagging regressions.

    A cell regresses when its wall-clock exceeds the baseline's by more
    than ``tolerance`` relatively *and* ``min_delta_s`` absolutely (tiny
    cells jitter too much to judge by ratio alone).  Per-cell seeds are
    derived from ``(seed_base, value, i)`` independently of the
    surrounding grid, so whenever the repeat counts match, cell
    fingerprints are compared on every *common* grid value — extending a
    grid with new cells must not silence drift detection on the old
    ones.  Any difference is flagged as drift: a perf PR must not change
    behaviour.
    """
    if baseline.exp != current.exp:
        raise ValueError(
            f"cannot compare experiments {baseline.exp!r} and {current.exp!r}"
        )
    notes: list[str] = []
    comparable = baseline.repeats == current.repeats
    if not comparable:
        notes.append(
            "repeat counts differ from the baseline; fingerprint drift not checked"
        )
    elif baseline.grid != current.grid:
        notes.append(
            "grids differ from the baseline; drift checked on common cells, "
            "wall-clock totals not directly comparable"
        )
    if baseline.workers != current.workers:
        notes.append(
            f"worker counts differ (baseline {baseline.workers}, "
            f"current {current.workers}); wall-clock ratios mix scaling "
            "with per-run speed"
        )
    baseline_cells = {cell.param: cell for cell in baseline.cells}
    cells: list[CellComparison] = []
    for cell in current.cells:
        base = baseline_cells.get(cell.param)
        if base is None:
            continue
        speedup = base.wall_s / cell.wall_s if cell.wall_s > 0 else float("inf")
        cells.append(CellComparison(
            param=cell.param,
            baseline_wall_s=base.wall_s,
            current_wall_s=cell.wall_s,
            speedup=speedup,
            regression=(
                cell.wall_s > base.wall_s * (1.0 + tolerance)
                and cell.wall_s - base.wall_s > min_delta_s
            ),
            drift=comparable and cell.fingerprint != base.fingerprint,
        ))
    return BenchComparison(exp=current.exp, cells=cells,
                           comparable=comparable, notes=notes)


def verify_parallel_matches_serial(
    exp: str, workers: int, repeats: int = 3, full: bool = False,
    profile: bool = False,
) -> tuple[bool, BenchResult, BenchResult]:
    """Run ``exp`` serially and with ``workers``; compare fingerprints.

    Returns ``(match, serial_result, parallel_result)`` — the automated
    guarantee behind ``repro bench --check-serial`` and the CI smoke job.
    ``profile`` profiles the parallel run's largest cell, as in
    :func:`run_experiment`.
    """
    serial = run_experiment(exp, workers=1, repeats=repeats, full=full)
    parallel = run_experiment(exp, workers=workers, repeats=repeats, full=full,
                              profile=profile)
    return serial.fingerprints == parallel.fingerprints, serial, parallel
