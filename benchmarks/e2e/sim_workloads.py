"""Simulator workloads of the end-to-end benchmark.

Each workload runs whole simulations through the public runners of
:mod:`repro.harness.runners` and checks every run two ways: the runner's
own specification checker, and the run's result digest against the one
committed in ``fingerprints.json``.  A workload simulates a small pool of
seeds whose digests are committed, always in the same order, so every run
does the same work and ``--seed`` does not change it (README.md,
"Inputs").

Times are read on a :class:`refclock.ReferenceClock`: this process's CPU
time at the speed of a fixed reference core.

Run as a script, this file is one set-up sample: in a fresh interpreter
it imports the runners and builds one ``Simulation``, and prints the
reference CPU seconds that took.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from itertools import cycle
from typing import Any

from recorder import SIM_WRAPPERS, Recorder, installed, totals
from refclock import ReferenceClock

HERE = os.path.dirname(os.path.abspath(__file__))
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUPS = 5

#: Layer metric name of each span the runtime opens around an action.
RUNTIME_SPANS = {
    "adversary.choose": "sim.adversary.choose",
    "execute.deliver": "sim.runtime.deliver",
    "execute.step": "sim.runtime.step",
}


@dataclasses.dataclass(frozen=True)
class SimWorkload:
    """One simulator workload: a task, its size, its adversary, its seeds."""

    task: str
    algorithm: str
    n: int
    k: int | None
    adversary: str
    digest: str  # which harness.bench experiment's result shape to digest
    pool: int  # simulation seeds 0..pool-1, each simulated in every run


#: Why each workload is here, and why its pool has the size it has: see
#: README.md, "Workloads".
SIM_WORKLOADS = {
    "sift-seq-16k": SimWorkload("sift", "heterogeneous", 16384, 16, "sequential", "e3", 2),
    "elect-random-256": SimWorkload("elect", "poison_pill", 256, None, "random", "e2", 4),
    "elect-coinaware-256": SimWorkload("elect", "poison_pill", 256, None, "coin_aware",
                                       "e2", 1),
}


def digest(spec: SimWorkload, run) -> str:
    """The run's ``cell_fingerprint`` in the ``e2``/``e3`` shape, plus its schedule.

    The schedule part (events executed, each decision's logical time)
    tells apart runs whose shape alone agrees, such as every seed of the
    ``coin_aware`` election.
    """
    from repro.harness.bench import EXPERIMENTS, cell_fingerprint

    experiment = EXPERIMENTS[spec.digest]

    def shape_and_schedule(run) -> list:
        result = run.result
        return [experiment.fingerprint(run), result.metrics.events_executed,
                sorted((d.pid, d.decide_time) for d in result.decisions.values())]

    return cell_fingerprint(
        dataclasses.replace(experiment, fingerprint=shape_and_schedule), [run])


def _run_once(name: str, sim_seed: int, clock: ReferenceClock,
              profiler=None) -> dict[str, Any]:
    """Build, run and check one simulation; time ``Simulation.run``."""
    from repro.harness.runners import (
        build_task_simulation,
        run_leader_election,
        run_sifting_phase,
    )

    spec = SIM_WORKLOADS[name]
    sim = build_task_simulation(
        spec.task, spec.algorithm, spec.n, spec.k,
        adversary=spec.adversary, seed=sim_seed, profiler=profiler,
    )
    timed = []
    sim_run = sim.run

    def timed_run(*args, **kwargs):
        began, began_wall = clock.now(), time.perf_counter()
        try:
            return sim_run(*args, **kwargs)
        finally:
            timed.append((clock.now() - began, time.perf_counter() - began_wall))

    sim.run = timed_run
    started = time.perf_counter()
    common = dict(n=spec.n, k=spec.k, adversary=spec.adversary,
                  seed=sim_seed, simulation=sim)
    if spec.task == "sift":
        run = run_sifting_phase(kind=spec.algorithm, **common)
    else:
        run = run_leader_election(algorithm=spec.algorithm, **common)
    metrics = run.result.metrics
    return {
        "seed": sim_seed,
        "run_s": timed[0][0],
        "run_wall_s": timed[0][1],
        "runner_wall_s": time.perf_counter() - started,
        "events": metrics.events_executed,
        "messages": metrics.messages_total,
        "cells_suppressed": sim.delta_stats["cells_suppressed"],
        "fingerprint": digest(spec, run),
    }


def load_fingerprints() -> dict[str, dict[str, str]]:
    """The committed result digests: workload -> pool seed -> digest."""
    with open(FINGERPRINTS, encoding="utf-8") as fp:
        return json.load(fp)


def _simulate(name: str, seeds: list[int], seconds: float, clock: ReferenceClock,
              log, profiler=None) -> tuple[list[dict[str, Any]], int]:
    """Simulate ``seeds`` once, then cycle through them while the next run fits.

    Returns the checked runs and the number of runs that failed (an
    exception from the runner or a digest that differs from the
    committed one).
    """
    expected = load_fingerprints().get(name, {})
    runs: list[dict[str, Any]] = []
    failed = 0
    began = time.perf_counter()
    for attempt, sim_seed in enumerate(cycle(seeds), 1):
        try:
            run = _run_once(name, sim_seed, clock, profiler)
        except Exception:  # a failed run is counted and reported, not fatal
            failed += 1
            log(f"  FAILED {name} seed {sim_seed}:\n{traceback.format_exc()}")
        else:
            want = expected.get(str(sim_seed))
            if run["fingerprint"] == want:
                runs.append(run)
            else:
                failed += 1
                log(f"  FAILED {name} seed {sim_seed}: digest "
                    f"{run['fingerprint']} != committed {want}")
        # A finished simulation is a web of reference cycles.  Freed now,
        # peak RSS is that of one simulation, not of however many the
        # collector had not yet reached (48 or 60 MB on elect-coinaware-256).
        gc.collect()
        now = time.perf_counter()
        if attempt >= len(seeds) and now + (now - began) / attempt > began + seconds:
            return runs, failed


def _pool(name: str) -> list[int]:
    return list(range(SIM_WORKLOADS[name].pool))


def _per_seed(runs: list[dict[str, Any]], key: str) -> dict[int, float]:
    """Median of ``key`` over each pool seed's runs."""
    by_seed: dict[int, list[float]] = defaultdict(list)
    for run in runs:
        by_seed[run["seed"]].append(run[key])
    return {seed: statistics.median(values) for seed, values in by_seed.items()}


def _setup_s(name: str) -> list[float]:
    """Reference CPU seconds of :data:`SETUPS` fresh-interpreter set-ups."""
    spec = SIM_WORKLOADS[name]
    argument = json.dumps([spec.task, spec.algorithm, spec.n, spec.k, spec.adversary])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, sys.path)))
    return [float(subprocess.run([sys.executable, os.path.abspath(__file__), argument],
                                 env=env, check=True, capture_output=True,
                                 text=True).stdout)
            for _ in range(SETUPS)]


def run_plain(name: str, seed: int, seconds: float, log) -> dict[str, Any]:
    """The measured run: end-to-end metrics, tracing off."""
    setups = _setup_s(name)
    with ReferenceClock() as clock:
        runs, failed = _simulate(name, _pool(name), seconds, clock, log)
    if len({run["seed"] for run in runs}) < SIM_WORKLOADS[name].pool:
        return {"attempted": len(runs) + failed, "failed": max(failed, 1), "values": {}}
    for run in runs:
        run["rate"] = run["events"] / run["run_s"]
        run["wall_rate"] = run["events"] / run["run_wall_s"]
    # Each pool seed counts once, however often it ran: every run then
    # weighs the same simulations the same.
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_cpu_s": statistics.fmean(_per_seed(runs, "rate").values()),
    }
    log(f"  runs: {len(runs)} (pool seeds {[r['seed'] for r in runs]}), "
        f"{sum(r['events'] for r in runs):,} events")
    log(f"  sim.events_per_s     {values['ops_per_cpu_s']:14.1f} 1/s  reference CPU "
        f"(wall clock: {statistics.fmean(_per_seed(runs, 'wall_rate').values()):.1f} 1/s)")
    log(f"  sim.run_p50_ms       "
        f"{statistics.median(r['runner_wall_s'] for r in runs) * 1e3:14.1f} ms  "
        f"(runner wall per run, {len(runs)} samples)")
    log(f"  sim.messages_per_run {statistics.fmean(r['messages'] for r in runs):14.1f}")
    log(f"  setup_s {values['setup_s']:.4f} s (median of {len(setups)}: "
        f"{', '.join(f'{s:.3f}' for s in setups)})")
    return {"attempted": len(runs) + failed, "failed": failed, "values": values}


def run_traced(name: str, seed: int, seconds: float, log) -> dict[str, Any]:
    """Half the time plain, then the pool once traced: per-layer metrics."""
    seeds = _pool(name)
    rec = Recorder()
    with ReferenceClock() as clock:
        plain, failed = _simulate(name, seeds, seconds / 2, clock, log)
        with installed(rec, SIM_WRAPPERS):
            traced, traced_failed = _simulate(name, seeds, 0.0, clock, log, profiler=rec)
    failed += traced_failed
    rows = rec.rows()
    if not plain or not traced:
        return {"attempted": len(plain) + len(traced) + failed,
                "failed": max(failed, 1), "values": {}, "rows": rows}
    plain_s = _per_seed(plain, "run_s")
    traced_s = sum(r["run_s"] for r in traced)
    traced_wall_ms = sum(r["run_wall_s"] for r in traced) * 1e3
    values: dict[str, float] = {
        "trace_overhead": traced_s / sum(plain_s[r["seed"]] for r in traced),
        "latency_p50_ms": statistics.median(r["runner_wall_s"] for r in plain) * 1e3,
        "latency_tail_ms": max(r["runner_wall_s"] for r in plain) * 1e3,
    }
    for span, total in totals(rows).items():
        layer = RUNTIME_SPANS.get(span, span)
        if layer.startswith("sim."):
            values[f"{layer}.self_pct"] = 100.0 * total["self_ms"] / traced_wall_ms
            values[f"{layer}.calls"] = total["count"] / len(traced)
    values["sim.delta.cells_suppressed"] = statistics.fmean(
        r["cells_suppressed"] for r in traced)
    values["sim.messages_per_run"] = statistics.fmean(r["messages"] for r in traced)
    log(f"  traced {len(traced)} runs after {len(plain)} plain ones; "
        f"trace_overhead {values['trace_overhead']:.3f}")
    return {"attempted": len(plain) + len(traced) + failed, "failed": failed,
            "values": values, "rows": rows}


def record_fingerprints(names, log) -> None:
    """Recompute every pool seed's digest and rewrite ``fingerprints.json``."""
    table = load_fingerprints() if os.path.exists(FINGERPRINTS) else {}
    with ReferenceClock() as clock:
        for name in names:
            table[name] = {}
            for sim_seed in _pool(name):
                run = _run_once(name, sim_seed, clock)
                table[name][str(sim_seed)] = run["fingerprint"]
                log(f"  {name} seed {sim_seed}: {run['fingerprint']}")
    with open(FINGERPRINTS, "w", encoding="utf-8") as fp:
        json.dump(dict(sorted(table.items())), fp, indent=2)
        fp.write("\n")


def _setup_sample(task: str, algorithm: str, n: int, k: int | None,
                  adversary: str) -> float:
    with ReferenceClock() as clock:
        from repro.harness.runners import build_task_simulation

        build_task_simulation(task, algorithm, n, k, adversary=adversary, seed=0)
        return clock.now()


if __name__ == "__main__":
    print(_setup_sample(*json.loads(sys.argv[1])))
