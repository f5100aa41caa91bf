"""End-to-end benchmark of both engines: the simulator and the election service.

Run from the repository root::

    python benchmarks/e2e/run.py                          # all five workloads
    python benchmarks/e2e/run.py --workload svc-open --seed 3
    python benchmarks/e2e/run.py --trace                  # per-layer metrics
    python benchmarks/e2e/run.py --repeat 5               # medians, quartiles

Each workload run is one process: a single ``--workload`` without
``--repeat`` runs here, anything more starts this script once per run.
Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics`` (the ``end_to_end`` metrics of
``BENCHMARK.json``, or with ``--trace`` its ``per_layer`` metrics).
Exit code 0 means every output checked out, 1 a correctness failure and
2 that the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import sim_workloads  # noqa: E402
import svc_workloads  # noqa: E402

WORKLOADS = (*sim_workloads.SIM_WORKLOADS, "svc-open", "svc-contended")


def load_spec() -> dict:
    """``BENCHMARK.json``: the metric names, units, directions and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        return json.load(fp)


def _log(line: str) -> None:
    print(line, flush=True)


def run_one(name: str, seed: int, seconds: float, trace: bool, out: str,
            spec: dict) -> dict:
    """Run one workload in this process; return its result line."""
    _log(f"== {name}  seed={seed}  seconds={seconds:g}  {'traced' if trace else 'plain'}")
    module = sim_workloads if name in sim_workloads.SIM_WORKLOADS else svc_workloads
    result = (module.run_traced if trace else module.run_plain)(name, seed, seconds, _log)
    values = result["values"]
    if not trace and module is sim_workloads and values:
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {}
    for metric in spec["per_layer" if trace else "end_to_end"]:
        # A layer this workload never enters reports zero.
        value = values.get(metric["name"], 0.0 if trace else None)
        if value is not None:
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
            _log(f"  {metric['name']:<34} {value:>16.4f} {metric['unit']}")
    failed = result["failed"]
    if len(metrics) < len(spec["per_layer" if trace else "end_to_end"]):
        _log("  FAILED: no complete run, metrics missing")
        failed = max(failed, 1)
    if trace:
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, f"trace-{name}.json")
        with open(path, "w", encoding="utf-8") as fp:
            json.dump({"workload": name, "seed": seed, "seconds": seconds,
                       "spans": result["rows"], "metrics": metrics,
                       "measured": values}, fp, indent=1)
        _log(f"  trace written to {path}")
    return {"correct": failed == 0, "attempted": result["attempted"],
            "failed": failed, "metrics": metrics}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_many(names: list[str], args, spec: dict) -> int:
    """Each run in a fresh process; with ``--repeat`` print medians and spreads."""
    section = spec["per_layer" if args.trace else "end_to_end"]
    samples: dict[tuple[str, str], list[float]] = {}
    attempted = failed = 0
    broken = False
    for name in names:
        for offset in range(args.repeat):
            command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                       "--seed", str(args.seed + offset), "--seconds", repr(args.seconds),
                       "--trace", str(int(args.trace)), "--out", args.out]
            child = subprocess.run(command, capture_output=True, text=True, timeout=900)
            lines = child.stdout.splitlines()
            try:
                line = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                line = None
            if line is None or child.returncode not in (0, 1):
                broken = True
                _log(f"== {name} seed={args.seed + offset}: exit {child.returncode}")
                _log(child.stderr.rstrip())
                continue
            if args.repeat == 1:
                _log("\n".join(lines[:-1]))
            else:
                _log(f"== {name} seed={args.seed + offset}: correct={line['correct']} "
                     + " ".join(f"{key}={item['value']:.4g}"
                                for key, item in line["metrics"].items()))
            attempted += line["attempted"]
            failed += line["failed"]
            for key, item in line["metrics"].items():
                samples.setdefault((name, key), []).append(item["value"])
    metrics = {}
    if args.repeat > 1:
        _log(f"== medians over {args.repeat} runs [q1, q3]; "
             "! = interquartile spread above half the bound")
    for name in names:
        for metric in section:
            values = samples.get((name, metric["name"]))
            if not values:
                continue
            q1, median, q3 = _quartiles(values)
            metrics[f"{name}/{metric['name']}"] = {"value": median, "unit": metric["unit"]}
            if args.repeat > 1:
                spread = (q3 - q1) / median if median else 0.0
                flag = "!" if spread > metric.get("bound", float("inf")) / 2 else " "
                _log(f" {flag}{name:<20} {metric['name']:<34} {median:>14.4f} "
                     f"[{q1:.4f}, {q3:.4f}] {metric['unit']}  n={len(values)} "
                     f"spread {spread:.1%}")
    print(json.dumps({"correct": failed == 0 and not broken, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    if broken:
        return 2
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="per-layer metrics from a traced re-run")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds SEED..SEED+K-1")
    parser.add_argument("--out", default=os.path.join(ROOT, "e2e-artifacts"),
                        help="directory for trace-<workload>.json")
    parser.add_argument("--record-fingerprints", action="store_true",
                        help="recompute the committed simulator result digests")
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.seconds <= 0:
        parser.error("--repeat and --seconds must be positive")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no repro package in {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    if args.record_fingerprints:
        sim_workloads.record_fingerprints(
            [name for name in names if name in sim_workloads.SIM_WORKLOADS], _log)
        return 0
    if len(names) == 1 and args.repeat == 1:
        line = run_one(names[0], args.seed, args.seconds, bool(args.trace), args.out, spec)
        print(json.dumps(line))
        return 0 if line["correct"] else 1
    return run_many(names, args, spec)


if __name__ == "__main__":
    sys.exit(main())
