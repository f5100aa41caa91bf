"""Command-line interface: run any experiment without writing code.

Examples::

    python -m repro elect  --n 32 --adversary random --seed 7
    python -m repro elect  --n 32 --algorithm tournament
    python -m repro sift   --n 64 --kind poison_pill --adversary sequential
    python -m repro rename --n 16 --algorithm paper --adversary quorum_split
    python -m repro sweep  --task elect --ns 4 8 16 32 --repeats 5 --workers 4
    python -m repro bench  --exp e1 --workers 4 --baseline --out bench/
    python -m repro bench  --exp e2 --compare bench/BENCH_E2.json
    python -m repro trace  --n 16 --adversary sequential --seed 7 --out run.jsonl
    python -m repro trace  --n 16 --out run.jsonl --snapshots live.jsonl
    python -m repro replay run.jsonl
    python -m repro report run.jsonl
    python -m repro report run.jsonl --critical-path
    python -m repro report run.jsonl --lineage 3
    python -m repro watch  live.jsonl
    python -m repro check  --protocol leader_election --budget 200 --workers 4
    python -m repro check  --protocol naive_sifter --budget 200 --out-dir artifacts/
    python -m repro replay artifacts/violation-....shrunk.json
    python -m repro replay soak-incident-rolling-seed0.json
    python -m repro net    --task elect --n 6 --seed 0
    python -m repro net    --task elect --n 6 --drop 0.15 --delay 0.3 --chaos-seed 1
    python -m repro serve  --port 7007 --duration 30
    python -m repro serve  --load --keys 1000 --drop 0.05 --telemetry svc.jsonl
"""

from __future__ import annotations

import argparse
import os
from typing import Sequence

from .adversary import ADVERSARY_FACTORIES
from .analysis.stats import summarize
from .analysis.theory import log_star
from .core.catalogue import TASKS, algorithms, protocol_for
from .errors import ReproError
from .harness.runners import run_leader_election, run_renaming, run_sifting_phase
from .harness.sweep import sweep
from .harness.tables import Table

ADVERSARIES = sorted(ADVERSARY_FACTORIES)

#: What a handler may raise for bad input or a failed run: one ``error:``
#: line and exit 2, never a traceback.  Each verb imports its own
#: subsystem, whose errors derive from :class:`~repro.errors.ReproError`.
RUNTIME_ERRORS = (OSError, ValueError, KeyError, ReproError)


def _run_flags(p: argparse.ArgumentParser, n: int = 16) -> None:
    """``--n/--k/--seed/--pattern``: the system and who participates."""
    p.add_argument("--n", type=int, default=n, help="system size")
    p.add_argument("--k", type=int, default=None, help="participants (default n)")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument(
        "--pattern", choices=("first", "last", "spread", "random"),
        default="first", help="which pids participate",
    )


def _workers_flag(p: argparse.ArgumentParser) -> None:
    """``--workers``: how many processes share the runs."""
    p.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = serial, 0 = all CPUs)",
    )


def _task_flags(p: argparse.ArgumentParser) -> None:
    """``--task/--algorithm``: which task runs, and with what algorithm."""
    p.add_argument("--task", choices=TASKS, default="elect")
    p.add_argument(
        "--algorithm", default=None,
        help="algorithm or sifter kind for the task (task default when omitted)",
    )


def _algorithm_flag(
    p: argparse.ArgumentParser, task: str, flag: str = "--algorithm"
) -> None:
    """``flag``: one of ``task``'s catalogue algorithms, its default when omitted."""
    p.add_argument(
        flag, choices=algorithms(task), default=protocol_for(task).algorithm
    )


def _socket_flags(p: argparse.ArgumentParser, timeout: float) -> None:
    """The flags ``repro net`` and ``repro serve`` share: chaos, telemetry, check."""
    p.add_argument(
        "--chaos", default=None, metavar="PLAN_JSON",
        help="fault-injection plan file (overrides --drop/--delay/--dup)",
    )
    p.add_argument(
        "--drop", type=float, default=0.0, help="per-frame drop probability"
    )
    p.add_argument(
        "--delay", type=float, default=0.0, help="per-frame delay probability"
    )
    p.add_argument(
        "--dup", type=float, default=0.0, help="per-frame duplicate probability"
    )
    p.add_argument(
        "--delay-ms", type=float, nargs=2, default=(1.0, 25.0),
        metavar=("LO", "HI"), help="uniform delay range when a frame is delayed",
    )
    p.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed of the fault plan's RNG streams",
    )
    p.add_argument(
        "--telemetry", default=None, metavar="OUT_JSONL",
        help=(
            "stream metrics snapshots (latency percentiles, retries, chaos "
            "counters) to this path; tail it with `repro watch`"
        ),
    )
    p.add_argument(
        "--telemetry-interval", type=float, default=0.5,
        help="seconds between telemetry snapshots",
    )
    p.add_argument(
        "--timeout", type=float, default=timeout,
        help="wall-clock budget for the run or load scenario (seconds)",
    )
    p.add_argument(
        "--no-check", dest="check", action="store_false", default=True,
        help="skip the repro.check invariant evaluation",
    )


def _bench_experiment(name: str) -> str:
    """``--exp`` type: a bench grid name (loads the bench only when given)."""
    from .harness.bench import EXPERIMENTS

    if name not in EXPERIMENTS:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} (choose from {', '.join(sorted(EXPERIMENTS))})"
        )
    return name


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse command tree for the repro CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'How to Elect a Leader Faster than a "
            "Tournament' (PODC 2015): leader election, sifting phases, "
            "and renaming in a simulated asynchronous system."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        _run_flags(p)
        p.add_argument("--adversary", choices=ADVERSARIES, default="random")

    elect = sub.add_parser("elect", help="run one leader election")
    common(elect)
    _algorithm_flag(elect, "elect")

    sift = sub.add_parser("sift", help="run one sifting phase")
    common(sift)
    _algorithm_flag(sift, "sift", "--kind")
    sift.add_argument("--bias", type=float, default=None)

    rename = sub.add_parser("rename", help="run one renaming execution")
    common(rename)
    _algorithm_flag(rename, "rename")

    sweep_p = sub.add_parser("sweep", help="sweep n and print a summary table")
    _task_flags(sweep_p)
    sweep_p.add_argument("--ns", type=int, nargs="+", default=[4, 8, 16, 32])
    sweep_p.add_argument("--repeats", type=int, default=3)
    sweep_p.add_argument("--adversary", choices=ADVERSARIES, default="random")
    sweep_p.add_argument("--seed", type=int, default=0)
    _workers_flag(sweep_p)

    bench_p = sub.add_parser(
        "bench",
        help="run a measured benchmark sweep; record or compare baselines",
    )
    bench_p.add_argument(
        "--exp", type=_bench_experiment, nargs="+", default=["e1"],
        help="experiment grids to run (DESIGN.md claim ids: e1, e2, ...)",
    )
    _workers_flag(bench_p)
    bench_p.add_argument("--repeats", type=int, default=3)
    bench_p.add_argument(
        "--full", action="store_true", help="use the larger EXPERIMENTS.md grids"
    )
    bench_p.add_argument(
        "--baseline", action="store_true",
        help="write BENCH_<EXP>.json baselines into --out",
    )
    bench_p.add_argument(
        "--out", default=".", help="directory for baseline files (default: cwd)"
    )
    bench_p.add_argument(
        "--compare", default=None, metavar="BENCH_JSON_OR_DIR",
        help=(
            "compare against a recorded baseline (a file, or a directory "
            "holding BENCH_<EXP>.json per experiment); exit 1 on "
            "regression/drift"
        ),
    )
    bench_p.add_argument(
        "--tolerance", type=float, default=None, metavar="FRAC",
        help=(
            "relative wall-clock slowdown tolerated before a cell counts "
            "as a regression (default: harness.bench.REGRESSION_TOLERANCE; "
            "raise on noisy CI runners — "
            "fingerprint drift is always fatal regardless)"
        ),
    )
    bench_p.add_argument(
        "--check-serial", action="store_true",
        help="also run serially and verify parallel results are identical",
    )
    bench_p.add_argument(
        "--profile", action="store_true",
        help=(
            "re-run the largest grid cell once under the span profiler and "
            "embed its call-tree rows in the baseline meta"
        ),
    )
    bench_p.add_argument(
        "--render-tables", action="store_true",
        help=(
            "skip the sweep; render the BENCH_*.json baselines in --out "
            "as <out>/bench_tables.txt"
        ),
    )

    trace_p = sub.add_parser(
        "trace", help="run one task and record its event stream to JSONL"
    )
    common(trace_p)
    _task_flags(trace_p)
    trace_p.add_argument(
        "--out", default="trace.jsonl", help="output trace path (JSONL)"
    )
    trace_p.add_argument(
        "--snapshots", default=None, metavar="OUT_JSONL",
        help="also stream per-round metrics snapshots to this path",
    )

    replay_p = sub.add_parser(
        "replay",
        help="re-verify a trace, a shrunk check violation or a soak incident",
    )
    replay_p.add_argument(
        "path", help="artifact file (exit 0 reproduced, 1 not, 2 unreadable)"
    )

    report_p = sub.add_parser(
        "report",
        help="print per-round survivor and message rollups of a recorded trace",
    )
    report_p.add_argument("trace", help="path of a recorded trace (JSONL)")
    report_p.add_argument(
        "--critical-path", action="store_true",
        help="add per-decision critical-path depths (happens-before analysis)",
    )
    report_p.add_argument(
        "--lineage", type=int, default=None, metavar="PID",
        help="print the message chain behind this processor's state",
    )

    watch_p = sub.add_parser(
        "watch",
        help=(
            "tail a live metrics snapshot stream (written by `repro net "
            "--telemetry` or `repro trace --snapshots`) and render a "
            "refreshing summary"
        ),
    )
    watch_p.add_argument("snapshots", help="path of a snapshot stream (JSONL)")
    watch_p.add_argument(
        "--interval", type=float, default=0.2,
        help="poll interval while following (seconds)",
    )
    watch_p.add_argument(
        "--timeout", type=float, default=30.0,
        help="give up if the stream stops growing for this long (seconds)",
    )
    watch_p.add_argument(
        "--no-follow", dest="follow", action="store_false", default=True,
        help="render what is on disk now and exit (no tailing)",
    )
    watch_p.add_argument(
        "--prometheus", action="store_true",
        help="print the last snapshot in Prometheus text format and exit",
    )

    from .check.explore import DEFAULT_ADVERSARIES, MODES
    from .check.invariants import INVARIANTS, PROTOCOLS

    check_p = sub.add_parser(
        "check",
        help=(
            "explore schedules of a protocol and check the paper's "
            "invariants; shrink and persist any violation"
        ),
    )
    check_p.add_argument(
        "--protocol", choices=sorted(PROTOCOLS), default="leader_election",
        help="protocol to check (includes known-bad negative controls)",
    )
    _run_flags(check_p)
    check_p.add_argument(
        "--budget", type=int, default=200, help="total executions to explore"
    )
    _workers_flag(check_p)
    check_p.add_argument(
        "--invariants", nargs="+", default=None, metavar="NAME",
        choices=sorted(INVARIANTS),
        help="restrict to these invariants (default: all for the task)",
    )
    check_p.add_argument(
        "--modes", nargs="+", default=list(MODES), choices=MODES,
        help="exploration modes to use",
    )
    check_p.add_argument(
        "--adversaries", nargs="+", default=list(DEFAULT_ADVERSARIES),
        choices=ADVERSARIES,
        help="scheduler registry names to rotate through",
    )
    check_p.add_argument(
        "--depth", type=int, default=4,
        help="systematic mode: max choice-prefix depth",
    )
    check_p.add_argument(
        "--branching", type=int, default=4,
        help="systematic mode: choices considered per decision point",
    )
    check_p.add_argument(
        "--no-shrink", dest="shrink", action="store_false",
        help="report violations without shrinking or writing artifacts",
    )
    check_p.add_argument(
        "--out-dir", default=".",
        help="directory for violation artifacts (default: cwd)",
    )

    net_p = sub.add_parser(
        "net",
        help=(
            "run the unchanged protocol over real localhost sockets "
            "(one OS process per node), optionally under fault injection"
        ),
    )
    _task_flags(net_p)
    _run_flags(net_p, n=6)
    _socket_flags(net_p, timeout=120.0)
    net_p.add_argument(
        "--trace", default=None, metavar="OUT_JSONL",
        help="merge all nodes' obs event streams into one JSONL trace",
    )
    net_p.add_argument(
        "--rpc-timeout", type=float, default=0.25,
        help="per-RPC timeout before a retry with backoff (seconds)",
    )

    serve_p = sub.add_parser(
        "serve",
        help=(
            "run the keyed election service (leases, epochs, failover) "
            "or its load scenario; exit 1 on invariant violation, 2 on "
            "runtime failure"
        ),
    )
    serve_p.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_p.add_argument(
        "--port", type=int, default=0,
        help="listen port (0 = pick a free one and print it)",
    )
    serve_p.add_argument("--seed", type=int, default=0, help="election seed")
    serve_p.add_argument(
        "--ttl", type=float, default=5000.0, metavar="MS",
        help="default lease TTL in milliseconds",
    )
    serve_p.add_argument(
        "--grace", type=float, default=0.25, metavar="FRAC",
        help="fraction of the TTL spent in the expiring grace window",
    )
    serve_p.add_argument(
        "--election", choices=("draw", "sim"), default="draw",
        help=(
            "how a contested handoff picks its winner: a seeded draw, or "
            "a full simulated leader election among the waiters"
        ),
    )
    serve_p.add_argument(
        "--duration", type=float, default=None, metavar="S",
        help="stop serving after this many seconds (default: until Ctrl-C)",
    )
    serve_p.add_argument(
        "--load", action="store_true",
        help="run the in-process load scenario instead of serving",
    )
    serve_p.add_argument(
        "--keys", type=int, default=1000,
        help="load: concurrent named elections",
    )
    serve_p.add_argument(
        "--contenders", type=int, default=3,
        help="load: logical clients contending per key",
    )
    serve_p.add_argument(
        "--rounds", type=int, default=2,
        help="load: acquire/hold/release cycles per contender",
    )
    serve_p.add_argument(
        "--sessions", type=int, default=8,
        help="load: TCP sessions the contenders multiplex over",
    )
    serve_p.add_argument(
        "--hold-ms", type=float, default=1.0,
        help="load: how long each grant is held before release",
    )
    serve_p.add_argument(
        "--crash-sessions", type=int, default=1,
        help="load: sessions aborted while holding leases (failover phase)",
    )
    _socket_flags(serve_p, timeout=300.0)

    soak_p = sub.add_parser(
        "soak",
        help=(
            "time-boxed chaos soak: the election service under a rolling "
            "phased fault plan, with mid-stream invariant gating, node "
            "kill/restart-and-recover, a mid-run service restart, and a "
            "replayable incident artifact on violation; exit 1 on "
            "violation, 2 on runtime failure"
        ),
    )
    soak_p.add_argument(
        "--duration", type=float, default=60.0, metavar="S",
        help="soak length in seconds (a violation ends it early)",
    )
    soak_p.add_argument("--seed", type=int, default=0, help="master seed")
    soak_p.add_argument(
        "--profile", default="rolling",
        help="chaos profile from the registry (see `repro soak --list-profiles`)",
    )
    soak_p.add_argument(
        "--list-profiles", action="store_true",
        help="list the chaos-profile registry and exit",
    )
    soak_p.add_argument(
        "--n", type=int, default=5,
        help="partition universe and net-episode election size",
    )
    soak_p.add_argument(
        "--keys", type=int, default=2, help="independent named elections"
    )
    soak_p.add_argument(
        "--contenders", type=int, default=3, help="sessions contending per key"
    )
    soak_p.add_argument(
        "--ttl", type=float, default=400.0, metavar="MS",
        help="lease TTL in milliseconds",
    )
    soak_p.add_argument(
        "--hold-ms", type=float, default=15.0,
        help="how long each grant is held before release",
    )
    soak_p.add_argument(
        "--kill-every", type=int, default=6, metavar="WINS",
        help=(
            "each contender aborts its session (no release) roughly every "
            "this many wins, then must restart-and-recover; 0 disables"
        ),
    )
    soak_p.add_argument(
        "--restart-service-at", type=float, default=0.5, metavar="FRAC",
        help=(
            "restart the whole service at this fraction of the duration, "
            "carrying its fencing namespace over; negative disables"
        ),
    )
    soak_p.add_argument(
        "--episode-every", type=float, default=None, metavar="S",
        help=(
            "every S seconds run a full `repro net` election under the "
            "chaos phase active at launch and stream its trace through "
            "the checker (default: off)"
        ),
    )
    soak_p.add_argument(
        "--out-dir", default=".",
        help="where episode traces and incident artifacts are written",
    )
    soak_p.add_argument(
        "--inject-violation", type=float, default=None, metavar="S",
        help=(
            "negative control: after S seconds forge a stale-epoch double "
            "grant that the mid-stream monitor must catch"
        ),
    )
    return parser


def _cmd_elect(args) -> int:
    run = run_leader_election(
        n=args.n, k=args.k, algorithm=args.algorithm,
        adversary=args.adversary, seed=args.seed, pattern=args.pattern,
    )
    print(f"winner:        processor {run.winner}")
    print(f"rounds:        {run.rounds} (log* k = {log_star(run.k)})")
    print(f"comm calls:    {run.max_comm_calls}")
    print(f"messages:      {run.messages_total:,}")
    return 0


def _cmd_sift(args) -> int:
    run = run_sifting_phase(
        n=args.n, k=args.k, kind=args.kind, adversary=args.adversary,
        seed=args.seed, pattern=args.pattern, bias=args.bias, check=False,
    )
    print(f"survivors:     {run.survivors} / {run.k} "
          f"({run.survivor_fraction:.0%})")
    print(f"messages:      {run.result.metrics.messages_total:,}")
    return 0


def _cmd_rename(args) -> int:
    run = run_renaming(
        n=args.n, k=args.k, algorithm=args.algorithm,
        adversary=args.adversary, seed=args.seed, pattern=args.pattern,
    )
    print(f"names:         {dict(sorted(run.names.items()))}")
    print(f"max trials:    {run.max_trials}")
    print(f"comm calls:    {run.max_comm_calls}")
    print(f"messages:      {run.messages_total:,}")
    return 0


def _cmd_sweep(args) -> int:
    algorithm = protocol_for(args.task, args.algorithm).algorithm
    if args.task == "elect":

        def runner(n, seed):
            return run_leader_election(
                n=n, algorithm=algorithm, adversary=args.adversary, seed=seed
            )

        metrics = {
            "comm calls": lambda run: run.max_comm_calls,
            "messages": lambda run: run.messages_total,
            "rounds": lambda run: run.rounds,
        }
    elif args.task == "sift":

        def runner(n, seed):
            return run_sifting_phase(
                n=n, kind=algorithm, adversary=args.adversary, seed=seed, check=False
            )

        metrics = {
            "survivors": lambda run: run.survivors,
            "messages": lambda run: run.result.metrics.messages_total,
        }
    else:

        def runner(n, seed):
            return run_renaming(
                n=n, algorithm=algorithm, adversary=args.adversary, seed=seed
            )

        metrics = {
            "trials": lambda run: run.max_trials,
            "comm calls": lambda run: run.max_comm_calls,
            "messages": lambda run: run.messages_total,
        }
    cells = sweep(
        args.ns, runner, repeats=args.repeats, seed_base=args.seed,
        workers=args.workers,
    )
    table = Table(
        f"{args.task} sweep (adversary={args.adversary}, repeats={args.repeats})",
        ["n", *metrics],
    )
    for cell in cells:
        row = [cell.param]
        for extract in metrics.values():
            row.append(summarize(extract(run) for run in cell.runs).mean)
        table.add_row(*row)
    print(table.render())
    return 0


def _cmd_bench(args) -> int:
    from .harness.bench import (
        REGRESSION_TOLERANCE,
        compare_results,
        load_result,
        render_tables,
        run_experiment,
        self_time,
        verify_parallel_matches_serial,
    )

    if args.render_tables:
        text = render_tables(args.out)
        path = os.path.join(args.out, "bench_tables.txt")
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(text)
        print(f"tables: {path}")
        return 0

    # Load every baseline before the sweep, so a bad --compare fails fast.
    baselines = {}
    if args.compare:
        for exp in args.exp:
            path = args.compare
            if os.path.isdir(path):
                path = os.path.join(path, f"BENCH_{exp.upper()}.json")
            baselines[exp] = load_result(path)
    exit_code = 0
    for exp in args.exp:
        if args.check_serial and args.workers != 1:
            match, serial, result = verify_parallel_matches_serial(
                exp, workers=args.workers, repeats=args.repeats, full=args.full,
                profile=args.profile,
            )
            verdict = "identical" if match else "MISMATCH"
            print(f"[{exp}] parallel (workers={args.workers}) vs serial: {verdict}")
            if not match:
                print(f"  serial fingerprints:   {serial.fingerprints}")
                print(f"  parallel fingerprints: {result.fingerprints}")
                exit_code = 1
        else:
            result = run_experiment(
                exp, workers=args.workers, repeats=args.repeats,
                full=args.full, profile=args.profile,
            )
        table = Table(
            f"{exp}: {result.meta.get('title', '')} "
            f"(workers={result.workers}, repeats={result.repeats})",
            ["n", "wall s", "runs/s", "messages", "max comm calls"],
        )
        for cell in result.cells:
            table.add_row(
                cell.param,
                round(cell.wall_s, 3),
                round(cell.runs_per_s, 2),
                cell.messages_total,
                cell.max_comm_calls,
            )
        table.add_note(f"total wall-clock {result.wall_s_total:.3f}s")
        print(table.render())
        profile_meta = result.meta.get("profile")
        if profile_meta:
            print(
                f"profile (n={profile_meta['param']}, "
                f"{profile_meta['wall_s']:.3f}s): self time by span"
            )
            for span, count, share in self_time(profile_meta["rows"]):
                print(f"  {share:6.1%}  {count:>10}  {span}")
        if args.baseline:
            path = result.save(args.out)
            print(f"baseline:      {path}")
        if exp in baselines:
            comparison = compare_results(
                baselines[exp], result,
                tolerance=REGRESSION_TOLERANCE if args.tolerance is None else args.tolerance,
            )
            print(comparison.describe())
            if not comparison.ok:
                exit_code = 1
    return exit_code


def _cmd_trace(args) -> int:
    from .obs.replay import record_trace, trace_meta

    config = dict(
        task=args.task, n=args.n, k=args.k, algorithm=args.algorithm,
        adversary=args.adversary, seed=args.seed, pattern=args.pattern,
    )
    telemetry = None
    if args.snapshots is not None:
        from .obs.live import LiveTelemetry, SnapshotWriter

        # Resolved before the writer opens the file: a run that cannot
        # start leaves no snapshot stream behind.
        meta = trace_meta(**config)
        writer = SnapshotWriter(args.snapshots, meta={
            "backend": "sim",
            **{key: meta[key] for key in ("task", "n", "k", "algorithm", "adversary", "seed")},
        })
        telemetry = LiveTelemetry(writer)
    try:
        recorded = record_trace(args.out, telemetry=telemetry, **config)
    finally:
        if telemetry is not None:
            telemetry.close()
    print(f"trace:         {recorded.path}")
    print(f"task:          {recorded.meta['task']} "
          f"(algorithm={recorded.meta['algorithm']})")
    print(f"events:        {recorded.events:,}")
    if args.snapshots is not None:
        print(f"snapshots:     {args.snapshots}")
    return 0


def _cmd_replay(args) -> int:
    from .obs.jsonl import read_artifact

    kind, _ = read_artifact(args.path)
    if kind == "trace":
        from .obs.replay import replay_trace as verify
    elif kind == "check-violation":
        from .check.shrink import replay_artifact as verify
    else:
        from .harness.soak import replay_incident as verify
    report = verify(args.path)
    print(report.describe())
    return 0 if report.ok else 1


def _cmd_report(args) -> int:
    from .obs.aggregate import TraceAggregator
    from .obs.causality import CausalReport, critical_path_report, lineage_report
    from .obs.events import feed
    from .obs.jsonl import iter_events

    aggregator, causal = TraceAggregator(), CausalReport()
    wants_causal = args.critical_path or args.lineage is not None
    feed(iter_events(args.trace), aggregator, *([causal] if wants_causal else []))
    print(aggregator.report(title=args.trace))
    if args.critical_path:
        print()
        print(critical_path_report(causal, title=args.trace))
    if args.lineage is not None:
        print()
        print(lineage_report(causal, args.lineage))
    return 0


def _cmd_watch(args) -> int:
    from .obs.live import (
        follow_snapshots,
        read_snapshots,
        render_snapshot,
        snapshot_to_prometheus,
    )

    if args.prometheus or not args.follow:
        meta, snapshots, ended = read_snapshots(args.snapshots)
        if not snapshots:
            raise ValueError(f"{args.snapshots}: no snapshots recorded yet")
        last = snapshots[-1]
        if args.prometheus:
            print(snapshot_to_prometheus(last["metrics"]), end="")
        else:
            print(render_snapshot(last, meta=meta))
            if not ended:
                print(
                    f"error: {args.snapshots}: stream has no end marker "
                    f"after seq={last.get('seq')} — the writer is still "
                    "running (tail it without --no-follow) or was "
                    "interrupted"
                )
                return 1
        return 0

    ended = False
    for obj in follow_snapshots(
        args.snapshots, poll_interval=args.interval, timeout=args.timeout
    ):
        if "meta" in obj:
            continue
        if "end" in obj:
            ended = True
            print(f"stream ended at clock={obj['end'].get('clock')}")
            break
        print(render_snapshot(obj))
        print()
    if not ended:
        print("warning: stream closed without an end marker (run interrupted?)")
        return 1
    return 0


def _cmd_check(args) -> int:
    from .check.explore import explore

    report = explore(
        args.protocol,
        n=args.n,
        k=args.k,
        budget=args.budget,
        seed=args.seed,
        workers=args.workers,
        invariants=args.invariants,
        adversaries=tuple(args.adversaries),
        modes=tuple(args.modes),
        branching=args.branching,
        depth=args.depth,
        pattern=args.pattern,
        shrink=args.shrink,
        out_dir=args.out_dir,
    )
    print(report.describe())
    return 0 if report.ok else 1


def _chaos_plan(args):
    """``(plan, summary)``: the chaos plan of ``repro net`` / ``repro serve``."""
    from .net import ChaosPlan, load_plan

    if args.chaos is not None:
        plan = load_plan(args.chaos)
    else:
        plan = ChaosPlan(
            seed=args.chaos_seed, drop=args.drop, delay=args.delay,
            delay_ms=tuple(args.delay_ms), duplicate=args.dup,
        )
    summary = "clean" if not plan.active else (
        f"drop={plan.drop} delay={plan.delay} dup={plan.duplicate} "
        f"partitions={len(plan.partitions)} seed={plan.seed}"
    )
    return plan, summary


def _cmd_net(args) -> int:
    from .net import run_net

    plan, chaos = _chaos_plan(args)
    run = run_net(
        task=args.task, algorithm=args.algorithm, n=args.n, k=args.k,
        pattern=args.pattern, seed=args.seed, plan=plan,
        rpc_timeout_s=args.rpc_timeout, deadline_s=args.timeout,
        trace_path=args.trace, check=args.check,
        telemetry_path=args.telemetry,
        telemetry_interval_s=args.telemetry_interval,
    )
    print(f"backend:       sockets ({run.n} node processes, "
          f"{run.k} participants)")
    print(f"chaos:         {chaos}")
    if run.task == "elect":
        winner = run.winner
        print("winner:        "
              + (f"processor {winner}" if winner is not None else "NONE"))
    elif run.task == "sift":
        print(f"survivors:     {run.survivors} / {run.k}")
    else:
        print(f"names:         {dict(sorted(run.names.items()))}")
    dropped = (f", {run.frames_dropped:,} dropped by chaos"
               if plan.active else "")
    print(f"frames:        {run.frames_sent:,} sent{dropped}")
    print(f"wall:          {run.wall_s:.2f}s")
    if run.trace_path:
        print(f"trace:         {run.trace_path}")
    if run.telemetry_path:
        print(f"telemetry:     {run.telemetry_path}")
    if args.check:
        if run.ok:
            print("invariants:    all hold")
        else:
            for name, message in run.violations:
                print(f"VIOLATION:     {name}: {message}")
            return 1
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .check.invariants import evaluate_service_run
    from .net.service import ElectionService, ServiceRun

    plan, chaos = _chaos_plan(args)
    if args.load:
        from .net.load import run_load

        report = run_load(
            keys=args.keys, contenders=args.contenders,
            rounds=args.rounds, sessions=args.sessions,
            ttl_ms=args.ttl, hold_ms=args.hold_ms,
            crash_sessions=args.crash_sessions, seed=args.seed,
            election=args.election, plan=plan,
            telemetry_path=args.telemetry,
            telemetry_interval_s=args.telemetry_interval,
            deadline_s=args.timeout,
        )
        print(f"chaos:         {chaos}")
        print(report.describe())
        if args.telemetry:
            print(f"telemetry:     {args.telemetry}")
        if args.check and not report.ok:
            return 1
        return 0

    async def _serve() -> ServiceRun:
        service = ElectionService(
            seed=args.seed, default_ttl_ms=args.ttl,
            grace_fraction=args.grace, election=args.election,
            plan=plan, telemetry_path=args.telemetry,
            telemetry_interval_s=args.telemetry_interval,
            host=args.host, port=args.port,
        )
        host, port = await service.start()
        print(f"serving:       {host}:{port} "
              f"(ttl={args.ttl:.0f}ms, election={args.election})")
        if args.telemetry:
            print(f"telemetry:     {args.telemetry}")
        try:
            await service.serve_forever(duration_s=args.duration)
        finally:
            run = ServiceRun.of(service)
            await service.stop()
        return run

    run = asyncio.run(_serve())
    print(f"grants:        {len(run.history):,}")
    if args.check:
        violations = evaluate_service_run(run)
        if violations:
            for name, message in violations:
                print(f"VIOLATION:     {name}: {message}")
            return 1
        print("invariants:    all hold")
    return 0


def _cmd_soak(args) -> int:
    from .harness.soak import run_soak
    from .net.chaos import CHAOS_PROFILES

    if args.list_profiles:
        for name in sorted(CHAOS_PROFILES):
            print(name)
        return 0
    restart_at = (
        None if args.restart_service_at is None or args.restart_service_at < 0
        else args.restart_service_at
    )
    report = run_soak(
        duration_s=args.duration, seed=args.seed, profile=args.profile,
        n=args.n, keys=args.keys, contenders=args.contenders,
        ttl_ms=args.ttl, hold_ms=args.hold_ms,
        kill_every=args.kill_every, restart_service_at=restart_at,
        episode_every_s=args.episode_every, out_dir=args.out_dir,
        inject_violation_at_s=args.inject_violation,
    )
    print(report.describe())
    return 0 if report.ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    A :data:`RUNTIME_ERRORS` error from any command prints one ``error:``
    line and exits 2; Ctrl-C exits 130.
    """
    args = build_parser().parse_args(argv)
    handlers = {
        "elect": _cmd_elect,
        "sift": _cmd_sift,
        "rename": _cmd_rename,
        "sweep": _cmd_sweep,
        "bench": _cmd_bench,
        "trace": _cmd_trace,
        "replay": _cmd_replay,
        "report": _cmd_report,
        "watch": _cmd_watch,
        "check": _cmd_check,
        "net": _cmd_net,
        "serve": _cmd_serve,
        "soak": _cmd_soak,
    }
    try:
        return handlers[args.command](args)
    except KeyboardInterrupt:
        return 130
    except RUNTIME_ERRORS as error:
        print(f"error: {error}")
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
