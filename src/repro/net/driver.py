"""Launch, orchestrate, and check one run over real localhost sockets.

The driver is the control plane: it binds a control port, spawns ``n``
node processes (one OS process per processor), waits for every node's
HELLO (carrying the ephemeral data port it bound), broadcasts START with
the full port map, collects the participants' decision RESULTs, then
broadcasts SHUTDOWN and folds the final transport stats.

The outcome is assembled into a genuine
:class:`~repro.sim.runtime.SimulationResult` — decisions with globally
comparable invocation/response timestamps (``CLOCK_MONOTONIC`` is
system-wide on Linux), per-processor communicate-call and message
counters — so the **existing** :mod:`repro.check` run-invariants
(unique winner, linearizability, termination, valid outcomes, ...)
evaluate a socket run exactly as they evaluate a simulated one.

When tracing is enabled, every node streams its structured events
(:mod:`repro.obs` schema plus ``net.*`` transport events) to a per-node
JSONL file; the driver merges them into one time-sorted trace with a
meta header describing the run and the chaos plan.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..core.catalogue import protocol_for
from ..core.protocol import Outcome
from ..errors import ReproError
from ..harness.workloads import choose_participants
from ..obs.jsonl import TRACE_FORMAT_VERSION, iter_events, write_events
from ..obs.live import SnapshotWriter
from ..obs.metrics import merge_snapshots
from ..sim.messages import MessageKind
from ..sim.runtime import Decision, SimulationResult
from ..sim.trace import Metrics
from .chaos import CLEAN_PLAN, ChaosPlan
from .node import DRIVER_PID, NodeRuntime
from .wire import Frame, FrameType, read_frame, write_frame

#: Default wall-clock budget for a whole run, HELLO to SHUTDOWN (seconds).
DEFAULT_DEADLINE_S = 120.0

#: How long the driver waits for final stats frames after SHUTDOWN.
FINAL_STATS_TIMEOUT_S = 5.0

#: Wire frame kinds folded into the per-kind message counters.
_KIND_BY_FRAME = {
    FrameType.PROPAGATE: MessageKind.PROPAGATE,
    FrameType.COLLECT: MessageKind.COLLECT,
    FrameType.ACK: MessageKind.ACK,
    FrameType.COLLECT_REPLY: MessageKind.COLLECT_REPLY,
}


class NetError(ReproError, RuntimeError):
    """A socket run failed to complete: timeout, node crash, or protocol error."""


# ---------------------------------------------------------------------------
# Node child process entry
# ---------------------------------------------------------------------------


def _node_entry(config_json: str) -> None:
    """Entry point of one spawned node process.

    Takes the whole configuration as a JSON string so the ``spawn``
    start method has nothing to pickle beyond one flat value.
    """
    import asyncio

    config = json.loads(config_json)
    factory = None
    if config["participant"]:
        factory = protocol_for(config["task"], config["algorithm"]).make()
    node = NodeRuntime(
        pid=config["pid"],
        n=config["n"],
        seed=config["seed"],
        driver_port=config["driver_port"],
        factory=factory,
        plan=ChaosPlan.from_obj(config["plan"]),
        rpc_timeout_s=config["rpc_timeout_s"],
        trace_path=config["trace_path"],
        telemetry_interval_s=config.get("telemetry_interval_s"),
    )
    asyncio.run(node.run())


# ---------------------------------------------------------------------------
# The run result
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class NetRun:
    """One completed socket-backend execution, checked and summarized.

    Mirrors the harness Run objects closely enough that
    :class:`repro.check.invariants.CheckContext` accepts it unchanged:
    it exposes ``n``, ``k``, and ``result`` (a real
    :class:`~repro.sim.runtime.SimulationResult`).
    """

    n: int
    k: int
    task: str
    algorithm: str
    seed: int
    plan: ChaosPlan
    result: SimulationResult
    violations: list[tuple[str, str]] = field(default_factory=list)
    node_stats: dict[int, dict[str, Any]] = field(default_factory=dict)
    trace_path: str | None = None
    telemetry_path: str | None = None
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        """True iff every checked run-invariant held."""
        return not self.violations

    @property
    def winner(self) -> int | None:
        """The elected pid (elect task), or None."""
        winners = [
            pid for pid, decision in self.result.decisions.items()
            if decision.result is Outcome.WIN
        ]
        return winners[0] if len(winners) == 1 else None

    @property
    def survivors(self) -> int:
        """SURVIVE count (sift task)."""
        return sum(
            1 for decision in self.result.decisions.values()
            if decision.result is Outcome.SURVIVE
        )

    @property
    def names(self) -> dict[int, Any]:
        """Decided names (rename task)."""
        return dict(self.result.outcomes)

    @property
    def frames_sent(self) -> int:
        """Total data frames written across all nodes (retries included)."""
        return sum(stats.get("frames_sent", 0) for stats in self.node_stats.values())

    @property
    def frames_dropped(self) -> int:
        """Total frames swallowed by the chaos plan."""
        return sum(stats.get("frames_dropped", 0) for stats in self.node_stats.values())


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


class _ControlPlane:
    """The driver's view of the run while it is in flight."""

    def __init__(
        self,
        n: int,
        participants: Sequence[int],
        snapshot_writer: SnapshotWriter | None = None,
    ) -> None:
        import asyncio

        self.n = n
        self.participants = frozenset(participants)
        self.ports: dict[int, int] = {}
        self.writers: dict[int, Any] = {}
        self.decisions: dict[int, dict[str, Any]] = {}
        self.finals: dict[int, dict[str, Any]] = {}
        self.coins: dict[int, list] = {}
        self.node_snapshots: dict[int, dict[str, Any]] = {}
        self.snapshot_writer = snapshot_writer
        self.started_at = time.monotonic()
        self.all_registered = asyncio.Event()
        self.all_decided = asyncio.Event()
        self.all_final = asyncio.Event()
        self.failure: str | None = None
        self.failed = asyncio.Event()

    def fail(self, message: str) -> None:
        """Record a fatal run error and wake the orchestrator."""
        if self.failure is None:
            self.failure = message
        self.failed.set()

    def note_decision(self, pid: int, fields: Mapping[str, Any]) -> None:
        """Record one participant's decision RESULT."""
        self.decisions[pid] = dict(fields)
        if self.participants <= set(self.decisions):
            self.all_decided.set()

    def note_final(self, pid: int, fields: Mapping[str, Any]) -> None:
        """Record one node's final transport-stats RESULT."""
        self.finals[pid] = dict(fields)
        if len(self.finals) == self.n:
            self.all_final.set()

    @property
    def clock_ms(self) -> int:
        """Milliseconds since the control plane came up."""
        return int((time.monotonic() - self.started_at) * 1000)

    def note_stats(self, pid: int, fields: Mapping[str, Any]) -> None:
        """Fold one node's periodic telemetry RESULT into the cluster view.

        Every stats frame refreshes that node's latest snapshot; the
        merged cluster snapshot (counters summed, histogram buckets
        combined across nodes) is appended to the live snapshot stream
        that ``repro watch`` tails.
        """
        self.node_snapshots[pid] = dict(fields.get("snapshot", {}))
        if self.snapshot_writer is not None:
            self.snapshot_writer.write_snapshot(
                self.clock_ms, merge_snapshots(self.node_snapshots.values())
            )


async def _orchestrate(
    n: int,
    participants: Sequence[int],
    seed: int,
    task: str,
    algorithm: str,
    plan: ChaosPlan,
    rpc_timeout_s: float,
    deadline_s: float,
    trace_paths: Mapping[int, str] | None,
    telemetry_interval_s: float | None = None,
    snapshot_writer: SnapshotWriter | None = None,
) -> _ControlPlane:
    """The driver's async body: serve the control plane, spawn, collect."""
    import asyncio

    plane = _ControlPlane(n, participants, snapshot_writer=snapshot_writer)

    handler_tasks: set[asyncio.Task] = set()

    async def handle_node(reader, writer) -> None:
        handler_tasks.add(asyncio.current_task())
        pid = None
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    return
                if frame.ftype == FrameType.HELLO:
                    pid = frame.sender
                    plane.ports[pid] = frame.fields["port"]
                    plane.writers[pid] = writer
                    if len(plane.ports) == n:
                        plane.all_registered.set()
                elif frame.ftype == FrameType.RESULT:
                    # Explicit kind dispatch: periodic "stats" frames must
                    # not be mistaken for the final transport counters, or
                    # the first telemetry tick would mark the node final.
                    kind = frame.fields.get("kind")
                    if kind == "decision":
                        plane.note_decision(frame.sender, frame.fields)
                    elif kind == "stats":
                        plane.note_stats(frame.sender, frame.fields)
                    else:
                        plane.note_final(frame.sender, frame.fields)
                elif frame.ftype == FrameType.ERROR:
                    plane.fail(
                        f"node {frame.sender} failed: {frame.fields.get('message')}"
                    )
        except Exception as error:  # connection loss mid-run is fatal
            if not plane.all_final.is_set():
                plane.fail(f"control connection to node {pid} broke: {error!r}")

    server = await asyncio.start_server(handle_node, "127.0.0.1", 0)
    driver_port = server.sockets[0].getsockname()[1]

    context = multiprocessing.get_context("spawn")
    children = []
    participant_set = set(participants)
    for pid in range(n):
        config = {
            "pid": pid,
            "n": n,
            "seed": seed,
            "driver_port": driver_port,
            "task": task,
            "algorithm": algorithm,
            "participant": pid in participant_set,
            "plan": plan.to_obj(),
            "rpc_timeout_s": rpc_timeout_s,
            "trace_path": trace_paths.get(pid) if trace_paths else None,
            "telemetry_interval_s": telemetry_interval_s,
        }
        child = context.Process(
            target=_node_entry, args=(json.dumps(config),), name=f"repro-net-{pid}"
        )
        child.start()
        children.append(child)

    async def monitor_children() -> None:
        while True:
            for child in children:
                if child.exitcode not in (None, 0):
                    plane.fail(
                        f"node process {child.name} exited with {child.exitcode}"
                    )
                    return
            await asyncio.sleep(0.2)

    monitor = asyncio.create_task(monitor_children())

    async def await_or_fail(event: asyncio.Event, what: str, timeout: float) -> None:
        waiter = asyncio.create_task(event.wait())
        failer = asyncio.create_task(plane.failed.wait())
        done, pending = await asyncio.wait(
            (waiter, failer), timeout=timeout, return_when=asyncio.FIRST_COMPLETED
        )
        for pending_task in pending:
            pending_task.cancel()
        if failer in done:
            raise NetError(plane.failure or "run failed")
        if waiter not in done:
            raise NetError(f"timed out after {timeout:.0f}s waiting for {what}")

    shutdown_sent = False
    try:
        await await_or_fail(plane.all_registered, "node registration", deadline_s)
        start_fields = {
            "ports": dict(plane.ports),
            "participants": sorted(participant_set),
            "rpc_timeout_s": rpc_timeout_s,
        }
        for writer in plane.writers.values():
            await write_frame(writer, Frame(FrameType.START, DRIVER_PID, start_fields))
        await await_or_fail(plane.all_decided, "participant decisions", deadline_s)
        for writer in plane.writers.values():
            await write_frame(writer, Frame(FrameType.SHUTDOWN, DRIVER_PID, {}))
        shutdown_sent = True
        try:
            await await_or_fail(
                plane.all_final, "final stats", FINAL_STATS_TIMEOUT_S
            )
        except NetError:
            if plane.failure is not None:
                raise
            # Missing final stats degrade the counters, not the run.
    finally:
        monitor.cancel()
        server.close()
        await server.wait_closed()
        if shutdown_sent:
            # Only a node that was sent SHUTDOWN exits on its own; after a
            # failure each one still waits on a quorum or the driver.
            deadline = time.monotonic() + 5.0
            for child in children:
                child.join(timeout=max(0.0, deadline - time.monotonic()))
        for child in children:
            if child.is_alive():
                child.terminate()
                child.join(timeout=2.0)
        # Close the control connections so every handler task ends on its
        # own (EOF) before the loop shuts down: a handler still parked in
        # read_frame at teardown would be *cancelled*, and the 3.11
        # streams done-callback logs that cancellation as a spurious
        # "Exception in callback" traceback.
        for writer in plane.writers.values():
            writer.close()
        live = [task for task in handler_tasks if not task.done()]
        if live:
            await asyncio.wait(live, timeout=1.0)
    return plane


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def run_net(
    task: str = "elect",
    algorithm: str | None = None,
    n: int = 6,
    k: int | None = None,
    pattern: str = "first",
    seed: int = 0,
    plan: ChaosPlan | None = None,
    rpc_timeout_s: float = 0.25,
    deadline_s: float = DEFAULT_DEADLINE_S,
    trace_path: str | None = None,
    check: bool = True,
    telemetry_path: str | None = None,
    telemetry_interval_s: float = 1.0,
) -> NetRun:
    """Run one task over localhost sockets and check its invariants.

    The unchanged protocol coroutine runs in ``n`` spawned OS processes;
    ``plan`` injects seeded faults (default: clean network).  With
    ``trace_path`` set, per-node obs streams are merged into one
    time-sorted JSONL trace at that path.  ``check`` evaluates the
    :mod:`repro.check` run-invariants registered for the protocol; the
    violations land in :attr:`NetRun.violations` (never raised, so
    callers can inspect the failing run).

    With ``telemetry_path`` set, every node reports a metrics snapshot
    (per-RPC latency histogram, retry counts, chaos drop/delay counters)
    to the driver every ``telemetry_interval_s`` seconds; the driver
    merges them into a cluster-wide snapshot stream at that path, which
    ``repro watch`` can tail while the run is still in flight.
    """
    import asyncio

    algorithm = protocol_for(task, algorithm).algorithm
    participants = choose_participants(n, k, pattern, seed)
    plan = plan if plan is not None else CLEAN_PLAN

    snapshot_writer: SnapshotWriter | None = None
    if telemetry_path is not None:
        snapshot_writer = SnapshotWriter(telemetry_path, meta={
            "backend": "net", "task": task, "algorithm": algorithm,
            "n": n, "k": len(participants), "seed": seed,
            "interval_s": telemetry_interval_s,
        })

    trace_paths: dict[int, str] | None = None
    trace_dir = None
    if trace_path is not None:
        trace_dir = tempfile.TemporaryDirectory(prefix="repro-net-")
        trace_paths = {
            pid: os.path.join(trace_dir.name, f"node-{pid}.jsonl")
            for pid in range(n)
        }

    wall_start = time.perf_counter()
    try:
        plane = asyncio.run(_orchestrate(
            n, participants, seed, task, algorithm, plan,
            rpc_timeout_s, deadline_s, trace_paths,
            telemetry_interval_s if telemetry_path is not None else None,
            snapshot_writer,
        ))
    except NetError:
        if trace_dir is not None:
            trace_dir.cleanup()
        if snapshot_writer is not None:
            # No end marker: a tailing `repro watch` should report the
            # stream as interrupted rather than complete.
            snapshot_writer.close()
        raise
    wall_s = time.perf_counter() - wall_start
    if snapshot_writer is not None:
        # Final cluster snapshot from the latest per-node reports, then
        # the end marker so watchers terminate cleanly.
        if plane.node_snapshots:
            snapshot_writer.write_snapshot(
                plane.clock_ms, merge_snapshots(plane.node_snapshots.values())
            )
        snapshot_writer.write_end(plane.clock_ms)
        snapshot_writer.close()

    result = _assemble_result(n, plane)
    events = None
    if trace_paths is not None:
        events = _merge_traces(
            trace_path, trace_paths, task=task, algorithm=algorithm, n=n,
            k=len(participants), seed=seed, pattern=pattern, plan=plan,
        )
        trace_dir.cleanup()

    run = NetRun(
        n=n,
        k=len(participants),
        task=task,
        algorithm=algorithm,
        seed=seed,
        plan=plan,
        result=result,
        node_stats={pid: dict(fields) for pid, fields in plane.finals.items()},
        trace_path=trace_path,
        telemetry_path=telemetry_path,
        wall_s=wall_s,
    )
    if check:
        run.violations = check_net_run(run, events)
    return run


def _assemble_result(n: int, plane: _ControlPlane) -> SimulationResult:
    """Fold the control-plane reports into a ``SimulationResult``.

    Timestamps are rebased to the earliest invocation so decision times
    are small, zero-anchored integers; ``CLOCK_MONOTONIC`` is the same
    clock in every process, so the rebased intervals remain a faithful
    real-time order for the linearizability invariant.
    """
    metrics = Metrics(n)
    decisions: dict[int, Decision] = {}
    start_times: dict[int, int] = {}
    t0 = min(
        (fields["start_ns"] for fields in plane.decisions.values()), default=0
    )
    for pid, fields in sorted(plane.decisions.items()):
        start = fields["start_ns"] - t0
        decide = fields["decide_ns"] - t0
        decisions[pid] = Decision(
            pid=pid, result=fields["outcome"], start_time=start, decide_time=decide
        )
        start_times[pid] = start
        metrics.comm_calls_by[pid] = fields.get("comm_calls", 0)
    for pid, fields in plane.finals.items():
        sent = fields.get("frames_sent", 0)
        metrics.messages_sent_by[pid] = sent
        metrics.messages_total += sent
        metrics.deliveries += fields.get("frames_received", 0)
        for kind_name, count in fields.get("frames_by_kind", {}).items():
            kind = _KIND_BY_FRAME.get(kind_name)
            if kind is not None:
                metrics.messages_by_kind[kind] += count
    undecided = plane.participants - set(decisions)
    return SimulationResult(
        n=n,
        decisions=decisions,
        metrics=metrics,
        undecided=frozenset(undecided),
        crashed=frozenset(),
        start_times=start_times,
    )


def _merge_traces(
    out_path: str,
    trace_paths: Mapping[int, str],
    **meta: Any,
) -> list:
    """Merge per-node JSONL streams into one time-sorted trace file.

    Returns the merged event list so invariant checks can reuse it
    without re-reading the file.
    """
    from ..obs.events import json_safe

    events = []
    for pid, path in sorted(trace_paths.items()):
        if not os.path.exists(path):
            continue
        events.extend(iter_events(path))
    events.sort(key=lambda event: (event.time, event.pid))
    plan = meta.pop("plan")
    header = {
        "backend": "net",
        "version": TRACE_FORMAT_VERSION,
        **{key: json_safe(value) for key, value in meta.items()},
        "chaos": plan.to_obj(),
        "nodes": len(trace_paths),
    }
    write_events(out_path, events, meta=header)
    return events


def check_net_run(run: NetRun, events=None) -> list[tuple[str, str]]:
    """Evaluate the protocol's run-invariants against a socket run.

    Uses the same invariant registry as ``repro check``; ensemble
    invariants (statistical, many-run) are skipped by construction.
    """
    from ..check.invariants import evaluate_run

    return evaluate_run(protocol_for(run.task, run.algorithm), run, events)
