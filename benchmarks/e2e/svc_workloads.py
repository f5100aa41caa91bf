"""Election-service workloads of the end-to-end benchmark.

The service runs in a child process started by :class:`ServiceProcess`
(this file run as a script), so the load generator and the service do not
share a core.  Load comes from this process alone: one asyncio loop, no
threads, and :data:`SESSIONS` client sessions (one TCP connection each).

Every operation must get a definite reply, and the service's grant
history must pass :func:`repro.check.invariants.evaluate_service_run`
and contain every grant a client saw.

CPU times are read on a :class:`refclock.ReferenceClock`: CPU time at the
speed of a fixed reference core.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import resource
import select
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from recorder import CLIENT_WRAPPERS, SVC_WRAPPERS, Recorder, installed, totals
from refclock import ReferenceClock

#: Client sessions (TCP connections); at most the machine's core count.
SESSIONS = 2
#: Service start-ups per run; ``setup_s`` is their median.
SETUPS = 5
HOST = "127.0.0.1"

#: svc-open: keys the offered operations cycle through.  An operation
#: finishes long before its key comes round again, so none contend.
OPEN_KEYS = 4096
#: svc-open: offered rate steps (operations/s), run in order for equal
#: shares of the first half of the run, and the limits a step must meet to
#: count as sustained.  Frozen from calibration runs (README.md, "Sizing"):
#: on a slowed core the service saturates near 4k/s, so 3k is the top step.
OPEN_RATES = (1000, 2000, 3000)
OPEN_P99_LIMIT_MS = 100.0
OPEN_MIN_ACHIEVED = 0.97
#: svc-open's capacity step: lanes per session that each start their next
#: operation when the last one ends, for ``--seconds`` / 2 x this many
#: operations.  The service's CPU per operation is only steady when it is
#: kept busy, and over this many operations (README.md, "Sizing").
SATURATION_LANES = 32
SATURATED_OPS_PER_S = 20_000

#: svc-contended: lanes per session.  Lane ``j`` of each session walks the
#: same seeded sequence over its own four keys, so every key has exactly
#: two contenders and every handoff is a two-contender election.
LANES = 64
CONTENDED_KEYS = 256
HOLD_S = 0.001
WAIT_MS = 10_000.0
#: svc-contended does ``--seconds`` x this many acquire-hold-release
#: cycles: a fixed amount of work, so its memory and CPU per cycle do not
#: depend on how fast the host ran.  That takes 1.5-2.5x ``--seconds``:
#: half as many cycles left a 5 % run-to-run spread (README.md, "Sizing").
CYCLES_PER_S = 10_000
#: One session is aborted while it holds leases after every this many
#: completed cycles (about 2 s), then reconnects.
CRASH_EVERY = 10_000
#: Delays and duplicates but no drops: with drops, throughput measures the
#: client's 250 ms resend timer instead of the code (README.md, "Sizing").
CHAOS = {"seed": 7, "delay": 0.1, "delay_ms": [1.0, 5.0], "duplicate": 0.05}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


# ----------------------------------------------------------------------
# The service process
# ----------------------------------------------------------------------

def serve(clock: ReferenceClock, seed: int, chaos: dict | None, traced: bool,
          cpu: int | None) -> None:
    """Service process body: serve until told to end, then report.

    The port, then at the end the report, go to standard output as one
    JSON line each.  Each ``stamp`` on standard input records the CPU
    clocks (the first ends set-up); ``end`` or the end of input records
    them once more and stops the service.
    With ``traced`` the functions in :data:`SVC_WRAPPERS` are wrapped for
    the whole life of the service; ``cpu`` pins the process.
    """
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    rec = Recorder()
    with installed(rec, SVC_WRAPPERS if traced else ()):
        report = asyncio.run(_serve(clock, seed, chaos))
    report["trace"] = rec.rows()
    report["counts"] = dict(rec.counts)
    _say(report)


def _say(obj: Any) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


async def _serve(clock: ReferenceClock, seed: int, chaos: dict | None) -> dict[str, Any]:
    from repro.check.invariants import evaluate_service_run
    from repro.net.chaos import CLEAN_PLAN, ChaosPlan
    from repro.net.service import ElectionService, ServiceRun

    plan = CLEAN_PLAN if chaos is None else ChaosPlan.from_obj(chaos)
    service = ElectionService(seed=seed, plan=plan)
    _, port = await service.start()
    ended = asyncio.Event()
    stamps: list[tuple[float, float]] = []  # (reference, raw) CPU seconds
    control = sys.stdin.fileno()

    def on_control() -> None:
        chunk = os.read(control, 1024)
        for _ in range(chunk.count(b"stamp")):
            stamps.append((clock.now(), time.thread_time()))
        if b"end" in chunk or not chunk:  # no more input: the benchmark is gone
            ended.set()

    loop = asyncio.get_running_loop()
    loop.add_reader(control, on_control)
    _say(port)
    try:
        await ended.wait()
    finally:
        loop.remove_reader(control)
    stamps.append((clock.now(), time.thread_time()))
    snapshot = service.snapshot()
    run = ServiceRun.of(service)
    await service.stop()
    # Let the session handlers see their closed connections and return, so
    # none is left for asyncio.run to cancel.
    handlers = asyncio.all_tasks() - {asyncio.current_task()}
    if handlers:
        await asyncio.wait(handlers, timeout=1.0)
    wait = snapshot["histograms"].get("svc.acquire_wait_ms", {})
    return {
        "stamps": stamps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "violations": evaluate_service_run(run),
        "grants": [(record.key, record.epoch, record.holder) for record in run.history],
        "counters": snapshot["counters"],
        "acquire_wait_p50_ms": wait.get("p50", 0.0),
    }


class ServiceProcess:
    """One election service in a child process running :func:`serve`."""

    def __init__(self, seed: int, chaos: dict | None, traced: bool,
                 cpu: int | None) -> None:
        self._process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__),
             json.dumps([seed, chaos, traced, cpu])],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, sys.path))),
        )
        try:
            self.port = self._receive()
        except BaseException:
            self.close()
            raise

    def _receive(self, timeout_s: float = 60.0) -> Any:
        readable, _, _ = select.select([self._process.stdout], [], [], timeout_s)
        line = self._process.stdout.readline() if readable else b""
        if not line:
            raise RuntimeError(
                f"service process silent or gone (exit code {self._process.poll()})")
        return json.loads(line)

    def _tell(self, message: bytes) -> None:
        self._process.stdin.write(message)
        self._process.stdin.flush()

    def stamp(self) -> None:
        """Have the service record its CPU clocks; the first ends set-up."""
        self._tell(b"stamp\n")

    def finish(self) -> dict[str, Any]:
        """Stop the service and return its report; the process is reaped."""
        try:
            self._tell(b"end\n")
            return self._receive()
        finally:
            self.close()

    def close(self) -> None:
        """Close the pipes and wait for the process, killing it if it hangs."""
        self._process.stdin.close()
        self._process.stdout.close()
        try:
            self._process.wait(10.0)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()


async def _start(seed: int, chaos: dict | None, traced: bool, cpu: int | None):
    """Spawn a service and connect the sessions.

    Returns the service, the clients and the reference CPU seconds this
    process spent on it; the service reports its own share at the end.
    """
    from repro.net.chaos import CLEAN_PLAN, ChaosPlan
    from repro.net.client import ServiceClient

    plan = CLEAN_PLAN if chaos is None else ChaosPlan.from_obj(chaos)
    with ReferenceClock() as clock:
        service = ServiceProcess(seed, chaos, traced, cpu)
        clients = []
        try:
            for index in range(SESSIONS):
                clients.append(await ServiceClient.connect(
                    HOST, service.port, client_id=f"s{index}", pid=index, plan=plan,
                ))
        except BaseException:
            await _close(clients)
            service.finish()
            raise
        service.stamp()
        return service, clients, clock.now()


async def _close(clients) -> None:
    for client in clients:
        await client.close()
    # One loop pass closes the sockets, before a blocking ServiceProcess
    # call can hold the loop: the service only sees EOF on connections
    # that never sent a frame.
    await asyncio.sleep(0)


# ----------------------------------------------------------------------
# svc-open: open loop at fixed rate steps
# ----------------------------------------------------------------------

@dataclass
class _Step:
    """One offered rate and what it achieved."""

    rate: int
    first_due: float = 0.0
    last_done: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)  # inf = failed
    failed: int = 0
    late_max_ms: float = 0.0

    @property
    def achieved(self) -> float:
        done = len(self.latencies_ms) - self.failed
        return done / (self.last_done - self.first_due) if done else 0.0

    @property
    def ok(self) -> bool:
        return (self.failed == 0
                and percentile(self.latencies_ms, 99) <= OPEN_P99_LIMIT_MS
                and self.achieved >= OPEN_MIN_ACHIEVED * self.rate)


async def _open_op(client, key: str, due: float, step: _Step, grants: list) -> None:
    """acquire(wait_ms=0) then release; latency counts from the due time."""
    from repro.net.client import ServiceClientError

    try:
        lease = await client.acquire(key, wait_ms=0.0)
        released = lease is not None and await client.release(lease)
    except ServiceClientError:
        released = False
    done = time.perf_counter()
    step.last_done = max(step.last_done, done)
    if released:
        step.latencies_ms.append((done - due) * 1e3)
        grants.append((lease.key, lease.epoch, client.client_id))
    else:
        step.failed += 1
        step.latencies_ms.append(math.inf)


def open_keys(seed: int) -> list[str]:
    """svc-open's inputs: the order its operations visit the keys in."""
    from repro.sim.rng import make_stream

    keys = [f"open/{index:04d}" for index in range(OPEN_KEYS)]
    make_stream(seed, "svc-open/keys").shuffle(keys)
    return keys


def lane_keys(seed: int, j: int) -> Iterator[str]:
    """svc-contended's inputs: the keys lane ``j`` of every session visits."""
    from repro.sim.rng import make_stream

    rng = make_stream(seed, f"svc-contended/lane/{j}")
    group = [f"lease/{j + LANES * g:03d}" for g in range(CONTENDED_KEYS // LANES)]
    while True:
        yield rng.choice(group)


async def _saturate(clients, seed: int, ops: int, grants: list) -> _Step:
    """svc-open's capacity step: ``ops`` operations from busy lanes.

    :data:`SATURATION_LANES` lanes per session each start their next
    acquire+release when the last one ends; latency counts from the start.
    """
    keys = open_keys(seed)
    step = _Step(0, first_due=time.perf_counter())
    indexes = iter(range(ops))  # shared by the lanes: each index is used once

    async def lane(client) -> None:
        for index in indexes:
            await _open_op(client, keys[index % OPEN_KEYS], time.perf_counter(),
                           step, grants)

    await asyncio.gather(*(lane(clients[j % SESSIONS])
                           for j in range(SESSIONS * SATURATION_LANES)))
    return step


async def _open_loop(clients, seed: int, seconds: float):
    """Offer each rate of :data:`OPEN_RATES` for an equal share of ``seconds``."""
    keys = open_keys(seed)
    step_s = seconds / len(OPEN_RATES)
    steps: list[_Step] = []
    grants: list = []
    issued = 0
    for rate in OPEN_RATES:
        step = _Step(rate, first_due=time.perf_counter() + 0.01)
        tasks = []
        for index in range(max(1, round(rate * step_s))):
            due = step.first_due + index / rate
            now = time.perf_counter()
            if now >= due and index % 16 == 0:
                await asyncio.sleep(0)  # behind schedule: still let replies in
            while now < due:
                # Sleep to within a millisecond of the due time, then poll.
                await asyncio.sleep(due - now - 0.001 if due - now > 0.002 else 0)
                now = time.perf_counter()
            step.late_max_ms = max(step.late_max_ms, (now - due) * 1e3)
            tasks.append(asyncio.create_task(_open_op(
                clients[issued % SESSIONS], keys[issued % OPEN_KEYS], due, step, grants,
            )))
            issued += 1
        _, pending = await asyncio.wait(tasks, timeout=30.0)
        for task in pending:
            task.cancel()
            step.failed += 1
            step.latencies_ms.append(math.inf)
        await asyncio.gather(*pending, return_exceptions=True)
        steps.append(step)
    return steps, grants


# ----------------------------------------------------------------------
# svc-contended: closed loop with handoffs, chaos and crashes
# ----------------------------------------------------------------------

@dataclass
class _Session:
    """One client session of the contended loop and what its lanes hold."""

    index: int
    client: Any
    generation: int = 0
    ready: asyncio.Event = field(default_factory=asyncio.Event)
    holding: dict[int, str] = field(default_factory=dict)
    waiting: dict[int, str] = field(default_factory=dict)


@dataclass
class _Contended:
    acquire_ms: list[float] = field(default_factory=list)  # inf = failed
    failover_ms: list[float] = field(default_factory=list)
    grants: list[tuple[str, int, str]] = field(default_factory=list)
    cycles: int = 0
    failed: int = 0
    aborted: int = 0
    crashes: int = 0
    wall_s: float = 0.0
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


async def _contended_loop(clients, seed: int, seconds: float, port: int):
    from repro.net.chaos import ChaosPlan
    from repro.net.client import ServiceClient, ServiceClientError

    plan = ChaosPlan.from_obj(CHAOS)
    sessions = [_Session(index, client) for index, client in enumerate(clients)]
    for session in sessions:
        session.ready.set()
    stats = _Contended()
    quota = max(1, round(seconds * CYCLES_PER_S))
    failover_from: dict[tuple[int, int], float] = {}
    retired = []
    began = time.perf_counter()
    # A service too slow for the quota still ends the run in time.
    stop_at = began + 4 * seconds

    def running() -> bool:
        return stats.cycles < quota and time.perf_counter() < stop_at

    async def lane(session: _Session, j: int) -> None:
        keys = lane_keys(seed, j)
        key = next(keys)
        while running():
            await session.ready.wait()
            client, generation = session.client, session.generation
            issued = time.perf_counter()
            session.waiting[j] = key
            try:
                lease = await client.acquire(key, wait_ms=WAIT_MS)
            except ServiceClientError as error:
                if session.generation != generation:
                    stats.aborted += 1  # this session was crashed on purpose
                else:
                    stats.fail(f"acquire {key}: {error}")
                continue
            finally:
                session.waiting.pop(j, None)
            granted = time.perf_counter()
            if lease is None:
                stats.acquire_ms.append(math.inf)
                stats.fail(f"acquire {key}: busy after {WAIT_MS:.0f} ms")
                continue
            stats.acquire_ms.append((granted - issued) * 1e3)
            stats.grants.append((lease.key, lease.epoch, client.client_id))
            aborted_at = failover_from.pop((session.index, j), None)
            if aborted_at is not None:
                stats.failover_ms.append((granted - aborted_at) * 1e3)
            session.holding[j] = key
            released = None
            try:
                await asyncio.sleep(HOLD_S)
                released = await client.release(lease)
            except ServiceClientError as error:
                if session.generation == generation:
                    stats.fail(f"release {key}: {error}")
            finally:
                session.holding.pop(j, None)
            if released:
                stats.cycles += 1
            elif session.generation != generation:
                stats.aborted += 1  # the crash took the lease
            elif released is False:
                stats.fail(f"release {key} epoch {lease.epoch}: fenced")
            key = next(keys)

    async def crasher() -> None:
        victim = 0
        next_at = CRASH_EVERY
        while True:
            while stats.cycles < next_at and running():
                await asyncio.sleep(0.001)
            session, other = sessions[victim], sessions[1 - victim]
            while not session.holding and running():
                await asyncio.sleep(0.001)
            if stats.cycles + CRASH_EVERY // 4 >= quota or not running():
                return
            aborted_at = time.perf_counter()
            for j, key in session.holding.items():
                if other.waiting.get(j) == key:
                    failover_from[(other.index, j)] = aborted_at
            session.generation += 1
            session.ready.clear()
            session.client.abort()
            retired.append(session.client)
            stats.crashes += 1
            session.client = await ServiceClient.connect(
                HOST, port, client_id=f"s{victim}.{session.generation}",
                pid=victim, plan=plan,
            )
            session.ready.set()
            victim = 1 - victim
            next_at += CRASH_EVERY

    tasks = [asyncio.create_task(lane(session, j))
             for session in sessions for j in range(LANES)]
    tasks.append(asyncio.create_task(crasher()))
    done, pending = await asyncio.wait(tasks, timeout=4 * seconds + 30.0)
    stats.wall_s = time.perf_counter() - began
    for task in pending:
        task.cancel()
        stats.fail("lane did not finish")
    await asyncio.gather(*pending, return_exceptions=True)
    for task in done:
        if task.exception() is not None:
            stats.fail(f"lane crashed: {task.exception()!r}")
    await _close(retired)
    clients[:] = [session.client for session in sessions]  # the caller closes these
    return stats


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------

def _chaos(name: str) -> dict | None:
    return CHAOS if name == "svc-contended" else None


@contextmanager
def _pinned() -> Iterator[int | None]:
    """Pin this process to the first CPU; yield the last one for the service.

    Pinned, the load generator and the service never share or swap cores,
    which narrows the run-to-run spread of the service metrics (README.md,
    "Sizing").  With a single CPU nothing is pinned.
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    if len(cpus) < 2:
        yield None
        return
    os.sched_setaffinity(0, {cpus[0]})
    try:
        yield cpus[-1]
    finally:
        os.sched_setaffinity(0, cpus)


async def _measure(name: str, seed: int, seconds: float, traced: bool, cpu: int | None):
    """One service, one workload; returns (client stats, service report, setup)."""
    service, clients, setup_s = await _start(seed, _chaos(name), traced, cpu)
    try:
        if name == "svc-open":
            steps, grants = await _open_loop(clients, seed, seconds / 2)
            service.stamp()
            capacity = await _saturate(
                clients, seed, max(1, round(seconds / 2 * SATURATED_OPS_PER_S)), grants)
            stats = steps, capacity, grants
        else:
            stats = await _contended_loop(clients, seed, seconds, service.port)
    finally:
        await _close(clients)
        report = service.finish()
    return stats, report, setup_s + report["stamps"][0][0]


def _check(client_grants, report, log) -> int:
    """Failures the service's history shows: violations and unknown grants."""
    failed = 0
    for invariant, message in report["violations"]:
        failed += 1
        log(f"  FAILED invariant {invariant}: {message}")
    known = set(map(tuple, report["grants"]))
    missing = [grant for grant in client_grants if grant not in known]
    if missing:
        failed += len(missing)
        log(f"  FAILED {len(missing)} client grants absent from the service "
            f"history, e.g. {missing[0]}")
    return failed


def _summarize(name: str, stats, report, log) -> dict[str, Any]:
    """Correctness, operation counts and the workload's own metrics."""
    counters = report["counters"]
    values: dict[str, float] = {
        "peak_rss_mb": report["peak_rss_mb"],
        "svc.frames_per_grant": (counters.get("svc.frames_sent", 0)
                                 / max(1, counters.get("svc.grants", 0))),
        "svc.service.acquire_wait_p50_ms": report["acquire_wait_p50_ms"],
    }
    if name == "svc-open":
        steps, capacity, grants = stats
        attempted = sum(len(step.latencies_ms) for step in steps + [capacity])
        failed = sum(step.failed for step in steps + [capacity])
        done = len(capacity.latencies_ms) - capacity.failed
        passing = [step for step in steps if step.ok]
        lowest = steps[0]
        values.update({
            "svc.max_rate_ok": passing[-1].rate if passing else 0.0,
            "latency_p50_ms": percentile(lowest.latencies_ms, 50),
            "latency_tail_ms": percentile(lowest.latencies_ms, 99),
            "svc.gen.late_max_ms": max(step.late_max_ms for step in steps),
        })
        for step in steps:
            log(f"  step {step.rate:>5}/s: achieved {step.achieved:8.1f}/s  "
                f"p50 {percentile(step.latencies_ms, 50):7.3f} ms  "
                f"p99 {percentile(step.latencies_ms, 99):7.3f} ms  "
                f"late max {step.late_max_ms:6.2f} ms  failed {step.failed}  "
                f"({len(step.latencies_ms)} ops) {'ok' if step.ok else 'OVER LIMIT'}")
        log(f"  svc.max_rate_ok      {values['svc.max_rate_ok']:12.0f} ops/s "
            f"(p99 <= {OPEN_P99_LIMIT_MS:g} ms, achieved >= "
            f"{OPEN_MIN_ACHIEVED:.0%} of offered, no failures)")
        log(f"  svc.op_p50_ms        {values['latency_p50_ms']:12.3f} ms  "
            f"svc.op_p99_ms {values['latency_tail_ms']:.3f} ms at "
            f"{lowest.rate}/s ({len(lowest.latencies_ms)} samples)")
        log(f"  svc.capacity_per_s   {capacity.achieved:12.1f} 1/s wall clock "
            f"({len(capacity.latencies_ms)} ops from {SESSIONS * SATURATION_LANES} "
            f"busy lanes, p50 {percentile(capacity.latencies_ms, 50):.3f} ms, "
            f"failed {capacity.failed})")
    else:
        grants = stats.grants
        attempted = stats.cycles + stats.failed
        failed = stats.failed
        done = stats.cycles
        for message in stats.errors[:5]:
            log(f"  FAILED {message}")
        values.update({
            "latency_p50_ms": percentile(stats.acquire_ms, 50),
            "latency_tail_ms": percentile(stats.acquire_ms, 99),
            "svc.failover_p50_ms": (statistics.median(stats.failover_ms)
                                    if stats.failover_ms else 0.0),
        })
        log(f"  svc.grants_per_s     {len(grants) / stats.wall_s:12.1f} 1/s "
            f"wall clock ({len(grants)} grants, {stats.cycles} cycles in "
            f"{stats.wall_s:.2f} s, {stats.crashes} crashes, "
            f"{stats.aborted} ops cut by them)")
        log(f"  svc.acquire_p50_ms   {values['latency_p50_ms']:12.3f} ms  "
            f"svc.acquire_p99_ms {values['latency_tail_ms']:.3f} ms "
            f"({len(stats.acquire_ms)} samples)")
        log(f"  svc.failover_p50_ms  {values['svc.failover_p50_ms']:12.3f} ms "
            f"({len(stats.failover_ms)} samples)")
    failed += _check(grants, report, log)
    attempted = max(1, attempted)
    # The last window between stamps: svc-open's capacity step, or all of
    # svc-contended.
    (ref_from, raw_from), (ref_to, raw_to) = report["stamps"][-2:]
    values["ops_per_cpu_s"] = done / (ref_to - ref_from)
    values["svc.replays"] = counters.get("svc.replays", 0) / attempted
    log(f"  svc.ops_per_cpu_s    {values['ops_per_cpu_s']:12.1f} 1/s "
        f"({done} ops in {ref_to - ref_from:.3f} s of service reference CPU, "
        f"{raw_to - raw_from:.3f} s raw)")
    log(f"  svc.frames_per_grant {values['svc.frames_per_grant']:12.3f}  "
        f"peak RSS {values['peak_rss_mb']:.1f} MB")
    return {"attempted": attempted, "failed": failed, "values": values}


def run_plain(name: str, seed: int, seconds: float, log) -> dict[str, Any]:
    """The measured run: end-to-end metrics, tracing off."""
    async def main(cpu):
        setups = []
        for _ in range(SETUPS - 1):
            service, clients, setup_s = await _start(seed, _chaos(name), False, cpu)
            await _close(clients)
            setups.append(setup_s + service.finish()["stamps"][0][0])
        stats, report, setup_s = await _measure(name, seed, seconds, False, cpu)
        return stats, report, setups + [setup_s]

    with _pinned() as cpu:
        stats, report, setups = asyncio.run(main(cpu))
    result = _summarize(name, stats, report, log)
    result["values"]["setup_s"] = statistics.median(setups)
    log(f"  setup_s {result['values']['setup_s']:.4f} s "
        f"(median of {len(setups)}: {', '.join(f'{s:.3f}' for s in setups)})")
    return result


def run_traced(name: str, seed: int, seconds: float, log) -> dict[str, Any]:
    """Half the time plain, half traced: per-layer metrics and overhead."""
    half = seconds / 2
    rec = Recorder()
    with _pinned() as cpu:
        plain_stats, plain_report, _ = asyncio.run(_measure(name, seed, half, False, cpu))
        with installed(rec, CLIENT_WRAPPERS):
            stats, report, _ = asyncio.run(_measure(name, seed, half, True, cpu))
    plain = _summarize(name, plain_stats, plain_report, log)
    result = _summarize(name, stats, report, log)
    ops = result["attempted"]
    values = result["values"]
    values["trace_overhead"] = plain["values"]["ops_per_cpu_s"] / values["ops_per_cpu_s"]
    for untraced in ("latency_p50_ms", "latency_tail_ms", "svc.failover_p50_ms",
                     "svc.gen.late_max_ms", "svc.max_rate_ok"):
        if untraced in values:
            values[untraced] = plain["values"][untraced]
    stamps = report["stamps"]
    cpu_ms = (stamps[-1][1] - stamps[0][1]) * 1e3  # the whole measured window
    for span, total in totals(report["trace"]).items():
        values[f"{span}.self_pct"] = 100.0 * total["self_ms"] / cpu_ms
        values[f"{span}.calls"] = total["count"] / ops
    for counter, count in report["counts"].items():
        values[counter] = count / ops
    sends = totals(rec.rows()).get("svc.client.send", {}).get("count", 0)
    values["svc.client.resends"] = (sends - rec.counts["svc.client.rpcs"]) / ops
    log(f"  trace_overhead {values['trace_overhead']:.3f} (service CPU per op)")
    return {"attempted": plain["attempted"] + ops,
            "failed": plain["failed"] + result["failed"],
            "values": values,
            "rows": report["trace"] + rec.rows()}


if __name__ == "__main__":
    with ReferenceClock() as service_clock:
        serve(service_clock, *json.loads(sys.argv[1]))
