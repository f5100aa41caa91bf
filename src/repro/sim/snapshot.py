"""Simulation state checkpointing: capture at an action boundary, fork later.

A :class:`~repro.sim.runtime.Simulation` is almost entirely plain data —
pools, register files, counters — except for the algorithm *coroutines*,
which Python cannot copy.  This module closes that gap with input-replay:
when recording is enabled (:func:`enable_recording`), every value that
crosses into a coroutine — resume inputs fed by the runtime, register
reads, and coin outcomes returned by :class:`~repro.sim.process.ProcessAPI`
— is appended to a per-process log in program order.  A fork rebuilds each
running coroutine by replaying its log into a fresh instance (the API
methods return recorded values instead of touching registers or the RNG),
then overwrites all observable state with deep copies taken at capture
time.  The forked run is therefore byte-identical to the original
continuing from the same point, for any new adversary.

No part of the package forks from a checkpoint today.  The shrinker and
the explorer once could, and at n=8-16 replaying every candidate from
tick 0 was faster (``docs/soak.md``), so that path was removed.  The
module stays for state-space search, which must fork many successors
from one reached state; ``tests/sim/test_snapshot.py`` pins that a fork
is byte-identical to the run it was captured from.

Contracts:

* :func:`enable_recording` must run before the simulation's first action
  (replay needs the log from the very first resume).
* :func:`capture` is only valid at an *action boundary* — between
  actions, when every running coroutine is suspended at a ``yield``.
  This is where adversaries live, so an adversary's ``choose`` may
  capture.
* Event sinks are **not** carried across a fork: the forked stream starts
  at the fork point.  Callers who need the full stream keep the prefix
  events alongside the checkpoint.
* Algorithms must not mutate views they received from ``collect`` or
  values read back from registers — the same copy-on-write contract the
  register plane already imposes.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Any

from .errors import CheckpointError
from .process import ProcessStatus
from .runtime import Simulation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..adversary.base import Adversary
    from ..obs.events import EventSink


def enable_recording(sim: Simulation) -> None:
    """Turn on coroutine input recording; must precede the first action."""
    if sim.metrics.events_executed or sim.metrics.steps:
        raise CheckpointError(
            "recording must be enabled before the simulation's first action"
        )
    for process in sim.processes:
        if process.factory is not None and process.io_record is None:
            process.io_record = []


class _ReplayCursor:
    """Feeds one process's recorded input log back during coroutine rebuild."""

    __slots__ = ("log", "pos", "pid")

    def __init__(self, log: list[Any], pid: int) -> None:
        self.log = log
        self.pos = 0
        self.pid = pid

    def take(self, kind: str) -> Any:
        """The next recorded value; ``kind`` labels the consumer for errors."""
        if self.pos >= len(self.log):
            raise CheckpointError(
                f"pid {self.pid}: replay log exhausted during {kind!r} — the "
                "algorithm consumed more inputs than the recording holds "
                "(nondeterministic algorithm code?)"
            )
        value = self.log[self.pos]
        self.pos += 1
        return value


class SimulationCheckpoint:
    """A deep snapshot of one simulation, fork-able any number of times.

    Construction happens through :func:`capture`.  All mutable state is
    copied under a single deepcopy memo, so copy-on-write identity
    sharing (pool payload mappings aliased by register files, pending
    views, delta trackers referenced by broadcasts) survives intact.
    """

    __slots__ = (
        "n",
        "seed",
        "crash_budget",
        "delta_propagation",
        "max_events",
        "clock",
        "events_executed",
        "_participants",
        "_indexed",
        "_call_counter",
        "_in_flight",
        "_delta",
        "_metrics",
        "_needs_step",
        "_undecided",
        "_crashed",
        "_start_times",
        "_process_state",
    )

    def fork(
        self,
        adversary: "Adversary",
        sink: "EventSink | None" = None,
        telemetry: "EventSink | None" = None,
    ) -> Simulation:
        """A fresh :class:`Simulation` resuming exactly at the checkpoint.

        ``adversary`` drives the forked run from the checkpointed state
        onward; if it reads the endpoint indexes, the captured pool must
        maintain them.  ``sink``/``telemetry`` receive only events
        emitted *after* the fork point.
        """
        wants_indexes = getattr(adversary, "uses_endpoint_indexes", True)
        if wants_indexes and not self._indexed:
            raise CheckpointError(
                "checkpoint captured a pool without endpoint indexes; the "
                "forking adversary must declare uses_endpoint_indexes = False"
            )
        # One memo per fork: the checkpoint itself stays pristine so it
        # can be forked again, and intra-state aliasing is preserved.
        memo: dict[int, Any] = {}
        sim = Simulation(
            n=self.n,
            participants=self._participants,
            adversary=adversary,
            seed=self.seed,
            crash_budget=self.crash_budget,
            max_events=self.max_events,
            sink=sink,
            delta_propagation=self.delta_propagation,
            telemetry=telemetry,
        )
        sim.in_flight = copy.deepcopy(self._in_flight, memo)
        sim.metrics = copy.deepcopy(self._metrics, memo)
        sim._delta = copy.deepcopy(self._delta, memo)
        sim.clock = self.clock
        sim._call_counter = self._call_counter
        sim._needs_step = set(self._needs_step)
        sim._undecided = set(self._undecided)
        sim._crashed = set(self._crashed)
        sim._start_times = dict(self._start_times)
        for state in self._process_state:
            self._restore_process(sim, state, memo)
        return sim

    def _restore_process(
        self, sim: Simulation, state: dict[str, Any], memo: dict[int, Any]
    ) -> None:
        process = sim.processes[state["pid"]]
        status: ProcessStatus = state["status"]
        io_record = copy.deepcopy(state["io_record"], memo)
        if status is ProcessStatus.RUNNING:
            # Rebuild the coroutine by replaying its recorded inputs.
            # Hooks are silenced so the replay emits nothing; registers
            # and coins are scratch here and overwritten below.
            assert io_record is not None
            cursor = _ReplayCursor(io_record, process.pid)
            process.io_replay = cursor
            saved_hooks = process.put_hook, process.obs
            process.put_hook = process.obs = None
            try:
                process.start()
                coroutine = process.coroutine
                while cursor.pos < len(cursor.log):
                    try:
                        coroutine.send(cursor.take("resume"))
                    except StopIteration:
                        raise CheckpointError(
                            f"pid {process.pid}: coroutine terminated during "
                            "replay but was RUNNING at capture"
                        ) from None
            finally:
                process.io_replay = None
                process.put_hook, process.obs = saved_hooks
        process.status = status
        process.result = copy.deepcopy(state["result"], memo)
        process.registers = copy.deepcopy(state["registers"], memo)
        process.pending = copy.deepcopy(state["pending"], memo)
        process.coins = copy.deepcopy(state["coins"], memo)
        if process.rng is not None:
            process.rng.setstate(state["rng_state"])
        process.comm_calls = state["comm_calls"]
        process.steps_taken = state["steps_taken"]
        process.messages_sent = state["messages_sent"]
        process.failure = state["failure"]
        process.decide_time = state["decide_time"]
        process.io_record = io_record


def capture(sim: Simulation) -> SimulationCheckpoint:
    """Snapshot ``sim`` at the current action boundary.

    The source simulation is untouched and keeps running; the returned
    checkpoint owns deep copies of all mutable state (one shared memo,
    preserving copy-on-write aliasing) plus every participant's input
    log, and can be forked any number of times.
    """
    for process in sim.processes:
        if process.status is ProcessStatus.RUNNING and process.io_record is None:
            raise CheckpointError(
                f"pid {process.pid} is mid-protocol but has no input log; "
                "call enable_recording(sim) before the run starts"
            )
        if process.io_replay is not None:
            raise CheckpointError("cannot capture while a replay is in progress")
    checkpoint = SimulationCheckpoint.__new__(SimulationCheckpoint)
    checkpoint.n = sim.n
    checkpoint.seed = sim.seed
    checkpoint.crash_budget = sim.crash_budget
    checkpoint.delta_propagation = sim.delta_propagation
    checkpoint.max_events = sim.max_events
    checkpoint.clock = sim.clock
    checkpoint.events_executed = sim.metrics.events_executed
    checkpoint._participants = {
        process.pid: process.factory
        for process in sim.processes
        if process.factory is not None
    }
    pool = sim.in_flight
    checkpoint._indexed = pool._indexed
    checkpoint._call_counter = sim._call_counter
    memo: dict[int, Any] = {}
    checkpoint._in_flight = copy.deepcopy(pool, memo)
    checkpoint._delta = copy.deepcopy(sim._delta, memo)
    checkpoint._metrics = copy.deepcopy(sim.metrics, memo)
    checkpoint._needs_step = set(sim._needs_step)
    checkpoint._undecided = set(sim._undecided)
    checkpoint._crashed = set(sim._crashed)
    checkpoint._start_times = dict(sim._start_times)
    checkpoint._process_state = [
        {
            "pid": process.pid,
            "status": process.status,
            "result": copy.deepcopy(process.result, memo),
            "registers": copy.deepcopy(process.registers, memo),
            "pending": copy.deepcopy(process.pending, memo),
            "coins": copy.deepcopy(process.coins, memo),
            "rng_state": None if process.rng is None else process.rng.getstate(),
            "comm_calls": process.comm_calls,
            "steps_taken": process.steps_taken,
            "messages_sent": process.messages_sent,
            "failure": process.failure,
            "decide_time": process.decide_time,
            "io_record": copy.deepcopy(process.io_record, memo),
        }
        for process in sim.processes
    ]
    return checkpoint


__all__ = [
    "SimulationCheckpoint",
    "capture",
    "enable_recording",
]
