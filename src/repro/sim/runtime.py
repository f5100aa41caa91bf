"""The discrete-event simulation of the asynchronous message-passing model.

The simulation advances one *action* at a time, and the adversary picks
every action.  The enabled actions at any moment are exactly those of the
paper's model (Section 2):

* ``Deliver(slot, desc)`` — a delivery step: the in-flight leg at pool
  position ``slot`` (packed descriptor ``desc``, see
  :mod:`repro.sim.messages`) reaches its recipient, which (if non-faulty)
  processes it immediately — merging PROPAGATE entries and sending the
  ACK / COLLECT_REPLY, or recording an incoming acknowledgement against
  its outstanding ``communicate`` call.  Every processor services
  requests this way, participant or not, decided or not: the model's
  standing assumption that non-faulty processors always assist.
* ``Step(pid)`` — a computation step of the *algorithm*: starts the
  participant's coroutine, or resumes it when its outstanding
  ``communicate`` call has reached its quorum.
* ``Crash(pid)`` — fail a processor, up to ``ceil(n/2) - 1`` in total.
  Crashed processors never reply again; messages addressed to them may
  still be delivered but vanish.

Splitting "service a message" (delivery) from "advance the protocol"
(step) is what lets the adversary run participants one at a time through a
whole PoisonPill phase while everyone else merely acknowledges — the
sequential attack of Section 3.2.  The adversary also gets full read
access to local state including coin-flip logs, so it realizes the
paper's strong adaptive adversary exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Mapping

from ..obs.events import Event, EventType
from .communicate import Propagate, Request
from .errors import (
    AdversaryProtocolError,
    CrashBudgetError,
    QuiescenceError,
    SimulationLimitError,
)
from .messages import (
    BROADCAST_SHIFT,
    MAX_PIDS,
    PID_BITS,
    PID_MASK,
    REPLY_BIT,
    Deliver,
    InFlightPool,
    MessageKind,
)
from .process import AlgorithmFactory, Process, ProcessStatus
from .registers import DeltaTracker
from .rng import make_stream
from .trace import Metrics


if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..adversary.base import Adversary
    from ..obs.events import EventSink
    from ..obs.profile import Profiler


@dataclass(frozen=True, slots=True)
class Step:
    """Adversary action: run one computation step of processor ``pid``."""
    pid: int


@dataclass(frozen=True, slots=True)
class Crash:
    """Adversary action: crash processor ``pid`` (within the budget)."""
    pid: int


# Deliver lives in messages.py (the pool builds it in its positional
# API) and is re-exported here for callers.
Action = Deliver | Step | Crash

#: Shared empty payload for events that need none (avoids a dict per event).
_NO_FIELDS: Mapping[str, Any] = {}

# Enum member lookups hoisted out of the delivery hot loop.
_CRASHED = ProcessStatus.CRASHED
_ACK = MessageKind.ACK
_COLLECT_REPLY = MessageKind.COLLECT_REPLY
_PROPAGATE = MessageKind.PROPAGATE

#: Profiler span names for each action type (see ``Simulation._drain_profiled``).
_ACTION_SPANS = {
    Deliver: "execute.deliver",
    Step: "execute.step",
    Crash: "execute.crash",
}


@dataclass(slots=True)
class Decision:
    """A participant's recorded invocation/response interval and result."""

    pid: int
    result: Any
    start_time: int
    decide_time: int


@dataclass(slots=True)
class SimulationResult:
    """Everything a caller needs after a run: outcomes and metrics."""

    n: int
    decisions: dict[int, Decision]
    metrics: Metrics
    undecided: frozenset[int]
    crashed: frozenset[int]
    start_times: dict[int, int]

    @property
    def outcomes(self) -> dict[int, Any]:
        """Map of pid to decided value, for assertion-friendly access."""
        return {pid: decision.result for pid, decision in self.decisions.items()}

    @property
    def terminated(self) -> bool:
        """True iff every non-crashed participant returned."""
        return not self.undecided


class Simulation:
    """One execution of ``n`` processors under a chosen adversary.

    ``participants`` maps processor ids to algorithm coroutine factories;
    all other processors are pure responders, which still reply to
    PROPAGATE/COLLECT traffic (the model requires all non-faulty
    processors to assist, even non-participants).

    ``profiler`` (a :class:`~repro.obs.profile.Profiler`) times each
    resume of the adversary as an ``adversary.choose`` span and each
    action as an ``execute.deliver`` / ``execute.step`` /
    ``execute.crash`` span.  A profiled run executes the same actions,
    emits the same events and counts the same metrics as an unprofiled
    one; only :meth:`run` consults it, so hand-driven :meth:`execute`
    calls are never timed.
    """

    def __init__(
        self,
        n: int,
        participants: Mapping[int, AlgorithmFactory],
        adversary: "Adversary",
        seed: int = 0,
        crash_budget: int | None = None,
        max_events: int | None = None,
        sink: "EventSink | None" = None,
        profiler: "Profiler | None" = None,
        delta_propagation: bool = True,
    ) -> None:
        if n < 1:
            raise ValueError("need at least one processor")
        if n > MAX_PIDS:
            raise ValueError(
                f"descriptors encode pids in {PID_BITS} bits; "
                f"n={n} exceeds the {MAX_PIDS} ceiling"
            )
        for pid in participants:
            if not 0 <= pid < n:
                raise ValueError(f"participant pid {pid} out of range [0, {n})")
        self.n = n
        self.seed = seed
        self.adversary = adversary
        self.crash_budget = (n + 1) // 2 - 1 if crash_budget is None else crash_budget
        # Only participants flip coins.  A stream is named by its pid, so
        # building none for the responders leaves every coin unchanged.
        self.processes: list[Process] = [
            Process(
                pid, n,
                make_stream(seed, f"proc/{pid}") if pid in participants else None,
                participants.get(pid),
            )
            for pid in range(n)
        ]
        # Skip the per-endpoint index bookkeeping when this run's
        # adversary declared it never reads the index API.
        self.in_flight = InFlightPool(
            indexed=getattr(adversary, "uses_endpoint_indexes", True),
        )
        self.metrics = Metrics(n)
        # Delta propagation: per-sender trackers (created lazily on first
        # broadcast) that shrink PROPAGATE payloads to entries the
        # recipient has not provably absorbed.  Semantically invisible —
        # register states, events, and metrics are identical to full
        # propagation (metrics/events report *logical* payload sizes);
        # the physical savings are reported via :attr:`delta_stats`.
        self.delta_propagation = delta_propagation
        self._delta: dict[int, DeltaTracker] | None = (
            {} if delta_propagation else None
        )
        self.profiler = profiler
        # The structured event stream (repro.obs): a trace writer, a live
        # consumer, or a MultiSink of several.  Without one every
        # emission site below reduces to one ``is None`` check.
        self._obs = sink
        self.max_events = max_events if max_events is not None else 100_000 + 1_000 * n * n
        self._needs_step: set[int] = set(participants)
        self._undecided: set[int] = set(participants)
        self._crashed: set[int] = set()
        self._start_times: dict[int, int] = {}
        if self._obs is not None:
            for process in self.processes:
                process.obs = self._make_obs_hook(process.pid)

    def _make_obs_hook(self, pid: int):
        """Emission channel handed to each process: its lifecycle events,
        register writes, coin flips and protocol-level annotations,
        stamped with the logical clock."""

        metrics = self.metrics

        def hook(etype: str, fields: dict) -> None:
            self._obs.emit(Event(metrics.events_executed, etype, pid, fields))

        return hook

    @property
    def clock(self) -> int:
        """The logical clock: the number of actions executed so far.

        It is ``metrics.events_executed`` itself rather than a second
        counter kept beside it, so the two cannot drift apart and the
        hot loop pays one increment per action, not two.
        """
        return self.metrics.events_executed

    # ------------------------------------------------------------------
    # Adversary-facing inspection API
    # ------------------------------------------------------------------

    @property
    def steppable(self) -> set[int]:
        """Pids for which a Step action would make progress right now.

        A participant is steppable when it has not started yet, or when its
        outstanding ``communicate`` call has already reached its quorum.
        The returned set is live; adversaries must not mutate it.
        """
        return self._needs_step

    @property
    def crashed(self) -> frozenset[int]:
        """The crashed processor ids, as an immutable set."""
        return frozenset(self._crashed)

    @property
    def undecided(self) -> frozenset[int]:
        """Alive participants that have not yet returned."""
        return frozenset(self._undecided)

    @property
    def crashes_remaining(self) -> int:
        """How many more crashes the ``t <= ceil(n/2) - 1`` budget allows."""
        return self.crash_budget - len(self._crashed)

    def process(self, pid: int) -> Process:
        """The runtime state of processor ``pid`` (adversaries may read it)."""
        return self.processes[pid]

    def has_enabled_action(self) -> bool:
        """True iff a delivery or a useful step is currently possible."""
        return bool(self.in_flight) or bool(self._needs_step)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, require_termination: bool = True) -> SimulationResult:
        """Drive the simulation until all alive participants decide.

        The adversary's :meth:`~repro.adversary.base.Adversary.actions`
        generator is built once, after ``setup``, and drained: each action
        it yields executes before it is resumed again.

        Raises :class:`SimulationLimitError` if the event budget runs out
        and :class:`QuiescenceError` (when ``require_termination``) if the
        system goes quiet with undecided participants — the expected
        outcome when more than ``ceil(n/2) - 1`` processors were crashed.
        """
        self.adversary.setup(self)
        if self._undecided:
            actions = self.adversary.actions(self)
            if self.profiler is None:
                self._drain(actions)
            else:
                self._drain_profiled(actions)
        if require_termination and self._undecided:
            raise QuiescenceError(
                f"participants {sorted(self._undecided)} never decided"
            )
        return self._result()

    def _drain(self, actions: Iterator[Action | None]) -> None:
        """Execute ``actions`` until every participant decided or the adversary passes.

        The hot loop of every unprofiled run: one delivery costs a resume
        of the adversary's generator, a type check and the ``_deliver``
        call, with no dispatch frame in between (:meth:`execute` is the
        same dispatch for hand-driven actions).
        """
        undecided = self._undecided
        metrics = self.metrics
        max_events = self.max_events
        deliver, step, crash = self._deliver, self._step, self._crash
        for action in actions:
            if metrics.events_executed >= max_events:
                raise self._limit_error()
            if action is None:
                break
            metrics.events_executed += 1
            kind = type(action)
            # Deliver first: deliveries dominate the action mix.
            if kind is Deliver:
                deliver(action)
            elif kind is Step:
                step(action.pid)
            elif kind is Crash:
                crash(action.pid)
            else:
                raise AdversaryProtocolError(f"unknown action: {action!r}")
            if not undecided:
                return
        self._check_quiescent()

    def _drain_profiled(self, actions: Iterator[Action | None]) -> None:
        """:meth:`_drain` with every resume of ``actions`` timed as an
        ``adversary.choose`` span and every action run through
        :meth:`execute` inside its ``execute.*`` span."""
        span = self.profiler.span
        undecided = self._undecided
        while True:
            with span("adversary.choose"):
                action = next(actions, None)
            if self.metrics.events_executed >= self.max_events:
                raise self._limit_error()
            if action is None:
                break
            with span(_ACTION_SPANS.get(type(action), "execute.unknown")):
                self.execute(action)
            if not undecided:
                return
        self._check_quiescent()

    def _limit_error(self) -> SimulationLimitError:
        return SimulationLimitError(
            f"exceeded {self.max_events} events with "
            f"{len(self._undecided)} undecided participants"
        )

    def _check_quiescent(self) -> None:
        """The adversary passed (or its actions ran out): only legal at quiescence."""
        if self.has_enabled_action():
            raise AdversaryProtocolError(
                "adversary passed while actions were still enabled"
            )

    def execute(self, action: Action) -> None:
        """Apply one adversary-chosen action."""
        self.metrics.events_executed += 1
        kind = type(action)
        if kind is Deliver:
            self._deliver(action)
        elif kind is Step:
            self._step(action.pid)
        elif kind is Crash:
            self._crash(action.pid)
        else:
            raise AdversaryProtocolError(f"unknown action: {action!r}")

    def _result(self) -> SimulationResult:
        decisions = {}
        for process in self.processes:
            if process.decided:
                assert process.decide_time is not None
                decisions[process.pid] = Decision(
                    pid=process.pid,
                    result=process.result,
                    start_time=self._start_times[process.pid],
                    decide_time=process.decide_time,
                )
        return SimulationResult(
            n=self.n,
            decisions=decisions,
            metrics=self.metrics,
            undecided=frozenset(self._undecided),
            crashed=frozenset(self._crashed),
            start_times=dict(self._start_times),
        )

    # ------------------------------------------------------------------
    # Action semantics
    # ------------------------------------------------------------------

    def _deliver(self, action: Deliver) -> None:
        """Deliver one in-flight leg, named by ``(slot, desc)``."""
        pool = self.in_flight
        slot, desc = action
        # Inlined InFlightPool.remove / broadcast_of and the Metrics
        # single-field updates below: this method runs once per delivered
        # message (millions of times at n=65536), and the call frames alone
        # cost ~25% of the loop.  An indexed pool's upkeep stays one call,
        # fed the endpoints decoded here.
        descs = pool._descs
        if slot < 0 or slot >= len(descs) or descs[slot] != desc:
            raise KeyError(
                f"descriptor not in flight: slot={slot} desc={desc}"
            )
        last = descs.pop()
        if slot < len(descs):
            descs[slot] = last
        broadcast = pool._broadcasts[desc >> BROADCAST_SHIFT]
        endpoint = desc & PID_MASK
        reply = desc & REPLY_BIT
        if pool._indexed:
            if reply:
                pool._unindex(slot, desc, last, endpoint, broadcast.sender)
            else:
                pool._unindex(slot, desc, last, broadcast.sender, endpoint)
        metrics = self.metrics
        metrics.deliveries += 1
        obs = self._obs
        if reply:
            # Reply leg: fold the ack into the broadcaster's pending call.
            if obs is not None:
                self._emit_leg(EventType.MSG_DELIVER, desc)
            process = self.processes[broadcast.sender]
            if process.status is _CRASHED:
                # A reply delivered to a crashed broadcaster vanishes
                # before any accounting, delta watermarks included (the
                # crashed sender never sends again, so the lost fold is
                # unobservable).
                if broadcast.views is not None:
                    broadcast.views.pop(endpoint, None)
                return
            if broadcast.kind is _PROPAGATE:
                tracker = broadcast.tracker
                if tracker is not None:
                    # Before the staleness check: an ACK arriving after
                    # its call resolved still proves the recipient merged
                    # that call's payload.
                    tracker.on_ack(endpoint, broadcast.call_id)
                view = None
            else:
                view = broadcast.views.pop(endpoint)
            if process.ack(broadcast.call_id, view):
                self._needs_step.add(broadcast.sender)
            return
        if obs is not None:
            self._emit_leg(EventType.MSG_DELIVER, desc)
        recipient = self.processes[endpoint]
        if recipient.status is _CRASHED:
            return  # delivered into the void; faulty processors never reply
        if broadcast.kind is _PROPAGATE:
            entries = broadcast.entries
            tracker = broadcast.tracker
            if tracker is not None:
                entries = tracker.payload_for(
                    endpoint, broadcast.var, broadcast.entries,
                    broadcast.ticks, broadcast.cache,
                )
            if entries:
                # Empty payloads (fully delta-suppressed) skip the merge
                # call outright — merging {} is a no-op anyway.
                recipient.registers.merge(broadcast.var, entries)
            cells = 0
            metrics.messages_by_kind[_ACK] += 1
        else:
            # COLLECT: capture the responder's memoized value view at
            # request-delivery time (its registers may change before the
            # reply leg lands).
            view = recipient.registers.value_view(broadcast.var)
            broadcast.views[endpoint] = view
            cells = len(view)
            metrics.messages_by_kind[_COLLECT_REPLY] += 1
            metrics.payload_cells += cells
        # pool.add_reply, inlined: the index upkeep reuses the sender
        # decoded above.
        reply_desc = desc | REPLY_BIT
        descs.append(reply_desc)
        if pool._indexed:
            pool._index_reply(reply_desc, broadcast.sender)
        # The rest of Metrics.record_send(endpoint, kind, cells), inlined.
        metrics.messages_total += 1
        metrics.messages_sent_by[endpoint] += 1
        if obs is not None:
            self._emit_leg(EventType.MSG_SEND, reply_desc, cells=cells)

    def _emit_leg(self, etype: str, desc: int, cells: int | None = None) -> None:
        """Emit a ``msg.send`` / ``msg.deliver`` event for one leg.

        The fields are read straight from the broadcast's columns.
        ``msg.send`` events also carry the leg's logical payload size in
        ``cells``.
        """
        pool = self.in_flight
        broadcast = pool.broadcast_of(desc)
        sender, recipient = pool.endpoints_of(desc)
        fields = {
            "kind": pool.kind_of(desc).value,
            "src": sender,
            "dst": recipient,
            "call": broadcast.call_id,
            "var": broadcast.var,
        }
        if cells is None:
            pid = recipient
        else:
            pid = sender
            fields["cells"] = cells
        self._obs.emit(Event(self.metrics.events_executed, etype, pid, fields))

    def _step(self, pid: int) -> None:
        process = self.processes[pid]
        if process.status is ProcessStatus.CRASHED:
            raise AdversaryProtocolError(f"cannot step crashed processor {pid}")
        self.metrics.steps += 1
        process.steps_taken += 1
        if self._obs is not None:
            self._obs.emit(Event(self.clock, EventType.SCHED_STEP, pid, _NO_FIELDS))
        if process.status is ProcessStatus.IDLE:
            self._start_times[pid] = self.clock
            process.start()
            self._advance(process, None)
        while (
            process.status is ProcessStatus.RUNNING
            and process.pending is not None
            and process.pending.satisfied
        ):
            pending, process.pending = process.pending, None
            self._advance(process, pending.result())
        self._needs_step.discard(pid)

    def _crash(self, pid: int) -> None:
        if self.crashes_remaining <= 0:
            raise CrashBudgetError(
                f"crash budget {self.crash_budget} exhausted; cannot crash {pid}"
            )
        process = self.processes[pid]
        if process.status is ProcessStatus.CRASHED:
            raise AdversaryProtocolError(f"processor {pid} is already crashed")
        process.status = ProcessStatus.CRASHED
        self._crashed.add(pid)
        self._needs_step.discard(pid)
        self._undecided.discard(pid)
        self.metrics.crashes += 1
        if self._obs is not None:
            self._obs.emit(Event(self.clock, EventType.SCHED_CRASH, pid, _NO_FIELDS))

    # ------------------------------------------------------------------
    # Coroutine advancement
    # ------------------------------------------------------------------

    def _advance(self, process: Process, send_value: Any) -> None:
        request = process.resume(send_value)
        if request is None:
            process.decide_time = self.clock
            self._undecided.discard(process.pid)
            return
        self._issue_communicate(process, request)

    def _issue_communicate(self, process: Process, request: Request) -> None:
        pending = process.begin_call(request)
        call_id = pending.call_id
        self.metrics.record_comm_call(process.pid)
        pid = process.pid
        var = request.var
        tracker = None
        send_ticks: Mapping[Any, int] | None = None
        if isinstance(request, Propagate):
            # One payload mapping per communicate call, shared (frozen,
            # copy-on-write — see RegisterFile.entries) by all n-1 legs.
            entries = process.registers.entries(request.var, request.keys)
            kind = MessageKind.PROPAGATE
            # ``cells`` is the logical payload size; delta mode may ship
            # fewer physical entries per recipient but reports this.
            cells = len(entries)
            if self._delta is not None:
                tracker = self._delta.get(pid)
                if tracker is None:
                    tracker = self._delta[pid] = DeltaTracker()
                send_ticks = tracker.begin_call(
                    call_id, var, entries, process.registers.mod_ticks(var)
                )
        else:
            entries = None
            kind = MessageKind.COLLECT
            cells = 0
        # One Broadcast record plus n-1 packed descriptors (two C-speed
        # range-extends).  Delta payloads are computed lazily at delivery
        # time against the send-time tick snapshot the tracker recorded.
        broadcast = self.in_flight.open_broadcast(
            pid, call_id, kind, var, self.n,
            entries=entries, ticks=send_ticks, tracker=tracker,
        )
        self.metrics.record_send_batch(pid, kind, cells, self.n - 1)
        if self._obs is not None:
            base = broadcast.base
            for recipient in range(self.n):
                if recipient != pid:
                    self._emit_leg(EventType.MSG_SEND, base | recipient, cells)
        if pending.satisfied:
            # Degenerate quorums (n == 1): resolvable without remote acks.
            self._needs_step.add(pid)

    @property
    def delta_stats(self) -> dict[str, int]:
        """Physical delta-propagation savings, summed over all senders.

        Diagnostics only: ``Metrics``/events always report logical payload
        sizes, so these counters are the *only* place full and delta runs
        differ.  All zeros when ``delta_propagation=False`` or nothing was
        suppressed.
        """
        stats = {
            "full_payloads": 0,
            "delta_payloads": 0,
            "empty_payloads": 0,
            "cells_suppressed": 0,
        }
        if self._delta:
            for tracker in self._delta.values():
                stats["full_payloads"] += tracker.full_payloads
                stats["delta_payloads"] += tracker.delta_payloads
                stats["empty_payloads"] += tracker.empty_payloads
                stats["cells_suppressed"] += tracker.cells_suppressed
        return stats
