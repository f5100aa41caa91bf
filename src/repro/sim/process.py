"""Per-processor runtime state and the algorithm-facing API.

A :class:`Process` owns a register view, at most one outstanding
communicate call, and (for participants) the algorithm coroutine.  All n
processors — participants or not — service PROPAGATE/COLLECT requests when
the adversary delivers them; this is the standing assumption of the model
(Section 2: non-faulty processors always reply, even after they return).

Algorithms never touch :class:`Process` directly; they receive a
:class:`ProcessAPI` facade exposing exactly the operations the paper's
pseudocode uses: local register writes/reads, biased coin flips, and the
identity/participant-count constants.

A :class:`Process` is also the one emitter of its own lifecycle events
— ``proc.start``, ``comm.call``, ``comm.done``, ``reg.put`` and
``proc.decide`` — on both backends: the simulator and the socket node
drive it through :meth:`Process.start`, :meth:`Process.resume`,
:meth:`Process.begin_call` and :meth:`Process.ack`, and differ only in
the clock their emission channel stamps and in how replies reach it.
"""

from __future__ import annotations

import random
from enum import Enum
from typing import Any, Callable, Generator, Hashable

from ..obs.events import EventType
from .communicate import Collect, PendingCall, Propagate, Request
from .errors import ProcessProtocolError
from .registers import POLICY_VERSION, RegisterFile
from .rng import CoinLog

AlgorithmCoroutine = Generator[Request, Any, Any]
AlgorithmFactory = Callable[["ProcessAPI"], AlgorithmCoroutine]


class ProcessStatus(Enum):
    """Lifecycle states of a simulated processor."""
    IDLE = "idle"          # participant whose coroutine has not been started
    RUNNING = "running"    # participant mid-protocol
    DONE = "done"          # participant returned a value
    RESPONDER = "responder"  # non-participant; replies to messages only
    CRASHED = "crashed"


class Process:
    """Runtime state of one processor."""

    __slots__ = (
        "pid",
        "n",
        "status",
        "registers",
        "pending",
        "coroutine",
        "factory",
        "result",
        "rng",
        "coins",
        "comm_calls",
        "steps_taken",
        "failure",
        "decide_time",
        "obs",
    )

    def __init__(
        self,
        pid: int,
        n: int,
        rng: random.Random | None,
        factory: AlgorithmFactory | None = None,
    ) -> None:
        self.pid = pid
        self.n = n
        #: The coin stream; ``None`` for a responder, which never flips.
        self.rng = rng
        self.registers = RegisterFile()
        self.pending: PendingCall | None = None
        self.factory = factory
        self.coroutine: AlgorithmCoroutine | None = None
        self.status = ProcessStatus.IDLE if factory is not None else ProcessStatus.RESPONDER
        self.result: Any = None
        self.coins = CoinLog()
        self.comm_calls = 0
        self.steps_taken = 0
        self.failure: BaseException | None = None
        self.decide_time: int | None = None
        #: Structured-event emission channel ``(etype, fields)``, which
        #: stamps the backend's clock and this pid; set by the simulation
        #: or the socket node when an event sink is attached.  ``None``
        #: means observability is off and emission sites cost one check.
        self.obs: Callable[..., None] | None = None

    @property
    def is_participant(self) -> bool:
        """True iff this processor runs a protocol in this execution."""
        return self.factory is not None

    @property
    def alive(self) -> bool:
        """True until the adversary crashes this processor."""
        return self.status is not ProcessStatus.CRASHED

    @property
    def decided(self) -> bool:
        """True once the protocol coroutine returned a decision."""
        return self.status is ProcessStatus.DONE

    def start(self) -> AlgorithmCoroutine:
        """Instantiate the algorithm coroutine (first computation step)."""
        assert self.factory is not None and self.coroutine is None
        if self.obs is not None:
            self.obs(EventType.PROC_START, {})
        self.coroutine = self.factory(ProcessAPI(self))
        self.status = ProcessStatus.RUNNING
        return self.coroutine

    def resume(self, value: Any) -> Request | None:
        """Run the coroutine to its next request; ``None`` once it returned.

        On return the process is DONE with its ``result`` stored and
        ``proc.decide`` emitted.  Anything yielded other than a
        ``Propagate`` or ``Collect`` raises :class:`ProcessProtocolError`.
        """
        try:
            request = self.coroutine.send(value)
        except StopIteration as stop:
            self.status = ProcessStatus.DONE
            self.result = stop.value
            if self.obs is not None:
                # The value itself: the sink's ``json_safe`` renders it.
                self.obs(EventType.PROC_DECIDE, {"result": stop.value})
            return None
        if not isinstance(request, (Propagate, Collect)):
            raise ProcessProtocolError(
                f"processor {self.pid} yielded {request!r}; expected a "
                "Propagate or Collect request"
            )
        return request

    def begin_call(self, request: Request) -> PendingCall:
        """Open one ``communicate`` call: count it, emit ``comm.call``, and
        store and return its :class:`PendingCall` as :attr:`pending`.

        The call's id is its ordinal among this processor's calls (the
        first is 1), so ``(pid, call)`` names one call on both backends.

        ``keys`` is the Propagate's key tuple, or ``None`` for a Collect
        or an all-keys Propagate; with the sender's ``reg.put`` history
        it names the entries the call's PROPAGATE legs carry.  The call
        waits for ``n // 2`` remote replies (a quorum of ``n // 2 + 1``
        counting the caller), and a Collect's first view is the caller's
        own.  With ``n == 1`` the quorum is already complete, so
        ``comm.done`` follows at once.
        """
        self.comm_calls += 1
        call_id = self.comm_calls
        obs = self.obs
        collect = isinstance(request, Collect)
        if obs is not None:
            obs(EventType.COMM_CALL, {
                "call": call_id,
                "kind": "collect" if collect else "propagate",
                "var": request.var,
                "keys": None if collect else request.keys,
            })
        pending = self.pending = PendingCall(
            call_id, request, self.n // 2,
            views=[self.registers.value_view(request.var)] if collect else None,
        )
        if not pending.needed and obs is not None:
            obs(EventType.COMM_DONE, {"call": call_id, "acks": 0})
        return pending

    def ack(self, call_id: int, view: dict[Hashable, Any] | None = None) -> bool:
        """Fold one reply into the pending call; True iff it completed the quorum.

        A reply for any call other than :attr:`pending` is stale and
        ignored.  Otherwise the reply is counted (and a Collect reply's
        ``view`` kept, also past the quorum), and the reply that
        completes the quorum emits the call's one ``comm.done``.
        """
        pending = self.pending
        if pending is None or pending.call_id != call_id:
            return False
        pending.acks += 1
        if view is not None:
            pending.views.append(view)
        if pending.acks != pending.needed:
            return False
        if self.obs is not None:
            self.obs(EventType.COMM_DONE, {"call": call_id, "acks": pending.acks})
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Process(pid={self.pid}, status={self.status.value})"


class ProcessAPI:
    """The facade through which algorithm code observes and mutates state.

    Mirrors the pseudocode's local operations: array writes like
    ``Status[i] <- Commit`` become :meth:`put`, reads become :meth:`get` /
    :meth:`view`, and the biased ``random(...)`` calls become
    :meth:`flip`.  Communication happens by ``yield``-ing
    :class:`~repro.sim.communicate.Propagate` / ``Collect`` requests, not
    through this facade, so the runtime retains full scheduling control.
    """

    __slots__ = ("_process",)

    def __init__(self, process: Process) -> None:
        self._process = process

    @property
    def pid(self) -> int:
        """This processor's unique identifier."""
        return self._process.pid

    @property
    def n(self) -> int:
        """Total number of processors in the system."""
        return self._process.n

    def put(self, var: str, key: Hashable, value: Any, policy: str = POLICY_VERSION) -> None:
        """Local register write (visible to others only after Propagate)."""
        process = self._process
        process.registers.put(var, key, value, policy)
        obs = process.obs
        if obs is not None:
            obs(EventType.REG_PUT, {"var": var, "key": key, "value": value})

    def get(self, var: str, key: Hashable, default: Any = None) -> Any:
        """Read this processor's current view of ``var[key]``."""
        return self._process.registers.get(var, key, default)

    def view(self, var: str) -> dict[Hashable, Any]:
        """Snapshot this processor's whole view of ``var``."""
        return self._process.registers.view(var)

    def flip(self, probability: float, label: str = "coin") -> int:
        """Flip a biased coin: 1 with ``probability``, else 0.

        The outcome is appended to the processor's coin log, which the
        strong adaptive adversary may inspect before scheduling further
        steps — faithfully modelling the paper's adversary.
        """
        process = self._process
        value = 1 if process.rng.random() < probability else 0
        process.coins.record(label, value)
        obs = process.obs
        if obs is not None:
            obs("coin.flip", {"label": label, "p": probability, "value": value})
        return value

    def choice(self, options: list, label: str = "choice") -> Any:
        """Uniform random choice among ``options``, logged like a flip."""
        if not options:
            raise ValueError("cannot choose from an empty sequence")
        process = self._process
        index = process.rng.randrange(len(options))
        process.coins.record(label, index)
        obs = process.obs
        if obs is not None:
            obs("coin.choice", {"label": label, "index": index, "options": len(options)})
        return options[index]

    def annotate(self, etype: str, **fields: Any) -> None:
        """Emit a protocol-level structured event (phase/round transitions).

        A no-op unless the simulation has an event sink attached, so
        algorithms annotate unconditionally; see
        :class:`repro.obs.events.EventType` for the schema.
        """
        obs = self._process.obs
        if obs is not None:
            obs(etype, fields)
