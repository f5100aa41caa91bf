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
"""

from __future__ import annotations

import random
from enum import Enum
from typing import Any, Callable, Generator, Hashable

from .communicate import PendingCall, Request
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
        "messages_sent",
        "failure",
        "decide_time",
        "put_hook",
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
        self.messages_sent = 0
        self.failure: BaseException | None = None
        self.decide_time: int | None = None
        #: Optional observer invoked on every local register write; set by
        #: the simulation when an event sink is attached, so each write
        #: becomes a ``reg.put`` event that analyzers read to replay view
        #: evolution (local writes are not messages and would otherwise be
        #: invisible to the event stream).
        self.put_hook: Callable[[str, Hashable, Any], None] | None = None
        #: Structured-event emission channel ``(etype, fields)``;
        #: set by the simulation when an event sink is attached.  ``None``
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
        self.coroutine = self.factory(ProcessAPI(self))
        self.status = ProcessStatus.RUNNING
        return self.coroutine

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
        self._process.registers.put(var, key, value, policy)
        if self._process.put_hook is not None:
            self._process.put_hook(var, key, value)

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
