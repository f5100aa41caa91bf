"""Asynchronous message-passing simulator substrate.

This package implements the classic asynchronous message-passing model of
the paper (Section 2): ``n`` processors, independent point-to-point
channels, adversary-scheduled computation/delivery steps, crash faults,
and the quorum-based ``communicate`` primitive of [ABND95].
"""

from . import pidset
from .communicate import Collect, PendingCall, Propagate, Request
from .errors import (
    AdversaryProtocolError,
    CheckpointError,
    CrashBudgetError,
    ProcessProtocolError,
    QuiescenceError,
    SimulationError,
    SimulationLimitError,
)
from .messages import Broadcast, InFlightPool, MessageKind
from .process import AlgorithmFactory, Process, ProcessAPI, ProcessStatus
from .registers import POLICY_MAX, POLICY_OR, POLICY_VERSION, RegisterFile, merge_entry
from .rng import CoinLog, derive_seed, make_stream
from .runtime import (
    Action,
    Crash,
    Decision,
    Deliver,
    Simulation,
    SimulationResult,
    Step,
)
from .snapshot import SimulationCheckpoint, capture, enable_recording
from .trace import Metrics

__all__ = [
    "Action",
    "AdversaryProtocolError",
    "CheckpointError",
    "SimulationCheckpoint",
    "capture",
    "enable_recording",
    "AlgorithmFactory",
    "Broadcast",
    "CoinLog",
    "Collect",
    "Crash",
    "CrashBudgetError",
    "Decision",
    "Deliver",
    "InFlightPool",
    "MessageKind",
    "Metrics",
    "PendingCall",
    "POLICY_MAX",
    "POLICY_OR",
    "POLICY_VERSION",
    "Process",
    "ProcessAPI",
    "ProcessProtocolError",
    "ProcessStatus",
    "Propagate",
    "QuiescenceError",
    "RegisterFile",
    "Request",
    "Simulation",
    "SimulationError",
    "SimulationLimitError",
    "SimulationResult",
    "Step",
    "derive_seed",
    "make_stream",
    "merge_entry",
    "pidset",
]
