"""The task catalogue: every runnable ``(task, algorithm)`` pair, once.

One :class:`ProtocolSpec` row names a protocol, the task it solves
(``elect`` / ``sift`` / ``rename``), the algorithm name the runners, the
CLI and trace headers use, the factory constructor of its coroutine, the
claim it reproduces, and whether it is its task's default.  Both engines
resolve through it: the simulator's runners and the ``repro net`` driver
(the parent and every spawned node) build the coroutine from the same
row, and :mod:`repro.check.invariants` judges runs by it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from ..sim.process import AlgorithmFactory
from .baselines import make_linear_renaming, make_naive_sifter, make_tournament
from .heterogeneous import make_heterogeneous_poison_pill
from .leader_elect import make_leader_elect
from .poison_pill import make_poison_pill
from .renaming import make_get_name


@dataclass(frozen=True, slots=True)
class ProtocolSpec:
    """One catalogue row: how to build a protocol and what it claims.

    ``make`` returns the coroutine factory (``None`` for a protocol no
    runner builds, such as the service).  ``known_bad`` marks deliberately
    broken baselines kept as negative controls: the checker is expected
    to *fail* them.  ``default`` marks the algorithm a task runs when none
    is named.
    """

    name: str
    task: str
    algorithm: str
    make: Callable[..., AlgorithmFactory] | None
    claim: str
    known_bad: bool = False
    default: bool = False


#: Every protocol ``repro check`` can target, including the negative
#: controls (``known_bad=True``) that the checker must be able to fail.
PROTOCOLS: dict[str, ProtocolSpec] = {
    spec.name: spec
    for spec in (
        ProtocolSpec(
            "leader_election", "elect", "poison_pill", make_leader_elect,
            "Figures 4-6: O(log* k) leader election", default=True,
        ),
        ProtocolSpec(
            "leader_election_basic", "elect", "poison_pill_basic",
            partial(make_leader_elect, sifter="poison_pill"),
            "Section 3.1: PoisonPill-round leader election",
        ),
        ProtocolSpec(
            "tournament", "elect", "tournament", make_tournament,
            "[AGTV92] tournament-tree baseline",
        ),
        ProtocolSpec(
            "poison_pill", "sift", "poison_pill", make_poison_pill,
            "Figure 1: PoisonPill sifting phase",
        ),
        ProtocolSpec(
            "heterogeneous", "sift", "heterogeneous",
            make_heterogeneous_poison_pill,
            "Figure 2: Heterogeneous PoisonPill phase", default=True,
        ),
        ProtocolSpec(
            "naive_sifter", "sift", "naive", make_naive_sifter,
            "Introduction: the broken flip-and-tell strawman",
            known_bad=True,
        ),
        ProtocolSpec(
            "renaming", "rename", "paper", make_get_name,
            "Figure 3: strong renaming via test-and-set grid", default=True,
        ),
        ProtocolSpec(
            "linear_renaming", "rename", "linear", make_linear_renaming,
            "[AAG+10]-style linear-scan renaming baseline",
        ),
    )
}

#: The protocols the CI smoke budget sweeps (the real algorithms).
CORE_PROTOCOLS = ("leader_election", "poison_pill", "heterogeneous", "renaming")

#: The tasks a runner, a trace or a socket run can name, in CLI order.
TASKS = tuple(dict.fromkeys(spec.task for spec in PROTOCOLS.values()))

#: ``(task, algorithm)`` to its row; ``(task, None)`` to the task's default.
_BY_PAIR = {
    **{(spec.task, spec.algorithm): spec for spec in PROTOCOLS.values()},
    **{(spec.task, None): spec for spec in PROTOCOLS.values() if spec.default},
}


def algorithms(task: str) -> tuple[str, ...]:
    """The algorithm names ``task`` accepts, in catalogue order."""
    return tuple(spec.algorithm for spec in PROTOCOLS.values() if spec.task == task)


def protocol_for(task: str, algorithm: str | None = None) -> ProtocolSpec:
    """The row running ``algorithm`` for ``task`` (its default when ``None``).

    Raises ``ValueError`` naming the valid tasks or the task's valid
    algorithms.
    """
    spec = _BY_PAIR.get((task, algorithm))
    if spec is not None:
        return spec
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}; expected one of {TASKS}")
    raise ValueError(
        f"unknown algorithm {algorithm!r} for task {task!r}; "
        f"expected one of {algorithms(task)}"
    )
