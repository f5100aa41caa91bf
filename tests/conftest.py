"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.adversary import (
    BubbleAdversary,
    CoinAwareAdversary,
    EagerAdversary,
    ObliviousAdversary,
    QuorumSplitAdversary,
    RandomAdversary,
    RoundRobinAdversary,
    SequentialAdversary,
)
from repro.check.invariants import PROTOCOLS, evaluate_run

#: Names of every registry adversary that is safe for any protocol.
ALL_ADVERSARY_NAMES = (
    "random",
    "eager",
    "round_robin",
    "oblivious",
    "sequential",
    "coin_aware",
    "quorum_split",
    "bubble",
)


def fresh_adversary(name: str, seed: int = 0):
    """A new adversary instance for one run.

    Since the setup() reuse contract (see ``repro.adversary.base``),
    instances reset their per-run state and may drive multiple runs; a
    fresh instance per run is still the simplest way to keep tests
    independent.
    """
    factories = {
        "random": lambda: RandomAdversary(seed=seed),
        "eager": lambda: EagerAdversary(),
        "round_robin": lambda: RoundRobinAdversary(),
        "oblivious": lambda: ObliviousAdversary(seed=seed),
        "sequential": lambda: SequentialAdversary(),
        "coin_aware": lambda: CoinAwareAdversary(),
        "quorum_split": lambda: QuorumSplitAdversary(),
        "bubble": lambda: BubbleAdversary(),
    }
    return factories[name]()


@pytest.fixture(params=ALL_ADVERSARY_NAMES)
def adversary_name(request):
    """Parametrized fixture iterating over every scheduling strategy."""
    return request.param


#: The registry protocol whose invariant set judges each task.
TASK_PROTOCOLS = {
    "elect": "leader_election",
    "sift": "poison_pill",
    "rename": "renaming",
}


def violated(task: str, result, k: int | None = None) -> list[str]:
    """Names of the registry invariants a finished ``result`` violates.

    ``result`` is a bare :class:`~repro.sim.runtime.SimulationResult`
    (no captured event stream); ``k`` defaults to ``n``, i.e. every
    processor participated.
    """
    run = SimpleNamespace(
        n=result.n, k=result.n if k is None else k, result=result
    )
    return [
        name for name, _ in evaluate_run(PROTOCOLS[TASK_PROTOCOLS[task]], run)
    ]
