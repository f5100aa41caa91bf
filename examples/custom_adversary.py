#!/usr/bin/env python
"""Extending the library: write your own adversary and attack a protocol.

An adversary implements either ``choose(sim) -> Action | None``, asked
once per action, or ``actions(sim)``, a generator of actions resumed
after each one executes (the built-in scanning schedulers do that, to
keep bound locals across actions).  Either way it has full read access
to the simulation — in-flight messages, register views, and every coin
any processor flipped.  This demo builds a "grudge"
adversary that singles out one processor and starves its traffic for as
long as something else can make progress, then verifies that leader
election stays correct (and that the victim usually loses — starvation
hurts, but never breaks safety).

Usage::

    python examples/custom_adversary.py [n]
"""

from __future__ import annotations

import sys

from repro import Adversary, run_leader_election
from repro.adversary.base import fallback_action
from repro.check.invariants import PROTOCOLS, evaluate_run
from repro.sim import Step


class GrudgeAdversary(Adversary):
    """Starve one victim: its messages move only when nothing else can."""

    name = "grudge"
    uses_endpoint_indexes = False  # scans pool positions only

    def __init__(self, victim: int) -> None:
        self._victim = victim

    def choose(self, sim):
        # Prefer any delivery that does not involve the victim, newest
        # first.  Pool positions are only valid until the next action.
        pool = sim.in_flight
        for index in range(len(pool) - 1, -1, -1):
            if self._victim not in pool.endpoints_at(index):
                return pool.action_at(index)
        # Prefer stepping anyone but the victim.
        others = [pid for pid in sim.steppable if pid != self._victim]
        if others:
            return Step(min(others))
        # Only victim-related actions remain: let them through (fairness).
        return fallback_action(sim)


def main(n: int = 8) -> None:
    victim = 0

    victim_wins = 0
    for seed in range(10):
        run = run_leader_election(
            n, adversary=GrudgeAdversary(victim), seed=seed, check=False
        )
        # Safety holds regardless: the invariant registry finds nothing.
        violations = evaluate_run(PROTOCOLS["leader_election"], run)
        assert not violations, violations
        if run.winner == victim:
            victim_wins += 1
        print(f"seed {seed}: winner = processor {run.winner}")

    print()
    print(f"victim (processor {victim}) won {victim_wins}/10 races under starvation")
    print("Safety never depends on the schedule: the checker validated every run.")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 8)
