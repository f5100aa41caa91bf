"""Hypothesis-driven adversarial schedules.

Instead of hand-written strategies, let hypothesis *be* the adversary: it
supplies an arbitrary finite decision string, which a data-driven
adversary turns into deliver/step/crash choices; once the string runs out
the fallback keeps the run live.  Shrinking then searches for the
smallest schedule violating a safety property — none may exist, under any
schedule, for the invariants below.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.base import Adversary, fallback_action
from repro.core import (
    Outcome,
    make_get_name,
    make_heterogeneous_poison_pill,
    make_leader_elect,
    make_poison_pill,
)
from repro.harness.runners import LeaderElectionReport
from repro.sim import Crash, Simulation, Step

from ..conftest import violated


class DataDrivenAdversary(Adversary):
    """Plays out a finite decision string, then falls back to fair play.

    Each decision byte selects an action class and an index: crashes are
    attempted only while the budget lasts, so every generated schedule is
    admissible by construction.
    """

    name = "data_driven"

    def __init__(self, decisions, allow_crashes=True):
        self._decisions = list(decisions)
        self._position = 0
        self._allow_crashes = allow_crashes

    def choose(self, sim):
        while self._position < len(self._decisions):
            decision = self._decisions[self._position]
            self._position += 1
            kind = decision % 4
            index = decision // 4
            if kind == 0 and sim.in_flight:
                pool = sim.in_flight
                return pool.action_at(index % len(pool))
            if kind == 1 and sim.steppable:
                candidates = sorted(sim.steppable)
                return Step(candidates[index % len(candidates)])
            if (
                kind == 2
                and self._allow_crashes
                and sim.crashes_remaining > 0
            ):
                alive = [pid for pid in range(sim.n) if pid not in sim.crashed]
                if alive:
                    return Crash(alive[index % len(alive)])
            # kind == 3 (or nothing enabled for this kind): consume and retry.
        return fallback_action(sim)


decision_strings = st.lists(st.integers(min_value=0, max_value=255), max_size=120)


@settings(max_examples=40, deadline=None)
@given(decisions=decision_strings, seed=st.integers(min_value=0, max_value=2**16))
def test_poison_pill_safety_under_arbitrary_schedules(decisions, seed):
    n = 6
    sim = Simulation(
        n,
        {pid: make_poison_pill() for pid in range(n)},
        DataDrivenAdversary(decisions, allow_crashes=False),
        seed=seed,
    )
    result = sim.run()
    assert violated("sift", result) == []
    survivors = sum(
        1 for d in result.decisions.values() if d.result is Outcome.SURVIVE
    )
    assert survivors >= 1


@settings(max_examples=40, deadline=None)
@given(decisions=decision_strings, seed=st.integers(min_value=0, max_value=2**16))
def test_heterogeneous_safety_under_arbitrary_schedules(decisions, seed):
    n = 6
    sim = Simulation(
        n,
        {pid: make_heterogeneous_poison_pill() for pid in range(n)},
        DataDrivenAdversary(decisions, allow_crashes=False),
        seed=seed,
    )
    result = sim.run()
    assert violated("sift", result) == []
    assert any(d.result is Outcome.SURVIVE for d in result.decisions.values())


@settings(max_examples=30, deadline=None)
@given(decisions=decision_strings, seed=st.integers(min_value=0, max_value=2**16))
def test_leader_election_safety_under_arbitrary_schedules(decisions, seed):
    n = 5
    sim = Simulation(
        n,
        {pid: make_leader_elect() for pid in range(n)},
        DataDrivenAdversary(decisions, allow_crashes=False),
        seed=seed,
    )
    result = sim.run()
    assert violated("elect", result) == []
    assert LeaderElectionReport.of(result).winner is not None


@settings(max_examples=30, deadline=None)
@given(decisions=decision_strings, seed=st.integers(min_value=0, max_value=2**16))
def test_leader_election_safety_with_crashes(decisions, seed):
    """With generated crash injections: at most one winner, losers only
    after a linearizable winner candidate, alive participants decide."""
    n = 5
    sim = Simulation(
        n,
        {pid: make_leader_elect() for pid in range(n)},
        DataDrivenAdversary(decisions, allow_crashes=True),
        seed=seed,
    )
    result = sim.run(require_termination=False)
    assert not result.undecided  # crash budget < n/2 keeps quorums alive
    assert violated("elect", result) == []


@settings(max_examples=20, deadline=None)
@given(decisions=decision_strings, seed=st.integers(min_value=0, max_value=2**16))
def test_renaming_safety_under_arbitrary_schedules(decisions, seed):
    n = 5
    sim = Simulation(
        n,
        {pid: make_get_name() for pid in range(n)},
        DataDrivenAdversary(decisions, allow_crashes=False),
        seed=seed,
    )
    result = sim.run()
    assert violated("rename", result) == []
    assert sorted(result.outcomes.values()) == list(range(n))


@settings(max_examples=20, deadline=None)
@given(decisions=decision_strings, seed=st.integers(min_value=0, max_value=2**16))
def test_renaming_safety_with_crashes(decisions, seed):
    n = 5
    sim = Simulation(
        n,
        {pid: make_get_name() for pid in range(n)},
        DataDrivenAdversary(decisions, allow_crashes=True),
        seed=seed,
    )
    result = sim.run(require_termination=False)
    assert not result.undecided
    assert violated("rename", result) == []
