"""The incremental coin_aware adversary against a literal reference model.

:class:`CoinAwareAdversary` caches its 1-flipper set between computation
steps and walks its focus order with a monotone cursor.  Both are pure
optimizations, so every run must take exactly the actions — and end with
exactly the result — of :class:`ReferenceCoinAware`, which rebuilds the
set and rescans the order on every call, as the adversary did before the
caching.  Crash wrappers add the two cases the caches must survive: a
crashed 1-flipper stays dirty, and a crashed focus must be skipped.
"""

from __future__ import annotations

import pytest

from repro.adversary import (
    CoinAwareAdversary,
    CrashingAdversary,
    RandomCrashAdversary,
)
from repro.adversary.base import Adversary, fallback_action
from repro.harness.runners import build_task_simulation
from repro.sim import Crash, Deliver, Step


class ReferenceCoinAware(Adversary):
    """The uncached coin_aware adversary, kept verbatim as the oracle."""

    name = "coin_aware_reference"
    uses_endpoint_indexes = True

    def __init__(self) -> None:
        self._started_all = False
        self._order = None
        #: The focus of the most recent post-start-up call, for tests.
        self.last_focus = None

    def setup(self, sim):
        self._started_all = False
        self._order = None

    def _ordered_focus(self, sim):
        if self._order is None:
            def sort_key(pid):
                last = sim.process(pid).coins.last()
                return ((last[1] if last is not None else 0), pid)

            self._order = sorted(sim.undecided, key=sort_key)
        undecided = sim.undecided
        for pid in self._order:
            if pid in undecided:
                return pid
        return None

    def choose(self, sim):
        if not self._started_all:
            for pid in sorted(sim.steppable):
                if sim.process(pid).coroutine is None:
                    return Step(pid)
            self._started_all = True
        focus = self.last_focus = self._ordered_focus(sim)
        if focus is None:
            return fallback_action(sim)
        if focus in sim.steppable:
            return Step(focus)
        dirty = set()
        for process in sim.processes:
            if not process.is_participant or process.pid == focus:
                continue
            last = process.coins.last()
            if last is not None and last[1] == 1:
                dirty.add(process.pid)
        held_back = None
        for desc, sender in sim.in_flight.addressed_to(focus):
            if sender not in dirty:
                return sim.in_flight.action_for(desc)
            held_back = desc
        for desc, recipient in sim.in_flight.sent_by(focus):
            if recipient not in dirty:
                return sim.in_flight.action_for(desc)
            held_back = desc
        if held_back is not None:
            return sim.in_flight.action_for(held_back)
        return fallback_action(sim)


class Recording(Adversary):
    """Forward to ``inner`` and log every action it picks."""

    def __init__(self, inner: Adversary) -> None:
        self._inner = inner
        self.name = inner.name
        self.uses_endpoint_indexes = inner.uses_endpoint_indexes
        self.taken: list[tuple] = []

    def setup(self, sim):
        self.taken = []
        self._inner.setup(sim)

    def actions(self, sim):
        for action in self._inner.actions(sim):
            if isinstance(action, Deliver):
                pool = sim.in_flight
                self.taken.append((
                    "deliver", action.desc, *pool.endpoints_of(action.desc),
                    pool.kind_of(action.desc),
                ))
            elif isinstance(action, (Step, Crash)):
                self.taken.append((type(action).__name__, action.pid))
            else:
                assert action is None, action
            yield action


PROTOCOLS = [
    ("elect", "poison_pill"),
    ("sift", "naive"),
    ("sift", "heterogeneous"),
]
WRAPPERS = ["bare", "random_crash", "crashing"]


def _wrap(wrapper: str, inner: Adversary, n: int, seed: int) -> Adversary:
    if wrapper == "bare":
        return inner
    if wrapper == "random_crash":
        return RandomCrashAdversary(inner, rate=0.05, seed=seed)
    # Crashes spread over start-up, the first focus's run, and later ones.
    return CrashingAdversary(inner, [(n // 2, 0), (3 * n, n - 1), (9 * n, n // 2)])


def _run(task, algorithm, n, seed, adversary):
    recorder = Recording(adversary)
    sim = build_task_simulation(task, algorithm, n, adversary=recorder, seed=seed)
    result = sim.run()
    metrics = result.metrics
    return recorder.taken, (
        result.decisions,
        result.undecided,
        result.crashed,
        result.start_times,
        tuple(getattr(metrics, slot) for slot in type(metrics).__slots__),
    )


@pytest.mark.parametrize("wrapper", WRAPPERS)
@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n", [8, 17, 64])
@pytest.mark.parametrize("task,algorithm", PROTOCOLS)
def test_matches_reference_model(task, algorithm, n, seed, wrapper):
    reference = _run(
        task, algorithm, n, seed, _wrap(wrapper, ReferenceCoinAware(), n, seed)
    )
    incremental = _run(
        task, algorithm, n, seed, _wrap(wrapper, CoinAwareAdversary(), n, seed)
    )
    assert incremental[0] == reference[0]
    assert incremental[1] == reference[1]


@pytest.mark.parametrize("task,algorithm", PROTOCOLS)
def test_crashed_focus_is_skipped(task, algorithm):
    """Crash whichever pid is the focus mid-run; the cursor must move on."""
    n, seed = 17, 2
    probe = ReferenceCoinAware()
    sim = build_task_simulation(task, algorithm, n, adversary=probe, seed=seed)
    probe.setup(sim)
    focus_at = {}
    while sim.undecided:
        action = probe.choose(sim)
        if probe.last_focus is not None:
            focus_at.setdefault(probe.last_focus, sim.metrics.events_executed)
        sim.execute(action)
    # The second focus, crashed at the first event it is the focus.
    victim, at_event = sorted(focus_at.items(), key=lambda item: item[1])[1]
    schedule = [(at_event, victim)]
    reference = _run(
        task, algorithm, n, seed, CrashingAdversary(ReferenceCoinAware(), schedule)
    )
    incremental = _run(
        task, algorithm, n, seed, CrashingAdversary(CoinAwareAdversary(), schedule)
    )
    assert ("Crash", victim) in reference[0]
    assert incremental == reference



class FreshGenerators(Adversary):
    """Forward to ``inner`` through a new ``inner.actions(sim)`` per action."""

    def __init__(self, inner: Adversary) -> None:
        self._inner = inner
        self.name = inner.name
        self.uses_endpoint_indexes = inner.uses_endpoint_indexes

    def setup(self, sim):
        self._inner.setup(sim)

    def actions(self, sim):
        inner = self._inner
        while True:
            yield next(inner.actions(sim))


@pytest.mark.parametrize("crashes", [False, True], ids=["bare", "random_crash"])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [8, 17])
def test_fresh_generator_per_action(n, seed, crashes):
    """Per-run state lives on the adversary, not in generator locals:
    a new ``actions(sim)`` per action takes the drained run's actions."""

    def adversary(fresh):
        inner = CoinAwareAdversary()
        if fresh:
            inner = FreshGenerators(inner)
        return RandomCrashAdversary(inner, rate=0.05, seed=seed) if crashes else inner

    drained = _run("elect", "poison_pill", n, seed, adversary(False))
    fresh = _run("elect", "poison_pill", n, seed, adversary(True))
    assert any(kind == "Crash" for kind, *_ in drained[0]) == crashes
    assert fresh == drained
