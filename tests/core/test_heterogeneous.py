"""Tests for Heterogeneous PoisonPill (Figure 2, Claims 3.3-3.5, Lemmas 3.6-3.7)."""

from __future__ import annotations

import pytest

from repro.analysis.theory import hpp_survivors
from repro.core import HetStatus, Outcome, PillState, make_heterogeneous_poison_pill
from repro.core.heterogeneous import heterogeneous_bias
from repro.harness import run_sifting_phase
from repro.sim import Simulation, pidset

from ..conftest import ALL_ADVERSARY_NAMES, fresh_adversary


class TestHeterogeneousBias:
    def test_solo_is_certain(self):
        assert heterogeneous_bias(0) == 1.0
        assert heterogeneous_bias(1) == 1.0

    def test_pair_is_half(self):
        assert heterogeneous_bias(2) == pytest.approx(0.5)

    def test_decreasing_for_large_views(self):
        values = [heterogeneous_bias(size) for size in (2, 4, 16, 64, 256)]
        assert values == sorted(values, reverse=True)

    def test_never_exceeds_one(self):
        assert all(0.0 < heterogeneous_bias(size) <= 1.0 for size in range(1, 500))


class TestAtLeastOneSurvivor:
    """Claim 3.1 carries over to the heterogeneous variant."""

    @pytest.mark.parametrize("name", ALL_ADVERSARY_NAMES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_adversary(self, name, seed):
        run = run_sifting_phase(
            n=16, kind="heterogeneous", adversary=fresh_adversary(name, seed), seed=seed
        )
        assert run.survivors >= 1

    def test_solo_participant_survives(self):
        run = run_sifting_phase(
            n=5, k=1, kind="heterogeneous", adversary="eager", seed=0
        )
        assert run.survivors == 1

    @pytest.mark.parametrize("name", ALL_ADVERSARY_NAMES)
    def test_ablation_without_lists_still_safe(self, name):
        # The ablated factory is no catalogue row: the runner checks a
        # simulation built around it.
        adversary = fresh_adversary(name, 7)
        factory = make_heterogeneous_poison_pill(use_lists=False)
        sim = Simulation(12, dict.fromkeys(range(12), factory), adversary, seed=7)
        run = run_sifting_phase(
            n=12, kind="heterogeneous", adversary=adversary, seed=7, simulation=sim
        )
        assert run.survivors >= 1


class TestSurvivorBound:
    """Lemmas 3.6 + 3.7: O(log^2 k) expected survivors."""

    @pytest.mark.parametrize("adversary", ["sequential", "random", "quorum_split"])
    def test_mean_under_bound(self, adversary):
        n, repeats = 32, 12
        total = 0
        for seed in range(repeats):
            total += run_sifting_phase(
                n=n, kind="heterogeneous", adversary=adversary, seed=seed
            ).survivors
        mean = total / repeats
        assert mean <= 1.5 * hpp_survivors(n)


class TestObservedLists:
    """Claim 3.4 realized: under the sequential schedule the i-th processor
    observes exactly the i+1 processors that committed before or with it."""

    def test_sequential_list_sizes(self):
        n = 12
        sim = Simulation(
            n,
            {pid: make_heterogeneous_poison_pill() for pid in range(n)},
            fresh_adversary("sequential"),
            seed=1,
        )
        sim.run()
        for pid in range(n):
            status = sim.processes[pid].registers.get("hpp.Status", pid)
            assert isinstance(status, HetStatus)
            assert pidset.to_frozenset(status.members) == frozenset(range(pid + 1))

    def test_first_sequential_processor_flips_high(self):
        """|l| = 1 forces probability 1, so the first processor to run
        solo always takes high priority — the anchor of Claim A.4."""
        for seed in range(5):
            n = 8
            sim = Simulation(
                n,
                {pid: make_heterogeneous_poison_pill() for pid in range(n)},
                fresh_adversary("sequential"),
                seed=seed,
            )
            result = sim.run()
            first = sim.processes[0]
            assert first.coins.last_value("hpp.coin") == 1
            assert result.outcomes[0] is Outcome.SURVIVE
            status = first.registers.get("hpp.Status", 0)
            assert status.state is PillState.HIGH

    def test_lists_ride_with_priorities(self):
        """Every announced priority carries the announcer's l list."""
        n = 10
        sim = Simulation(
            n,
            {pid: make_heterogeneous_poison_pill() for pid in range(n)},
            fresh_adversary("random", 4),
            seed=4,
        )
        sim.run()
        for process in sim.processes:
            status = process.registers.get("hpp.Status", process.pid)
            assert status.state in (PillState.LOW, PillState.HIGH)
            # everyone observes itself
            assert pidset.contains(status.members, process.pid)


class TestClosureProperty:
    """Claim 3.3: for low-priority survivors, the union of observed lists
    is closed under list membership."""

    @pytest.mark.parametrize("adversary", ["random", "quorum_split", "sequential"])
    @pytest.mark.parametrize("seed", range(4))
    def test_union_closed(self, adversary, seed):
        n = 16
        sim = Simulation(
            n,
            {pid: make_heterogeneous_poison_pill() for pid in range(n)},
            fresh_adversary(adversary, seed),
            seed=seed,
        )
        result = sim.run()
        low_survivors = [
            pid
            for pid, outcome in result.outcomes.items()
            if outcome is Outcome.SURVIVE
            and sim.processes[pid].coins.last_value("hpp.coin") == 0
        ]
        union = pidset.EMPTY
        for pid in low_survivors:
            union |= sim.processes[pid].registers.get("hpp.learned", pid)
        for member in pidset.iter_bits(union):
            # Claim 3.3 (as in its proof): every processor in U flipped 0,
            # and its own l list is contained in U.
            assert sim.processes[member].coins.last_value("hpp.coin") == 0
            status = sim.processes[member].registers.get("hpp.Status", member)
            assert pidset.is_subset(status.members, union)
