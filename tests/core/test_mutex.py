"""Tests for the mutual-exclusion extension (leader-election epochs)."""

from __future__ import annotations

import pytest

from repro.core.extensions.mutex import (
    assert_mutual_exclusion,
    critical_section_intervals,
    make_lock_once,
)
from repro.obs.events import Event, EventType, ListSink
from repro.obs.jsonl import iter_events, write_events
from repro.sim import Simulation

from ..conftest import ALL_ADVERSARY_NAMES, fresh_adversary


def run_lock(n, k, adversary, seed, critical_steps=1):
    """Run ``k`` lock clients; returns the result and the event stream."""
    sink = ListSink()
    sim = Simulation(
        n,
        {pid: make_lock_once(critical_steps=critical_steps) for pid in range(k)},
        adversary,
        seed=seed,
        sink=sink,
    )
    result = sim.run()
    return result, sink.events


def cs_put(time, pid, marker, epoch):
    """A forged ``reg.put`` of one critical-section marker."""
    return Event(
        time, EventType.REG_PUT, pid,
        {"var": "mx.cs", "key": pid, "value": (marker, epoch)},
    )


class TestMutualExclusion:
    @pytest.mark.parametrize("name", ALL_ADVERSARY_NAMES)
    def test_no_overlap_every_adversary(self, name):
        _, events = run_lock(7, 4, fresh_adversary(name, 3), seed=3)
        intervals = assert_mutual_exclusion(events)
        assert len(intervals) == 4  # every client entered exactly once

    @pytest.mark.parametrize("seed", range(8))
    def test_no_overlap_many_seeds(self, seed):
        _, events = run_lock(6, 4, fresh_adversary("random", seed), seed=seed)
        assert_mutual_exclusion(events)

    def test_longer_critical_sections(self):
        _, events = run_lock(
            6, 3, fresh_adversary("random", 5), seed=5, critical_steps=4
        )
        intervals = assert_mutual_exclusion(events)
        for _pid, _epoch, enter, exit_ in intervals:
            assert exit_ > enter

    def test_epochs_are_distinct_and_contiguous(self):
        _, events = run_lock(6, 4, fresh_adversary("random", 6), seed=6)
        epochs = sorted(epoch for _pid, epoch, _e, _x in
                        critical_section_intervals(events))
        assert epochs == list(range(4))

    def test_every_client_acquires_exactly_once(self):
        result, _ = run_lock(7, 5, fresh_adversary("random", 7), seed=7)
        held = sorted(result.outcomes.values())
        assert held == list(range(5))  # epochs 0..4, one per client

    def test_solo_client(self):
        result, events = run_lock(5, 1, fresh_adversary("eager"), seed=0)
        assert result.outcomes[0] == 0
        assert len(critical_section_intervals(events)) == 1

    def test_checker_requires_events(self):
        with pytest.raises(ValueError, match="event stream"):
            critical_section_intervals([])

    def test_intervals_from_a_recorded_file(self, tmp_path):
        """The extractor reads only event fields, so a ``.jsonl`` recording
        of the run yields the same intervals as its live stream."""
        _, events = run_lock(7, 4, fresh_adversary("random", 3), seed=3)
        path = str(tmp_path / "lock.jsonl")
        write_events(path, events)
        live = critical_section_intervals(events)
        assert len(live) == 4
        assert critical_section_intervals(iter_events(path)) == live


class TestCheckerDetectsViolations:
    def test_synthetic_overlap_rejected(self):
        """Feed the checker a forged overlapping history."""
        events = [
            cs_put(1, 0, "enter", 0),
            cs_put(2, 1, "enter", 1),  # overlap!
            cs_put(3, 0, "exit", 0),
            cs_put(4, 1, "exit", 1),
        ]
        with pytest.raises(AssertionError, match="mutual exclusion violated"):
            assert_mutual_exclusion(events)

    def test_unclosed_section_counts_as_held(self):
        intervals = critical_section_intervals([cs_put(1, 0, "enter", 0)])
        assert intervals == [(0, 0, 1, 2**63)]
