"""Unit tests for the call-tree span profiler and its runtime spans."""

from __future__ import annotations

import json

import pytest

from repro.adversary import ADVERSARY_FACTORIES
from repro.core import make_leader_elect
from repro.harness.runners import run_leader_election
from repro.obs.events import ListSink
from repro.obs.jsonl import event_line
from repro.obs.profile import Profiler
from repro.sim.runtime import Simulation
from repro.sim.trace import Metrics


def make_fake_clock(step: float = 1.0):
    state = {"now": 0.0}

    def clock() -> float:
        state["now"] += step
        return state["now"]

    return clock


def by_key(profiler: Profiler) -> dict[tuple[str, str | None], dict]:
    return {(row["span"], row["parent"]): row for row in profiler.rows()}


def test_spans_accumulate_with_injected_clock():
    profiler = Profiler(clock=make_fake_clock())
    for _ in range(3):
        with profiler.span("work"):
            pass
    assert profiler.rows() == [{
        "span": "work", "parent": None, "count": 3,
        # each span: one clock tick of one second
        "incl_ms": 3000.0, "self_ms": 3000.0,
    }]


def test_nested_span_self_time_excludes_children():
    profiler = Profiler(clock=make_fake_clock())
    with profiler.span("outer"):          # enters at t=1
        with profiler.span("inner"):      # t=2 .. t=3
            pass
        with profiler.span("inner"):      # t=4 .. t=5
            pass
    # leaves at t=6
    rows = by_key(profiler)
    assert rows["outer", None]["incl_ms"] == 5000.0
    assert rows["outer", None]["self_ms"] == 3000.0
    assert rows["inner", "outer"]["count"] == 2
    assert rows["inner", "outer"]["incl_ms"] == rows["inner", "outer"]["self_ms"] == 2000.0


def test_one_row_per_span_and_parent():
    profiler = Profiler(clock=make_fake_clock())
    with profiler.span("a"):
        with profiler.span("leaf"):
            pass
    with profiler.span("b"):
        with profiler.span("leaf"):
            pass
        with profiler.span("a"):
            with profiler.span("leaf"):
                pass
    rows = profiler.rows()
    keys = [(row["span"], row["parent"]) for row in rows]
    # "leaf" under "a" on two paths (a and b>a) folds into one row; the
    # same span under another parent is its own row.  Sorted by span, parent.
    assert keys == [("a", None), ("a", "b"), ("b", None), ("leaf", "a"), ("leaf", "b")]
    assert by_key(profiler)["leaf", "a"]["count"] == 2
    json.dumps(rows)  # must be JSON-embeddable as baseline meta


def test_span_closes_when_its_block_raises():
    profiler = Profiler(clock=make_fake_clock())
    with pytest.raises(RuntimeError):
        with profiler.span("outer"):
            with profiler.span("failing"):
                raise RuntimeError("boom")
    with profiler.span("after"):
        pass
    assert set(by_key(profiler)) == {
        ("outer", None), ("failing", "outer"), ("after", None),
    }


def test_runtime_records_spans_when_profiler_attached():
    profiler = Profiler()
    factory = make_leader_elect()
    sim = Simulation(
        n=8,
        participants={pid: factory for pid in range(8)},
        adversary=ADVERSARY_FACTORIES["random"](seed=0),
        seed=0,
        profiler=profiler,
    )
    sim.run()
    rows = by_key(profiler)
    assert {("adversary.choose", None), ("execute.deliver", None),
            ("execute.step", None)} <= set(rows)
    # One choose span per resume: every executed action plus the last one.
    assert rows["adversary.choose", None]["count"] >= sim.metrics.events_executed
    executed = sum(row["count"] for key, row in rows.items()
                   if key[0].startswith("execute."))
    assert executed == sim.metrics.events_executed
    for row in rows.values():
        assert 0.0 <= row["self_ms"] <= row["incl_ms"]


@pytest.mark.parametrize("adversary,crash_schedule", [
    ("random", None),
    ("coin_aware", None),
    ("random", [(0, 7), (40, 3), (90, 5)]),
], ids=["random", "coin_aware", "crashing"])
def test_profiled_run_is_the_same_execution(adversary, crash_schedule):
    def execute(profiler):
        sink = ListSink()
        run = run_leader_election(
            n=12, adversary=adversary, seed=3, crash_schedule=crash_schedule,
            sink=sink, profiler=profiler,
        )
        metrics = {slot: getattr(run.result.metrics, slot) for slot in Metrics.__slots__}
        return run.result.decisions, metrics, [event_line(e) for e in sink.events]

    profiler = Profiler()
    assert execute(profiler) == execute(None)
    spans = {row["span"] for row in profiler.rows()}
    assert {"adversary.choose", "execute.deliver", "execute.step"} <= spans
    if crash_schedule:
        assert "execute.crash" in spans
