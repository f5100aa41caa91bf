"""Driver integration tests: real processes, real sockets, checked runs.

Each test here spawns actual OS processes exchanging frames over
localhost TCP, so the suite keeps ``n`` small and the run count low —
the goal is one genuine end-to-end exercise per behavior (clean, chaos,
every task, tracing), with the cheap logic (factory resolution, result
assembly) covered by unit tests below them.
"""

from __future__ import annotations

import asyncio
from collections import Counter

import pytest

from repro.core.catalogue import protocol_for
from repro.core.protocol import Outcome
from repro.harness.runners import run_leader_election
from repro.net.chaos import ChaosPlan, Partition
from repro.net.driver import (
    NetError,
    NetRun,
    _assemble_result,
    check_net_run,
    run_net,
)
from repro.net.node import NodeRuntime
from repro.net.wire import Frame, FrameType, WireError
from repro.obs.aggregate import TraceAggregator
from repro.obs.causality import CausalReport
from repro.obs.events import ListSink, feed
from repro.obs.metrics import MetricsSink
from repro.obs.jsonl import iter_events, read_artifact
from repro.sim.process import ProcessAPI

#: Response time of an operation that never responded (crashed or
#: undecided); effectively "+infinity" for interval comparisons.
PENDING_TIME = 2**62

#: The events a Process emits itself, on either backend.
PROCESS_EVENTS = ("proc.start", "comm.call", "comm.done", "reg.put", "proc.decide")


class TestResolveFactory:
    """The driver and every node build their coroutine from the catalogue row."""

    def test_task_defaults(self):
        assert protocol_for("elect").algorithm == "poison_pill"
        assert protocol_for("sift").algorithm == "heterogeneous"
        assert protocol_for("rename").algorithm == "paper"

    def test_unknown_task(self):
        with pytest.raises(ValueError, match="unknown task"):
            protocol_for("gossip")

    def test_unknown_algorithm_lists_valid_ones(self):
        with pytest.raises(ValueError, match="tournament"):
            protocol_for("elect", "bully")
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_net(task="elect", algorithm="bully")

    def test_factories_build_generators(self):
        for task, algorithm in (
            ("elect", "tournament"),
            ("sift", "poison_pill"),
            ("rename", "linear"),
        ):
            factory = protocol_for(task, algorithm).make()
            assert callable(factory)


class TestElectOverSockets:
    def test_clean_run_elects_unique_winner(self):
        run = run_net(task="elect", n=4, seed=0)
        assert run.ok, run.violations
        winners = [
            pid for pid, decision in run.result.decisions.items()
            if decision.result is Outcome.WIN
        ]
        assert len(winners) == 1
        assert run.winner == winners[0]
        assert len(run.result.decisions) == 4
        assert not run.result.undecided
        assert run.frames_sent > 0

    def test_chaotic_run_still_elects(self):
        plan = ChaosPlan(seed=1, drop=0.15, delay=0.4, duplicate=0.1)
        run = run_net(task="elect", n=4, seed=0, plan=plan)
        assert run.ok, run.violations
        assert run.winner is not None
        assert run.frames_dropped > 0

    def test_decision_times_are_linearizable_inputs(self):
        """Rebased times: zero-anchored, start < decide, below PENDING."""
        run = run_net(task="elect", n=4, seed=2)
        starts = [d.start_time for d in run.result.decisions.values()]
        assert min(starts) == 0
        for decision in run.result.decisions.values():
            assert 0 <= decision.start_time < decision.decide_time < PENDING_TIME


class TestOtherTasksOverSockets:
    def test_sift(self):
        run = run_net(task="sift", n=4, seed=3)
        assert run.ok, run.violations
        assert 1 <= run.survivors <= 4

    def test_rename(self):
        run = run_net(task="rename", n=4, seed=1)
        assert run.ok, run.violations
        names = run.names
        assert len(names) == 4
        assert len(set(names.values())) == 4  # strong renaming: unique


class TestChaosAtTheTransport:
    def test_healing_partition_delays_but_does_not_kill(self):
        plan = ChaosPlan(
            partitions=(Partition(src=(0,), dst=(1, 2, 3), heal_ms=300.0),)
        )
        run = run_net(task="elect", n=4, seed=0, plan=plan)
        assert run.ok, run.violations
        assert run.winner is not None

    def test_unreachable_quorum_times_out(self):
        """Cutting every link starves all quorums: the driver deadline fires."""
        everyone = (0, 1, 2)
        plan = ChaosPlan(partitions=(Partition(src=everyone, dst=everyone),))
        with pytest.raises(NetError, match="timed out"):
            run_net(task="elect", n=3, seed=0, plan=plan, deadline_s=4.0)


@pytest.fixture(scope="module")
def clean_trace(tmp_path_factory):
    """The merged trace of one clean n=4 election over sockets."""
    out = tmp_path_factory.mktemp("net") / "net.jsonl"
    run = run_net(task="elect", n=4, seed=0, trace_path=str(out))
    assert run.ok, run.violations
    return str(out)


@pytest.fixture(scope="module")
def chaos_trace(tmp_path_factory):
    """The merged trace of one n=6 election under seeded drops and delays."""
    out = tmp_path_factory.mktemp("net") / "net-chaos.jsonl"
    plan = ChaosPlan(seed=1, drop=0.15, delay=0.3)
    run = run_net(task="elect", n=6, seed=0, plan=plan, trace_path=str(out))
    assert run.ok, run.violations
    return str(out)


class TestTracing:
    def test_merged_trace_is_time_sorted_and_complete(self, clean_trace):
        out = clean_trace
        _, meta = read_artifact(out, "trace")
        assert meta["backend"] == "net"
        assert meta["chaos"]["drop"] == 0.0
        assert meta["n"] == 4
        events = list(iter_events(out))
        times = [event.time for event in events]
        assert times == sorted(times)
        etypes = {event.etype for event in events}
        assert "proc.start" in etypes
        assert "proc.decide" in etypes
        assert "comm.call" in etypes
        assert "msg.send" in etypes
        assert {event.pid for event in events} == {0, 1, 2, 3}

    def test_sends_match_their_deliveries(self, clean_trace):
        # Every send names its real recipient, so causal analysis pairs
        # it with the delivery and the decisions sit on message chains.
        causal = CausalReport()
        feed(iter_events(clean_trace), causal)
        assert causal.matched_messages > 0
        assert causal.max_decision_depth >= 1

    def test_process_events_match_the_simulator(self, clean_trace):
        # Sim/net parity: both backends drive the same Process, which
        # emits these events itself, so each carries the same fields.
        sink = ListSink()
        run_leader_election(4, adversary="random", seed=0, sink=sink)

        def field_names(events):
            names = {etype: set() for etype in PROCESS_EVENTS}
            for event in events:
                if event.etype in names:
                    names[event.etype].add(frozenset(event.fields))
            return names

        def completions(events):
            # Each node numbers its own calls, so key by pid.
            calls, done = Counter(), Counter()
            for event in events:
                if event.etype == "comm.call":
                    calls[event.pid, event.fields["call"]] += 1
                elif event.etype == "comm.done":
                    done[event.pid, event.fields["call"]] += 1
            return calls, done

        net_events = list(iter_events(clean_trace))
        net = field_names(net_events)
        assert net == field_names(sink.events)
        assert all(net[etype] for etype in PROCESS_EVENTS)
        assert net["comm.call"] == {frozenset({"call", "kind", "var", "keys"})}
        assert net["comm.done"] == {frozenset({"call", "acks"})}
        for events in (net_events, sink.events):
            calls, done = completions(events)
            assert set(calls.values()) == {1}
            assert done == calls  # exactly one comm.done per comm.call

    def test_every_call_gets_one_duration(self, chaos_trace):
        # Each node numbers its own calls, so ids repeat across the pids
        # of a merged trace: the sinks pair comm.call and comm.done on
        # (pid, call), and no node's call overwrites another's.
        aggregator, telemetry = TraceAggregator(), MetricsSink()
        feed(iter_events(chaos_trace), aggregator, telemetry)
        assert len(aggregator.comm_calls_by) == 6
        durations = {pid: len(d) for pid, d in aggregator.comm_durations_by.items()}
        assert durations == aggregator.comm_calls_by
        snapshot = telemetry.registry.snapshot()
        histogram = snapshot["histograms"]["comm.duration_ticks"]
        assert histogram["count"] == snapshot["counters"]["comm.calls"]

    def test_chaos_events_recorded(self, tmp_path):
        out = tmp_path / "net.jsonl"
        plan = ChaosPlan(seed=5, drop=0.3)
        run = run_net(task="elect", n=4, seed=0, plan=plan, trace_path=str(out))
        assert run.ok, run.violations
        assert any(event.etype == "net.drop" for event in iter_events(str(out)))

    def test_register_writes_record_the_value_itself(self, tmp_path):
        # Sim/net parity: a node's reg.put carries the written value, not
        # its repr, so invariant folds over the trace (learned_closure
        # reads an int L set) see the types the simulator records.
        out = tmp_path / "node.jsonl"
        node = NodeRuntime(pid=0, n=2, seed=1, driver_port=1, trace_path=str(out))
        ProcessAPI(node.process).put("hpp.learned", 0, 5)
        asyncio.run(node._shutdown())
        assert [event.fields for event in iter_events(str(out))] == [
            {"var": "hpp.learned", "key": 0, "value": 5}
        ]


class TestServe:
    """The delivery-step semantics of one node, without sockets."""

    @pytest.mark.parametrize("entries", [{"k": 5}, {"held": 5}, {"k": (1, 2)}, [1]])
    def test_malformed_propagate_entries_raise_before_merging(self, entries):
        node = NodeRuntime(pid=0, n=2, seed=1, driver_port=1)
        ProcessAPI(node.process).put("X", "held", 7)
        before = dict(node.process.registers.entries("X"))
        frame = Frame(
            FrameType.PROPAGATE, 1,
            {"call": 1, "rpc": 1, "var": "X", "entries": entries},
        )
        with pytest.raises(WireError, match="entr"):
            node._serve(frame)
        assert dict(node.process.registers.entries("X")) == before


class TestResultAssembly:
    """Unit tests against a hand-built control plane — no sockets."""

    class _Plane:
        def __init__(self):
            self.participants = frozenset({0, 1})
            self.decisions = {
                0: {"outcome": Outcome.WIN, "start_ns": 1000, "decide_ns": 5000,
                    "comm_calls": 7},
                1: {"outcome": Outcome.LOSE, "start_ns": 1200, "decide_ns": 4000,
                    "comm_calls": 6},
            }
            self.finals = {
                0: {"frames_sent": 10, "frames_received": 9,
                    "frames_by_kind": {"propagate": 4, "ack": 6}},
                1: {"frames_sent": 8, "frames_received": 11,
                    "frames_by_kind": {"collect": 3, "collect_reply": 5}},
            }

    def test_times_rebased_and_metrics_folded(self):
        result = _assemble_result(2, self._Plane())
        assert result.decisions[0].start_time == 0
        assert result.decisions[0].decide_time == 4000
        assert result.decisions[1].start_time == 200
        assert result.metrics.comm_calls_by[0] == 7
        assert result.metrics.messages_total == 18
        assert result.metrics.deliveries == 20
        assert not result.undecided

    def test_missing_decision_becomes_undecided(self):
        plane = self._Plane()
        del plane.decisions[1]
        result = _assemble_result(2, plane)
        assert result.undecided == frozenset({1})

    def test_check_net_run_flags_two_winners(self):
        plane = self._Plane()
        plane.decisions[1]["outcome"] = Outcome.WIN
        result = _assemble_result(2, plane)
        run = NetRun(
            n=2, k=2, task="elect", algorithm="poison_pill", seed=0,
            plan=ChaosPlan(), result=result,
        )
        violations = check_net_run(run)
        assert any(name == "unique_winner" for name, _ in violations)
        assert run.winner is None  # two winners -> no unique winner
