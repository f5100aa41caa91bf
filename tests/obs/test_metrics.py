"""Unit tests for the deterministic metrics registry.

Pins the contracts telemetry rests on: log-bucketed histogram quantiles
stay within one octave of exact, snapshots round-trip losslessly through
``MetricsRegistry.from_snapshot``, merges are associative over the
counters a cluster view needs, and :class:`MetricsSink` folds a real
run's event stream into counts that agree with the simulator's own
``Metrics`` accounting — all derived from events, never perturbing them.
"""

from __future__ import annotations

import pytest

from repro.harness.runners import run_leader_election
from repro.obs.events import Event, EventType, ListSink, MultiSink
from repro.obs.metrics import (
    UNDERFLOW,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSink,
    bucket_exponent,
    merge_snapshots,
    snapshot_to_prometheus,
)


class TestPrimitives:
    """Counters, gauges, and the histogram bucket function."""

    def test_counter_increments_and_rejects_negative(self):
        counter = Counter("x")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_and_add(self):
        gauge = Gauge("g")
        gauge.set(2.5)
        gauge.add(0.5)
        assert gauge.value == 3.0

    def test_bucket_exponent_boundaries(self):
        # Smallest e with value <= 2**e: powers of two land on their own
        # exponent, anything above spills to the next bucket.
        assert bucket_exponent(1) == 0
        assert bucket_exponent(2) == 1
        assert bucket_exponent(3) == 2
        assert bucket_exponent(4) == 2
        assert bucket_exponent(4.001) == 3
        assert bucket_exponent(1024) == 10
        assert bucket_exponent(0.5) == -1
        assert bucket_exponent(0) == UNDERFLOW
        assert bucket_exponent(-7) == UNDERFLOW


class TestHistogram:
    """Quantiles bounded by one octave, exact at the extremes."""

    def test_empty_histogram_is_zero(self):
        hist = Histogram("h")
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.p50 == 0.0

    def test_min_max_and_mean_are_exact(self):
        hist = Histogram("h")
        for value in (3, 1, 100, 7):
            hist.observe(value)
        assert hist.minimum == 1
        assert hist.maximum == 100
        assert hist.mean == pytest.approx(111 / 4)
        assert hist.quantile(0.0) == 1
        assert hist.quantile(1.0) == 100

    def test_quantile_within_one_octave(self):
        hist = Histogram("h")
        values = sorted([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 100])
        for value in values:
            hist.observe(value)
        for q in (0.5, 0.9, 0.99):
            exact = values[round(q * (len(values) - 1))]
            estimate = hist.quantile(q)
            # Log-bucketing guarantees the estimate lies within the
            # exact value's bucket: a factor of two, never more.
            assert exact / 2 <= estimate <= exact * 2

    def test_single_observation_is_exact_everywhere(self):
        hist = Histogram("h")
        hist.observe(42)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert hist.quantile(q) == 42


class TestRegistry:
    """Get-or-create semantics, snapshots, round trips, and merges."""

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_snapshot_round_trips_through_from_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("sends").inc(7)
        registry.gauge("round").set(3)
        for value in (1, 5, 9, 200):
            registry.histogram("latency").observe(value)
        rebuilt = MetricsRegistry.from_snapshot(registry.snapshot())
        assert rebuilt.snapshot() == registry.snapshot()

    def test_merge_sums_counters_and_combines_histograms(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("sends").inc(3)
        right.counter("sends").inc(4)
        right.counter("only_right").inc(1)
        left.gauge("round").set(2)
        right.gauge("round").set(5)  # last writer wins
        left.histogram("lat").observe(1)
        right.histogram("lat").observe(100)
        merged = left.merge(right).snapshot()
        assert merged["counters"]["sends"] == 7
        assert merged["counters"]["only_right"] == 1
        assert merged["gauges"]["round"] == 5
        hist = merged["histograms"]["lat"]
        assert hist["count"] == 2
        assert hist["min"] == 1 and hist["max"] == 100

    def test_merge_snapshots_matches_registry_merge(self):
        registries = []
        for seed in (1, 2, 3):
            registry = MetricsRegistry()
            registry.counter("n").inc(seed)
            registry.histogram("h").observe(seed * 10)
            registries.append(registry)
        via_snapshots = merge_snapshots(r.snapshot() for r in registries)
        combined = MetricsRegistry()
        for registry in registries:
            combined.merge(registry)
        assert via_snapshots == combined.snapshot()

    def test_prometheus_exposition_names_and_types(self):
        registry = MetricsRegistry()
        registry.counter("net.frames_sent").inc(9)
        registry.gauge("sim.round").set(2)
        registry.histogram("rpc.latency-ms").observe(3)
        text = snapshot_to_prometheus(registry.snapshot())
        assert "# TYPE repro_net_frames_sent counter" in text
        assert "repro_net_frames_sent 9" in text
        assert "repro_sim_round 2" in text
        # Dots and dashes are both illegal in Prometheus names.
        assert "repro_rpc_latency_ms_count 1" in text
        assert "-" not in text.replace("# ", "")


class TestMetricsSink:
    """Folding a real election's event stream into the registry."""

    @pytest.fixture(scope="class")
    def run_and_registry(self):
        sink = ListSink()
        metrics_sink = MetricsSink()
        run = run_leader_election(
            n=16, adversary="random", seed=11,
            sink=MultiSink(sink, metrics_sink),
        )
        return run, sink, metrics_sink.registry

    def test_event_counters_match_raw_stream(self, run_and_registry):
        _, sink, registry = run_and_registry
        snapshot = registry.snapshot()
        sends = sum(
            1 for event in sink.events if event.etype == EventType.MSG_SEND
        )
        assert snapshot["counters"]["events.msg.send"] == sends
        assert snapshot["counters"]["decisions"] == 16

    def test_message_counts_agree_with_sim_metrics(self, run_and_registry):
        run, _, registry = run_and_registry
        snapshot = registry.snapshot()
        by_kind = {
            name.removeprefix("messages."): count
            for name, count in snapshot["counters"].items()
            if name.startswith("messages.")
        }
        assert sum(by_kind.values()) == run.result.metrics.messages_total
        hist = snapshot["histograms"]["payload.cells"]
        assert hist["sum"] == run.result.metrics.payload_cells

    def test_comm_durations_cover_every_call(self, run_and_registry):
        _, sink, registry = run_and_registry
        calls = sum(
            1 for event in sink.events if event.etype == EventType.COMM_CALL
        )
        hist = registry.snapshot()["histograms"]["comm.duration_ticks"]
        assert hist["count"] == calls

    def test_snapshot_deterministic_for_fixed_seed(self):
        snapshots = []
        for _ in range(2):
            telemetry = MetricsSink()
            run_leader_election(
                n=16, adversary="random", seed=11, sink=telemetry,
            )
            snapshots.append(telemetry.registry.snapshot())
        assert snapshots[0] == snapshots[1]

    def test_attaching_sink_never_perturbs_the_stream(self):
        bare = ListSink()
        run_leader_election(n=12, adversary="sequential", seed=4, sink=bare)
        observed = ListSink()
        run_leader_election(
            n=12, adversary="sequential", seed=4,
            sink=MultiSink(observed, MetricsSink()),
        )
        assert [
            (e.time, e.etype, e.pid) for e in bare.events
        ] == [(e.time, e.etype, e.pid) for e in observed.events]

    def test_sink_ignores_unknown_payloads(self):
        sink = MetricsSink()
        sink.emit(Event(1, EventType.MSG_SEND, 0, {"kind": "collect"}))
        sink.close()
        assert sink.registry.snapshot()["counters"]["messages.collect"] == 1
