"""Deterministic metrics registry: counters, gauges, log-bucketed histograms.

The paper's headline claims are quantitative — time in ``communicate``
calls, messages in total and per kind — yet until now the repo could
only report them *after* a run.  This module is the live counterpart:
a :class:`MetricsRegistry` of named instruments that can be sampled
while an execution is still in flight, serialized as JSONL snapshots
(:mod:`repro.obs.live`), and rendered as a Prometheus-style text
exposition.

Design constraints, in order:

* **Determinism.**  Simulator-side instruments measure logical
  quantities only (event counts, logical-clock durations, payload
  cells), so for a fixed seed the registry — and every snapshot of it —
  is byte-identical across runs and machines.  Wall-clock belongs to
  the net backend and to :mod:`repro.obs.profile`, not here.
* **Zero cost when off.**  Nothing in the simulator touches this module
  unless a sink is attached; the runtime's emission sites keep their
  single ``is None`` guard.  :class:`MetricsSink` derives every
  simulator instrument *from the event stream*, so attaching telemetry
  cannot perturb an execution (the byte-identical trace/fingerprint
  guarantee of the bench baselines).
* **Mergeability.**  Registries fold together (sum counters, combine
  histogram buckets) so per-node or per-worker telemetry aggregates
  into one cluster view — the same discipline as
  :meth:`repro.sim.trace.Metrics.merge`.

Histograms are log-bucketed: a value lands in the power-of-two bucket
``(2**(e-1), 2**e]`` given by ``math.frexp``, so the bucket count is
O(log range) regardless of sample count, and quantile estimation
(p50/p90/p99) interpolates linearly inside the winning bucket, clamped
by the exact observed min/max.  Estimation error is therefore bounded
by one octave — plenty for latency-shaped distributions — while
recording stays O(1) with no stored samples.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping

from .events import Event, EventType, call_key

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSink",
    "merge_snapshots",
    "snapshot_to_prometheus",
]


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """A named value that can move both ways (queue depth, current round)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = value

    def add(self, delta: float) -> None:
        """Shift the gauge by ``delta`` (either sign)."""
        self.value += delta


def bucket_exponent(value: float) -> int:
    """The log-bucket index of ``value``: smallest ``e`` with ``value <= 2**e``.

    Non-positive values collapse into a single underflow bucket (the
    quantities recorded here — durations, counts, sizes — are never
    negative, and zero is common enough to deserve its own bucket).
    """
    if value <= 0:
        return -(2**30)  # the underflow bucket, below every real exponent
    mantissa, exponent = math.frexp(value)  # value = mantissa * 2**exponent
    # frexp puts mantissa in [0.5, 1); exact powers of two have mantissa
    # 0.5, meaning value == 2**(exponent-1) and belongs one bucket down.
    if mantissa == 0.5:
        return exponent - 1
    return exponent


#: Exponent of the underflow bucket (values <= 0).
UNDERFLOW = bucket_exponent(0)


class Histogram:
    """Log-bucketed histogram with O(1) recording and quantile estimates.

    Stores per-octave counts plus exact ``count``/``total``/``min``/
    ``max``.  ``quantile(q)`` walks the cumulative bucket counts to the
    target rank and interpolates linearly inside the winning bucket —
    deterministic, bounded-error, and independent of sample order.
    """

    __slots__ = ("name", "count", "total", "minimum", "maximum", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total: float = 0
        self.minimum: float | None = None
        self.maximum: float | None = None
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        exponent = bucket_exponent(value)
        self.buckets[exponent] = self.buckets.get(exponent, 0) + 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of all recorded samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) from the buckets.

        Returns 0.0 for an empty histogram.  The estimate interpolates
        linearly within the bucket holding the target rank and is
        clamped to the exact observed ``[min, max]``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be within [0, 1]")
        if self.count == 0:
            return 0.0
        assert self.minimum is not None and self.maximum is not None
        target = q * (self.count - 1) + 1  # 1-based fractional rank
        cumulative = 0
        for exponent in sorted(self.buckets):
            in_bucket = self.buckets[exponent]
            if cumulative + in_bucket >= target:
                if exponent == UNDERFLOW:
                    return float(min(0.0, self.maximum))
                low, high = 2.0 ** (exponent - 1), 2.0**exponent
                fraction = (target - cumulative) / in_bucket
                estimate = low + fraction * (high - low)
                return float(min(max(estimate, self.minimum), self.maximum))
            cumulative += in_bucket
        return float(self.maximum)

    @property
    def p50(self) -> float:
        """Median estimate."""
        return self.quantile(0.50)

    @property
    def p90(self) -> float:
        """90th-percentile estimate."""
        return self.quantile(0.90)

    @property
    def p99(self) -> float:
        """99th-percentile estimate."""
        return self.quantile(0.99)


def _round6(value: float) -> float:
    """Stable snapshot rounding: kills float formatting jitter, keeps µs."""
    return round(float(value), 6)


class MetricsRegistry:
    """A named collection of instruments with deterministic snapshots.

    ``counter`` / ``gauge`` / ``histogram`` get-or-create by name, so
    instrumentation sites stay one-liners.  :meth:`snapshot` produces a
    plain JSON-safe dict with sorted keys — the unit of the live
    snapshot stream — and :meth:`merge` / :func:`merge_snapshots` fold
    many registries (or their snapshots) into a cluster-wide view.
    """

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram called ``name``."""
        instrument = self.histograms.get(name)
        if instrument is None:
            instrument = self.histograms[name] = Histogram(name)
        return instrument

    def snapshot(self) -> dict[str, Any]:
        """The registry's current state as a JSON-safe, sorted dict."""
        return {
            "counters": {
                name: self.counters[name].value for name in sorted(self.counters)
            },
            "gauges": {
                name: _round6(self.gauges[name].value) for name in sorted(self.gauges)
            },
            "histograms": {
                name: self._histogram_obj(self.histograms[name])
                for name in sorted(self.histograms)
            },
        }

    @staticmethod
    def _histogram_obj(hist: Histogram) -> dict[str, Any]:
        return {
            "count": hist.count,
            "sum": _round6(hist.total),
            "min": _round6(hist.minimum) if hist.minimum is not None else None,
            "max": _round6(hist.maximum) if hist.maximum is not None else None,
            "mean": _round6(hist.mean),
            "p50": _round6(hist.p50),
            "p90": _round6(hist.p90),
            "p99": _round6(hist.p99),
            # Bucket keys as strings so the JSON form round-trips exactly.
            "buckets": {
                str(exponent): hist.buckets[exponent]
                for exponent in sorted(hist.buckets)
            },
        }

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry into this one; returns self.

        Counters and histogram buckets add; gauges take the *other*
        value (last writer wins — gauges are point-in-time samples, and
        the merge order is caller-controlled).
        """
        for name, counter in other.counters.items():
            self.counter(name).value += counter.value
        for name, gauge in other.gauges.items():
            self.gauge(name).value = gauge.value
        for name, theirs in other.histograms.items():
            mine = self.histogram(name)
            mine.count += theirs.count
            mine.total += theirs.total
            if theirs.minimum is not None and (
                mine.minimum is None or theirs.minimum < mine.minimum
            ):
                mine.minimum = theirs.minimum
            if theirs.maximum is not None and (
                mine.maximum is None or theirs.maximum > mine.maximum
            ):
                mine.maximum = theirs.maximum
            for exponent, count in theirs.buckets.items():
                mine.buckets[exponent] = mine.buckets.get(exponent, 0) + count
        return self

    @classmethod
    def from_snapshot(cls, snapshot: Mapping[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from a :meth:`snapshot` dict.

        Histogram percentiles are re-derived from the shipped buckets,
        which is what lets per-node snapshots merge into one cluster
        registry without access to the original samples.
        """
        registry = cls()
        for name, value in snapshot.get("counters", {}).items():
            registry.counter(name).value = int(value)
        for name, value in snapshot.get("gauges", {}).items():
            registry.gauge(name).value = value
        for name, obj in snapshot.get("histograms", {}).items():
            hist = registry.histogram(name)
            hist.count = int(obj.get("count", 0))
            hist.total = obj.get("sum", 0)
            hist.minimum = obj.get("min")
            hist.maximum = obj.get("max")
            hist.buckets = {
                int(exponent): int(count)
                for exponent, count in obj.get("buckets", {}).items()
            }
        return registry


def merge_snapshots(snapshots: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Fold several snapshot dicts into one (per-node -> cluster view)."""
    merged = MetricsRegistry()
    for snapshot in snapshots:
        merged.merge(MetricsRegistry.from_snapshot(snapshot))
    return merged.snapshot()


def _prom_name(prefix: str, name: str) -> str:
    cleaned = name.replace(".", "_").replace("-", "_")
    return f"{prefix}_{cleaned}" if prefix else cleaned


def snapshot_to_prometheus(
    snapshot: Mapping[str, Any], prefix: str = "repro"
) -> str:
    """Render one snapshot as Prometheus text exposition format.

    Counters become ``<prefix>_<name>`` counter samples, gauges become
    gauge samples, and histograms expand to the conventional
    ``_bucket{le="..."}`` / ``_sum`` / ``_count`` triple with the
    log-bucket upper bounds as the ``le`` labels.
    """
    lines: list[str] = []
    for name, value in snapshot.get("counters", {}).items():
        metric = _prom_name(prefix, name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {value}")
    for name, value in snapshot.get("gauges", {}).items():
        metric = _prom_name(prefix, name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {value}")
    for name, obj in snapshot.get("histograms", {}).items():
        metric = _prom_name(prefix, name)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for exponent in sorted(int(e) for e in obj.get("buckets", {})):
            cumulative += obj["buckets"][str(exponent)]
            upper = 0.0 if exponent == UNDERFLOW else 2.0**exponent
            lines.append(f'{metric}_bucket{{le="{upper}"}} {cumulative}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {obj.get("count", 0)}')
        lines.append(f"{metric}_sum {obj.get('sum', 0)}")
        lines.append(f"{metric}_count {obj.get('count', 0)}")
    return "\n".join(lines) + "\n"


class MetricsSink:
    """Derive the simulator's live instruments from its event stream.

    An :class:`~repro.obs.events.EventSink` that folds every structured
    event into a :class:`MetricsRegistry`.  Because it consumes the
    *already-emitted* stream, attaching it cannot change an execution:
    the byte-identical trace and bench-fingerprint guarantees hold with
    telemetry on or off, and with no sink attached the runtime still
    pays only its ``is None`` guard.

    Instruments maintained (all logical-time, hence deterministic):

    * ``events.<etype>`` counters for every event type seen;
    * ``messages.<kind>`` counters plus the ``payload.cells`` histogram
      (per-send logical payload size) from ``msg.send``;
    * ``comm.calls`` / ``comm.done`` counters and the
      ``comm.duration_ticks`` histogram of call-issue-to-quorum logical
      durations (Claim 2.1's time metric, now with percentiles);
    * ``decisions`` / ``crashes`` counters, ``round.survived`` /
      ``round.died`` counters, and the ``sim.round`` gauge tracking the
      deepest sifting round entered so far;
    * the ``sim.clock`` gauge mirroring the logical clock.
    """

    __slots__ = ("registry", "_open_calls")

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._open_calls: dict[tuple[int, int], int] = {}  # (pid, call) -> issue clock

    def emit(self, event: Event) -> None:
        """Fold one event into the registry."""
        registry = self.registry
        registry.counter(f"events.{event.etype}").inc()
        registry.gauge("sim.clock").set(event.time)
        etype = event.etype
        if etype == EventType.MSG_SEND:
            registry.counter(f"messages.{event.fields['kind']}").inc()
            registry.histogram("payload.cells").observe(
                event.fields.get("cells", 0)
            )
        elif etype == EventType.COMM_CALL:
            registry.counter("comm.calls").inc()
            self._open_calls[call_key(event)] = event.time
        elif etype == EventType.COMM_DONE:
            registry.counter("comm.done").inc()
            issued = self._open_calls.pop(call_key(event), None)
            if issued is not None:
                registry.histogram("comm.duration_ticks").observe(
                    event.time - issued
                )
        elif etype == EventType.PROC_DECIDE:
            registry.counter("decisions").inc()
        elif etype == EventType.SCHED_CRASH:
            registry.counter("crashes").inc()
        elif etype == EventType.ROUND_EXIT:
            round_index = event.fields.get("round", 0)
            gauge = registry.gauge("sim.round")
            if round_index > gauge.value:
                gauge.set(round_index)
            outcome = event.fields.get("outcome")
            outcome_name = getattr(outcome, "value", outcome)
            if outcome_name == "survive":
                registry.counter("round.survived").inc()
            else:
                registry.counter("round.died").inc()

    def close(self) -> None:
        """No-op: the registry stays readable after the run."""
        pass
