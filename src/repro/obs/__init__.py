"""Observability layer: structured events, export, aggregation, replay.

The simulator (:mod:`repro.sim`) emits a typed event stream describing
every scheduling action, message, ``communicate`` quorum, coin flip, and
protocol phase transition.  This package defines the schema and the
consumers:

* :mod:`repro.obs.events`    — the :class:`Event` schema and sinks
  (in-memory list, bounded ring buffer, multi-sink fan-out);
* :mod:`repro.obs.jsonl`     — byte-stable JSONL export and the one
  streaming trace reader, whose events :func:`feed` drives through
  any set of sinks in one pass;
* :mod:`repro.obs.aggregate` — streaming per-round survivor curves,
  message histograms, and communicate-call statistics;
* :mod:`repro.obs.metrics`   — live metrics registry: counters, gauges,
  log-bucketed histograms with p50/p90/p99, registry merge, and
  Prometheus-style exposition;
* :mod:`repro.obs.live`      — periodic snapshot streaming (JSONL) for
  in-flight telemetry, tailable by ``repro watch``;
* :mod:`repro.obs.causality` — happens-before reconstruction, critical-
  path depth per decision, and message lineage;
* :mod:`repro.obs.replay`    — deterministic re-execution of a recorded
  schedule with byte-identical stream verification (the one schedule
  replayer, shared with the checker's shrinker);
* :mod:`repro.obs.profile`   — wall-clock call-tree span profiling of
  the runtime hot paths.

Every name is re-exported lazily: the runtime imports
:mod:`repro.obs.events` from below, and ``repro.obs.replay`` sits above
the harness layer, so an eager import here would be circular as well as
slow.
"""

from __future__ import annotations

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".aggregate": ("PhaseStats", "RoundStats", "TraceAggregator"),
    ".causality": ("CausalReport", "MessageHop", "critical_path_report", "lineage_report"),
    ".events": (
        "CallbackSink",
        "Event",
        "EventSink",
        "EventType",
        "ListSink",
        "MultiSink",
        "RingBufferSink",
        "SCHEDULE_EVENT_TYPES",
        "combine_sinks",
        "feed",
        "json_safe",
    ),
    ".jsonl": (
        "JsonlSink",
        "TRACE_FORMAT_VERSION",
        "event_line",
        "iter_events",
        "write_events",
    ),
    ".live": (
        "LiveTelemetry",
        "SnapshotWriter",
        "follow_snapshots",
        "read_snapshots",
        "render_snapshot",
    ),
    ".metrics": (
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "MetricsSink",
        "merge_snapshots",
        "snapshot_to_prometheus",
    ),
    ".profile": ("Profiler",),
    ".replay": (
        "RecordedTrace",
        "ReplayError",
        "ReplayReport",
        "SchedulePrefixAdversary",
        "record_trace",
        "replay_trace",
        "schedule_of",
    ),
})
