"""Live telemetry: periodic metrics snapshots streamed as JSONL.

:mod:`repro.obs.metrics` gives an execution live instruments; this
module gives them a heartbeat.  A :class:`LiveTelemetry` sink folds the
event stream into a registry (via :class:`~repro.obs.metrics.MetricsSink`)
and emits a *snapshot line* at a chosen cadence — per sifting round in
the simulator (triggered by ``round.exit`` reaching a new round), or
every N events as a fallback for round-free workloads.  The net driver
uses the same snapshot schema for its per-interval cluster view.

The stream format mirrors the trace discipline of
:mod:`repro.obs.jsonl`: one canonical JSON object per line (sorted keys,
no whitespace), an optional ``{"meta": ...}`` header first, and a
``{"end": ...}`` marker line when the producer finishes — which is how
``repro watch`` knows a tailed run has completed rather than stalled.
Each snapshot line is ``{"seq", "clock", "metrics"}``; simulator-side
snapshots contain only logical-clock quantities, so for a fixed seed the
whole stream is byte-identical across runs.

Unlike :class:`~repro.obs.jsonl.JsonlSink` (which buffers until close),
:class:`SnapshotWriter` flushes every line as it is written: the entire
point of the stream is that another process can tail it mid-run.
"""

from __future__ import annotations

import io
import json
import os
import time as _time
from typing import Any, Iterator, Mapping

from .events import Event, EventType, RingBufferSink
from .jsonl import canonical_json
from .metrics import MetricsRegistry, MetricsSink, snapshot_to_prometheus

__all__ = [
    "LiveTelemetry",
    "SnapshotWriter",
    "follow_snapshots",
    "read_snapshots",
    "render_snapshot",
    "snapshot_to_prometheus",
]

#: Bumped when the snapshot line schema changes incompatibly.
SNAPSHOT_FORMAT_VERSION = 1


class SnapshotWriter:
    """Append canonical snapshot lines to a file, flushing per line.

    Accepts a path (opened and owned) or any text file object.  Unlike
    the trace sink this writer never buffers: each line is written and
    flushed immediately so ``repro watch`` in another process sees the
    stream grow in real time.
    """

    __slots__ = ("_fp", "_owns", "path", "seq")

    def __init__(
        self,
        target: str | io.TextIOBase,
        meta: dict[str, Any] | None = None,
    ) -> None:
        if isinstance(target, (str, bytes)):
            self.path: str | None = str(target)
            self._fp = open(target, "w", encoding="utf-8")
            self._owns = True
        else:
            self.path = None
            self._fp = target
            self._owns = False
        self.seq = 0
        header = dict(meta or {})
        header.setdefault("snapshot_format", SNAPSHOT_FORMAT_VERSION)
        self._write_line({"meta": header})

    def _write_line(self, obj: Mapping[str, Any]) -> None:
        self._fp.write(canonical_json(obj))
        self._fp.write("\n")
        self._fp.flush()

    def write_snapshot(self, clock: int, metrics: Mapping[str, Any]) -> None:
        """Append one snapshot line stamped with ``clock``."""
        self.seq += 1
        self._write_line({"seq": self.seq, "clock": clock, "metrics": metrics})

    def write_end(self, clock: int) -> None:
        """Append the end marker: the producer finished cleanly."""
        self._write_line({"end": {"clock": clock, "snapshots": self.seq}})

    def close(self) -> None:
        """Close the file if this writer opened it."""
        self._fp.flush()
        if self._owns:
            self._fp.close()


class LiveTelemetry:
    """EventSink: fold events into metrics and stream periodic snapshots.

    Wraps a :class:`~repro.obs.metrics.MetricsSink` and emits a snapshot
    whenever a ``round.exit`` event reaches a round no snapshot has
    covered yet (the simulator's natural cadence), or after
    ``every_events`` events for workloads without rounds.  A final
    snapshot plus the end marker are written on :meth:`close`, so even a
    zero-round run produces a complete stream.

    Pass ``ring`` to surface a co-attached
    :class:`~repro.obs.events.RingBufferSink`'s eviction count as the
    ``obs.ring_dropped`` counter in every snapshot — bounded-buffer
    telemetry loss stays visible instead of silent.

    Snapshot content derives entirely from the event stream and the
    logical clock, so attaching this sink never perturbs an execution
    and its output is deterministic for a fixed seed.
    """

    __slots__ = (
        "_metrics",
        "_writer",
        "_ring",
        "_every",
        "_pending",
        "_last_round",
        "_clock",
        "_closed",
    )

    def __init__(
        self,
        writer: SnapshotWriter | str | io.TextIOBase,
        every_events: int | None = None,
        ring: RingBufferSink | None = None,
        registry: MetricsRegistry | None = None,
        meta: dict[str, Any] | None = None,
    ) -> None:
        if every_events is not None and every_events < 1:
            raise ValueError("every_events must be at least 1")
        if isinstance(writer, SnapshotWriter):
            self._writer = writer
        else:
            self._writer = SnapshotWriter(writer, meta=meta)
        self._metrics = MetricsSink(registry)
        self._ring = ring
        self._every = every_events
        self._pending = 0  # events since the last snapshot
        self._last_round = -1
        self._clock = 0
        self._closed = False

    @property
    def registry(self) -> MetricsRegistry:
        """The live registry this sink folds events into."""
        return self._metrics.registry

    @property
    def writer(self) -> SnapshotWriter:
        """The underlying snapshot writer (for cadence/seq inspection)."""
        return self._writer

    def _snapshot(self) -> None:
        registry = self._metrics.registry
        if self._ring is not None:
            registry.counter("obs.ring_dropped").value = self._ring.dropped
        self._writer.write_snapshot(self._clock, registry.snapshot())
        self._pending = 0

    def emit(self, event: Event) -> None:
        """Fold one event; write a snapshot when the cadence says so."""
        self._metrics.emit(event)
        self._clock = event.time
        self._pending += 1
        if (
            event.etype == EventType.ROUND_EXIT
            and event.fields.get("round", 0) > self._last_round
        ):
            self._last_round = event.fields.get("round", 0)
            self._snapshot()
        elif self._every is not None and self._pending >= self._every:
            self._snapshot()

    def close(self) -> None:
        """Write the final snapshot and the end marker, then close."""
        if self._closed:
            return
        self._closed = True
        self._snapshot()
        self._writer.write_end(self._clock)
        self._writer.close()


def read_snapshots(
    path: str,
) -> tuple[dict[str, Any] | None, list[dict[str, Any]], dict[str, Any] | None]:
    """Load a snapshot stream: ``(meta, snapshots, end)``.

    ``meta`` / ``end`` are ``None`` when the stream lacks the header or
    was cut off before the end marker.  Raises :class:`ValueError` on a
    malformed (truncated mid-line) stream.
    """
    meta: dict[str, Any] | None = None
    end: dict[str, Any] | None = None
    snapshots: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fp:
        for index, line in enumerate(fp):
            line = line.rstrip("\n")
            if not line:
                continue
            obj = json.loads(line)
            if index == 0 and "meta" in obj:
                meta = obj["meta"]
            elif "end" in obj:
                end = obj["end"]
            else:
                if "metrics" not in obj:
                    raise ValueError(
                        f"snapshot stream {path!r}: line {index + 1} is not "
                        "a snapshot (missing 'metrics')"
                    )
                snapshots.append(obj)
    return meta, snapshots, end


def follow_snapshots(
    path: str,
    poll_interval: float = 0.2,
    timeout: float | None = 30.0,
) -> Iterator[dict[str, Any]]:
    """Tail a snapshot stream, yielding lines as the producer writes them.

    Yields every parsed line object (meta, snapshots, end) in order; the
    iterator ends after the ``{"end": ...}`` marker, or raises
    :class:`TimeoutError` if the file stops growing for ``timeout``
    seconds without one.  Partial trailing lines (the producer mid-write)
    are left in place and retried on the next poll.
    """
    deadline = None if timeout is None else _time.monotonic() + timeout
    position = 0
    buffer = ""
    while True:
        grew = False
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fp:
                fp.seek(position)
                chunk = fp.read()
                position = fp.tell()
            if chunk:
                grew = True
                buffer += chunk
                while "\n" in buffer:
                    line, buffer = buffer.split("\n", 1)
                    if not line:
                        continue
                    obj = json.loads(line)
                    yield obj
                    if "end" in obj:
                        return
        if grew:
            deadline = None if timeout is None else _time.monotonic() + timeout
        elif deadline is not None and _time.monotonic() > deadline:
            raise TimeoutError(
                f"snapshot stream {path!r} stopped growing before its end marker"
            )
        _time.sleep(poll_interval)


def render_snapshot(
    obj: Mapping[str, Any], meta: Mapping[str, Any] | None = None
) -> str:
    """One snapshot line rendered as a human-readable summary block.

    ``meta`` (the stream header, if the caller has it) adds a context
    line naming the run the snapshot came from.
    """
    metrics = obj.get("metrics", {})
    lines = []
    if meta:
        context = "  ".join(
            f"{key}={meta[key]}"
            for key in ("backend", "task", "algorithm", "n", "k", "seed")
            if meta.get(key) is not None
        )
        if context:
            lines.append(context)
    lines.append(f"snapshot #{obj.get('seq', '?')}  clock={obj.get('clock', '?')}")
    counters = metrics.get("counters", {})
    if counters:
        rendered = "  ".join(
            f"{name}={counters[name]}" for name in sorted(counters)
        )
        lines.append(f"  counters:   {rendered}")
    gauges = metrics.get("gauges", {})
    if gauges:
        rendered = "  ".join(f"{name}={gauges[name]}" for name in sorted(gauges))
        lines.append(f"  gauges:     {rendered}")
    for name in sorted(metrics.get("histograms", {})):
        hist = metrics["histograms"][name]
        lines.append(
            f"  {name}: n={hist.get('count', 0)} mean={hist.get('mean', 0)} "
            f"p50={hist.get('p50', 0)} p90={hist.get('p90', 0)} "
            f"p99={hist.get('p99', 0)} max={hist.get('max', 0)}"
        )
    return "\n".join(lines)
