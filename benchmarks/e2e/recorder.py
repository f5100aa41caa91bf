"""In-memory span recorder for the traced run of the end-to-end benchmark.

One :class:`Recorder` keeps a call tree of named spans.  Each tree node
holds a count and an inclusive time; a node's self time is its inclusive
time minus the inclusive time of its children, so entering and leaving a
span costs two clock reads, one dict lookup and three attribute writes —
no allocation after the first call along a path.  The tree is folded to
``(span, parent)`` rows when the run ends.

A recorder reaches the code under test in two ways:

* as the ``profiler=`` argument of the simulator runners, which open
  ``adversary.choose`` / ``execute.*`` spans around every action;
* as wrappers installed by :func:`installed` on the functions named in
  :data:`SIM_WRAPPERS`, :data:`SVC_WRAPPERS` (inside the service process)
  and :data:`CLIENT_WRAPPERS`; the originals come back when its block exits.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

_now = time.perf_counter_ns

#: Simulator functions wrapped during a traced run: (module, owner, attribute, span).
SIM_WRAPPERS = (
    ("repro.sim.registers", "RegisterFile", "merge", "sim.registers.merge"),
    ("repro.sim.registers", "RegisterFile", "value_view", "sim.registers.value_view"),
    ("repro.sim.registers", "DeltaTracker", "payload_for", "sim.delta.payload_for"),
    ("repro.sim.registers", "DeltaTracker", "on_ack", "sim.delta.on_ack"),
)


def _bytes_out(counts: dict[str, int], args: tuple, frame: bytes) -> None:
    counts["svc.wire.bytes_out"] += len(frame)


def _fates(counts: dict[str, int], args: tuple, fate: Any) -> None:
    counts["svc.chaos.delayed"] += fate.delay_s > 0.0
    counts["svc.chaos.duplicated"] += fate.duplicates


def _rpcs(counts: dict[str, int], args: tuple, coroutine: Any) -> None:
    # A request on a closed (aborted) client fails before its first send.
    counts["svc.client.rpcs"] += not args[0]._closed


#: Service functions wrapped inside the service process during a traced run.
#: ``pack_frame`` is wrapped where the service module looks it up.  A fifth
#: element tallies counts from each call (see :meth:`Recorder.wrap`).
SVC_WRAPPERS = (
    ("repro.net.wire", "FrameDecoder", "feed", "svc.wire.decode"),
    ("repro.net.service", None, "pack_frame", "svc.wire.encode", _bytes_out),
    ("repro.net.service", "ElectionService", "_dispatch", "svc.service.dispatch"),
    ("repro.net.service", "ElectionService", "_on_acquire", "svc.service.lease"),
    ("repro.net.service", "ElectionService", "_on_renew", "svc.service.lease"),
    ("repro.net.service", "ElectionService", "_on_release", "svc.service.lease"),
    ("repro.net.service", "ElectionService", "_handoff", "svc.service.lease"),
    ("repro.net.service", "ElectionService", "_sweep_key", "svc.service.lease"),
    ("repro.net.service", "_Session", "cache_reply", "svc.service.reply_cache"),
    ("repro.net.chaos", "LinkChaos", "next_fate", "svc.chaos.fate", _fates),
)

#: Client-side functions wrapped to count requests and the frames sent for
#: them; frames beyond one per request are resends.
CLIENT_WRAPPERS = (
    ("repro.net.client", "ServiceClient", "_call", "svc.client.call", _rpcs),
    ("repro.net.client", "ServiceClient", "_send", "svc.client.send"),
)


class _Node:
    """One call-tree node: a span name under one parent path."""

    __slots__ = ("name", "parent", "children", "count", "incl_ns", "start_ns")

    def __init__(self, name: str, parent: "_Node | None") -> None:
        self.name = name
        self.parent = parent
        self.children: dict[str, _Node] = {}
        self.count = 0
        self.incl_ns = 0
        self.start_ns = 0

    def child(self, name: str) -> "_Node":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = _Node(name, self)
        return node


class _Span:
    """The context manager :meth:`Recorder.span` hands out (one per name)."""

    __slots__ = ("_rec", "_name")

    def __init__(self, rec: "Recorder", name: str) -> None:
        self._rec = rec
        self._name = name

    def __enter__(self) -> None:
        rec = self._rec
        top = rec.top
        node = top.children.get(self._name)
        if node is None:
            node = top.child(self._name)
        rec.top = node
        node.start_ns = _now()

    def __exit__(self, *exc: Any) -> None:
        rec = self._rec
        node = rec.top
        node.incl_ns += _now() - node.start_ns
        node.count += 1
        rec.top = node.parent


class Recorder:
    """Call-tree span recorder; ``span(name)`` satisfies the profiler protocol."""

    def __init__(self) -> None:
        self.root = _Node("", None)
        self.top = self.root
        self.counts: dict[str, int] = defaultdict(int)
        self._spans: dict[str, _Span] = {}

    def span(self, name: str) -> _Span:
        """A ``with``-block span under ``name``, nested in the open span."""
        span = self._spans.get(name)
        if span is None:
            span = self._spans[name] = _Span(self, name)
        return span

    def wrap(self, fn: Callable, name: str, tally: Callable | None = None) -> Callable:
        """``fn`` recorded as span ``name`` on every call.

        ``tally(counts, args, result)``, if given, adds to :attr:`counts`
        from each call's arguments and result, inside the span.
        """
        counts = self.counts

        def wrapper(*args, **kwargs):
            top = self.top
            node = top.children.get(name)
            if node is None:
                node = top.child(name)
            self.top = node
            start = _now()
            try:
                result = fn(*args, **kwargs)
                if tally is not None:
                    tally(counts, args, result)
                return result
            finally:
                node.incl_ns += _now() - start
                node.count += 1
                self.top = top

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def rows(self) -> list[dict[str, Any]]:
        """Count, inclusive and self time per ``(span, parent)``, in ms."""
        folded: dict[tuple[str, str | None], list[int]] = {}
        pending = list(self.root.children.values())
        while pending:
            node = pending.pop()
            children = list(node.children.values())
            pending.extend(children)
            parent = node.parent.name if node.parent is not self.root else None
            row = folded.setdefault((node.name, parent), [0, 0, 0])
            row[0] += node.count
            row[1] += node.incl_ns
            row[2] += node.incl_ns - sum(child.incl_ns for child in children)
        return [
            {"span": span, "parent": parent, "count": count,
             "incl_ms": incl / 1e6, "self_ms": self_ns / 1e6}
            for (span, parent), (count, incl, self_ns) in sorted(
                folded.items(), key=lambda item: (item[0][0], item[0][1] or ""))
        ]


def totals(rows: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Per span name: call count and self time (ms), summed over parents."""
    folded: dict[str, dict[str, float]] = {}
    for row in rows:
        total = folded.setdefault(row["span"], {"count": 0, "self_ms": 0.0})
        total["count"] += row["count"]
        total["self_ms"] += row["self_ms"]
    return folded


@contextmanager
def installed(rec: Recorder, targets) -> Iterator[Recorder]:
    """Wrap every ``targets`` function with ``rec``; restore them on exit."""
    restore: list[tuple[Any, str, Any]] = []
    try:
        for module_name, owner_name, attr, span, *tally in targets:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            original = vars(owner)[attr]
            restore.append((owner, attr, original))
            setattr(owner, attr, rec.wrap(original, span, *tally))
        yield rec
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
