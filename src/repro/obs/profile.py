"""Wall-clock span profiling as a call tree.

The logical-clock metrics answer "how many communicate calls"; this
module answers "where do the *seconds* go" — adversary decision time vs
delivery processing vs protocol steps.  A :class:`Profiler` is passed to
:class:`~repro.sim.runtime.Simulation` (or any other code) and times
named ``with``-block spans; when no profiler is attached the runtime pays
a single ``is None`` check per run.

A span opened inside another span nests under it.  Each call-tree node
keeps a count and an *inclusive* time; a node's *self* time is its
inclusive time minus its children's, so nested spans never count the
same second twice.  Entering and leaving a span costs two clock reads,
one dict lookup and three attribute writes, with no allocation after the
first call along a path.  :meth:`Profiler.rows` folds the tree into one
JSON-ready row per ``(span, parent)``.
"""

from __future__ import annotations

import time
from typing import Any, Callable


class _Node:
    """One call-tree node: a span name under one parent path."""

    __slots__ = ("name", "parent", "children", "count", "incl", "start")

    def __init__(self, name: str, parent: "_Node | None") -> None:
        self.name = name
        self.parent = parent
        self.children: dict[str, _Node] = {}
        self.count = 0
        self.incl = 0.0
        self.start = 0.0


class _Span:
    """The context manager :meth:`Profiler.span` hands out (one per name)."""

    __slots__ = ("_profiler", "_name")

    def __init__(self, profiler: "Profiler", name: str) -> None:
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> None:
        profiler = self._profiler
        top = profiler._top
        node = top.children.get(self._name)
        if node is None:
            node = top.children[self._name] = _Node(self._name, top)
        profiler._top = node
        node.start = profiler._clock()

    def __exit__(self, *exc: Any) -> None:
        profiler = self._profiler
        node = profiler._top
        node.incl += profiler._clock() - node.start
        node.count += 1
        profiler._top = node.parent


class Profiler:
    """Call-tree wall-clock span recorder.

    ``clock`` (seconds) is injectable for deterministic tests; it
    defaults to :func:`time.perf_counter`.
    """

    __slots__ = ("_root", "_top", "_spans", "_clock")

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._root = _Node("", None)
        self._top = self._root
        self._spans: dict[str, _Span] = {}
        self._clock = clock

    def span(self, name: str) -> _Span:
        """A ``with``-block span under ``name``, nested in the open span."""
        span = self._spans.get(name)
        if span is None:
            span = self._spans[name] = _Span(self, name)
        return span

    def rows(self) -> list[dict[str, Any]]:
        """Count, inclusive and self time (ms) per ``(span, parent)``.

        ``parent`` is the enclosing span's name, ``None`` at the top
        level; nodes with the same span and parent name on different
        paths fold into one row.  Sorted by span, then parent.
        """
        folded: dict[tuple[str, str | None], list[float]] = {}
        pending = list(self._root.children.values())
        while pending:
            node = pending.pop()
            children = list(node.children.values())
            pending.extend(children)
            parent = node.parent.name if node.parent is not self._root else None
            row = folded.setdefault((node.name, parent), [0, 0.0, 0.0])
            row[0] += node.count
            row[1] += node.incl
            row[2] += node.incl - sum(child.incl for child in children)
        return [
            {"span": span, "parent": parent, "count": count,
             "incl_ms": incl * 1e3, "self_ms": self_s * 1e3}
            for (span, parent), (count, incl, self_s) in sorted(
                folded.items(), key=lambda item: (item[0][0], item[0][1] or ""))
        ]
