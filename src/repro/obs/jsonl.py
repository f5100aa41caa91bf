"""JSONL export and import of event streams.

One JSON object per line.  The first line of a recorded trace is a meta
header (``{"meta": {...}}``) carrying everything the replayer needs to
reconstruct the run: task, system size, participants spec, seed, and the
adversary's registry name.  Every following line is one event, serialized
with sorted keys and no whitespace so that identical executions produce
byte-identical files — the property the replay verifier asserts.
:func:`iter_events` streams a trace back as events.

:func:`read_artifact` identifies and loads every replayable file: a
trace, a shrunk ``repro check`` violation or a soak incident.
"""

from __future__ import annotations

import hashlib
import io
import json
from typing import Any, Iterable, Iterator

from .events import Event

#: Bumped when the serialized schema changes incompatibly.
TRACE_FORMAT_VERSION = 1

#: The ``version`` each replayable kind must carry (in a trace, in its header).
ARTIFACT_VERSIONS = {"trace": TRACE_FORMAT_VERSION, "check-violation": 1, "soak-incident": 1}

#: Top-level fields a JSON artifact kind cannot be replayed without.
_REQUIRED_FIELDS = {
    "check-violation": ("protocol", "invariant", "n", "k", "pattern", "seed",
                        "schedule", "violation", "stream_sha256"),
    "soak-incident": ("grants", "grants_sha256", "violation", "plan"),
}

#: The canonical JSON encoding: sorted keys, no whitespace, so equal
#: objects give equal bytes.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def sha256_lines(lines: Iterable[str]) -> str:
    """SHA-256 hex digest of ``lines``, each terminated by a newline."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


class ArtifactError(ValueError):
    """A file is unreadable or is not a replayable artifact."""


def event_to_obj(event: Event) -> dict[str, Any]:
    """The JSON object form of one event."""
    from .events import json_safe

    return {
        "t": event.time,
        "e": event.etype,
        "p": event.pid,
        "f": {key: json_safe(value) for key, value in event.fields.items()},
    }


def event_line(event: Event) -> str:
    """Canonical single-line serialization of one event."""
    return canonical_json(event_to_obj(event))


def obj_to_event(obj: dict[str, Any]) -> Event:
    """Rebuild an :class:`Event` from its parsed JSON object form."""
    return Event(time=obj["t"], etype=obj["e"], pid=obj["p"], fields=obj["f"])


class JsonlSink:
    """Stream events to a JSONL file (or any text file object).

    Writes are line-buffered in memory and flushed on :meth:`close`; a
    typical leader-election trace is a few thousand lines, so buffering
    the whole run costs little and keeps the hot path free of syscalls.
    """

    __slots__ = ("_fp", "_owns", "_lines", "path")

    def __init__(self, target: str | io.TextIOBase, meta: dict[str, Any] | None = None):
        if isinstance(target, (str, bytes)):
            self.path: str | None = str(target)
            self._fp = open(target, "w", encoding="utf-8")
            self._owns = True
        else:
            self.path = None
            self._fp = target
            self._owns = False
        self._lines: list[str] = []
        if meta is not None:
            self._lines.append(canonical_json({"meta": meta}))

    def emit(self, event: Event) -> None:
        """Buffer the event's canonical JSONL line."""
        self._lines.append(event_line(event))

    @property
    def line_count(self) -> int:
        """Lines buffered so far, the meta header included."""
        return len(self._lines)

    def close(self) -> None:
        """Flush buffered lines and close the file if this sink opened it."""
        if self._lines:
            self._fp.write("\n".join(self._lines))
            self._fp.write("\n")
            self._lines = []
        self._fp.flush()
        if self._owns:
            self._fp.close()


def iter_trace_lines(path: str) -> Iterator[str]:
    """Yield the raw lines of a trace file, without trailing newlines.

    For byte comparison only; :func:`iter_events` parses them.
    """
    with open(path, "r", encoding="utf-8") as fp:
        for line in fp:
            line = line.rstrip("\n")
            if line:
                yield line


def iter_events(path: str) -> Iterator[Event]:
    """Stream a trace file's events, one line at a time.

    The only trace reader: a line-1 ``{"meta": ...}`` header is skipped
    and memory stays constant however long the file.  A malformed line
    (truncated or interleaved JSON, a non-object, an object missing
    its ``t``/``e``/``p``/``f`` keys) raises :class:`ArtifactError`
    with one ``path: line N: reason`` message.
    """
    with open(path, "r", encoding="utf-8") as fp:
        for number, line in enumerate(fp, start=1):
            if line == "\n":
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as error:
                raise ArtifactError(
                    f"{path}: line {number}: not valid JSON "
                    f"({error.msg}: column {error.colno}) — stream truncated "
                    "or interleaved?"
                ) from None
            if type(obj) is not dict:
                raise ArtifactError(
                    f"{path}: line {number}: expected a JSON object, "
                    f"got {type(obj).__name__}"
                )
            if number == 1 and "meta" in obj:
                continue
            try:
                event = obj_to_event(obj)
            except KeyError:
                missing = sorted({"t", "e", "p", "f"} - set(obj))
                raise ArtifactError(
                    f"{path}: line {number}: event object missing "
                    f"key(s) {missing} — not a repro trace line?"
                ) from None
            yield event


def write_events(path: str, events: Iterable[Event], meta: dict[str, Any] | None = None) -> int:
    """Serialize ``events`` to ``path``; returns the number of lines written."""
    sink = JsonlSink(path, meta=meta)
    for event in events:
        sink.emit(event)
    count = sink.line_count
    sink.close()
    return count


def write_artifact(path: str, obj: dict[str, Any]) -> str:
    """Write a JSON artifact (sorted keys, one-space indent) to ``path``."""
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(obj, fp, sort_keys=True, indent=1)
        fp.write("\n")
    return path


def read_artifact(path: str, kind: str | None = None) -> tuple[str, dict[str, Any]]:
    """Identify and load a replayable file: ``(kind, obj)``.

    A trace's first line is its ``{"meta": {...}}`` header, which is
    ``obj``; the JSON kinds are one object with top-level ``kind`` and
    ``version``.  ``kind``, when given, is the only kind accepted.
    Raises :class:`ArtifactError` with a one-line ``path: reason``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fp:
            first = fp.readline()
            if first.startswith('{"meta":'):  # JsonlSink writes it canonically
                found, obj = "trace", json.loads(first)["meta"]
            else:
                obj = json.loads(first + fp.read())
                found = obj.get("kind") if isinstance(obj, dict) else None
    except OSError as exc:
        raise ArtifactError(f"{path}: cannot read ({exc.strerror})") from exc
    except ValueError as exc:
        raise ArtifactError(f"{path}: not valid JSON ({exc})") from exc
    if found not in ARTIFACT_VERSIONS or not isinstance(obj, dict):
        raise ArtifactError(
            f"{path}: not a replayable artifact (kind {found!r}; known: "
            f"{', '.join(sorted(ARTIFACT_VERSIONS))})"
        )
    if kind is not None and found != kind:
        raise ArtifactError(f"{path}: a {found} artifact, not a {kind}")
    if obj.get("version") != ARTIFACT_VERSIONS[found]:
        raise ArtifactError(
            f"{path}: unsupported {found} version {obj.get('version')!r} "
            f"(expected {ARTIFACT_VERSIONS[found]})"
        )
    missing = [name for name in _REQUIRED_FIELDS.get(found, ()) if name not in obj]
    if missing:
        raise ArtifactError(f"{path}: {found} artifact is missing {missing}")
    return found, obj
