"""Length-prefixed, versioned wire framing for the socket backend.

A frame on the wire is::

    +----------+---------+------------------+------------------+
    | magic(2) | ver(1)  | length(4, BE)    | body (JSON utf-8)|
    +----------+---------+------------------+------------------+

``magic`` is ``b"RW"`` (Repro Wire), ``ver`` the :data:`WIRE_VERSION`
byte, and ``length`` the body size in bytes, capped at
:data:`MAX_FRAME_BYTES` so a corrupted length cannot make a reader
allocate unbounded memory.  The body is one JSON object with sorted keys
— identical frames serialize to identical bytes.

Register values cross the wire through a **lossless tagged encoding**
(:func:`encode_value` / :func:`decode_value`).  The simulator's
``json_safe`` is deliberately lossy (``repr`` fallback for display);
the wire codec must instead round-trip every value the protocols store:
primitives, tuples, lists, sets/frozensets, dicts with non-string keys,
and the protocol vocabulary (:class:`~repro.core.protocol.Outcome`,
``PillState``, ``HetStatus``).  Register entries — ``(version, value,
policy)`` triples keyed by arbitrary hashables — ride on top of it via
:func:`encode_entries` / :func:`decode_entries`.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Hashable, Mapping, Sequence

from ..core.protocol import HetStatus, Outcome, PillState

#: Bumped when the frame layout or tagged encoding changes incompatibly.
WIRE_VERSION = 1

#: First two bytes of every frame.
MAGIC = b"RW"

#: Header size: magic + version + 4-byte big-endian body length.
HEADER_BYTES = 7

#: Upper bound on a frame body.  The largest legitimate payload is a full
#: register variable (n entries of small tuples); 16 MiB is orders of
#: magnitude above that, while still rejecting garbage lengths instantly.
MAX_FRAME_BYTES = 16 * 1024 * 1024


class WireError(ValueError):
    """Any malformed frame: bad magic, version, length, or body.

    When :meth:`FrameDecoder.feed` raises it, :attr:`frames` holds the
    frames that chunk completed before the malformed bytes.
    """

    frames: Sequence["Frame"] = ()


class FrameType:
    """String constants naming every frame the backend exchanges.

    Data plane (between nodes) mirrors
    :class:`~repro.sim.messages.MessageKind`; the control plane (node ↔
    driver) carries run orchestration.
    """

    # Data plane — the [ABND95] communicate primitive.
    PROPAGATE = "propagate"
    COLLECT = "collect"
    ACK = "ack"
    COLLECT_REPLY = "collect_reply"
    # Control plane — driver orchestration.
    HELLO = "hello"
    START = "start"
    RESULT = "result"
    SHUTDOWN = "shutdown"
    ERROR = "error"
    # Service plane — the keyed election namespace (repro.net.service).
    # Requests carry an ``rpc`` nonce; SVC_REPLY echoes it with a
    # ``status`` field (granted/busy/fenced/ok/state/error), and
    # SVC_EVENT frames are unsolicited watch notifications.
    ACQUIRE = "acquire"
    RENEW = "renew"
    RELEASE = "release"
    WATCH = "watch"
    SVC_STATS = "svc_stats"
    SVC_REPLY = "svc_reply"
    SVC_EVENT = "svc_event"


#: Every valid frame type, for decode-time validation.
FRAME_TYPES = frozenset(
    value for name, value in vars(FrameType).items() if not name.startswith("_")
)


@dataclass(frozen=True, slots=True)
class Frame:
    """One unit of traffic: a type, the sending pid, and a field mapping.

    ``fields`` values go through the tagged value codec, so any register
    value — and nested containers of them — survive the round trip.
    The driver uses pid ``-1`` as its sender id on control frames.
    """

    ftype: str
    sender: int
    fields: Mapping[str, Any] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Tagged value codec
# ---------------------------------------------------------------------------

#: Tag names for the non-primitive value shapes.
_TAG_TUPLE = "t"
_TAG_LIST = "l"
_TAG_SET = "s"
_TAG_FROZENSET = "fs"
_TAG_MAP = "m"
_TAG_OUTCOME = "outcome"
_TAG_PILL = "pill"
_TAG_HET = "het"


def encode_value(value: Any) -> Any:
    """Encode one register value into a JSON-serializable tagged form.

    Primitives pass through unchanged; containers and the protocol enums
    become ``{"__t": tag, "v": ...}`` objects.  Raises :class:`WireError`
    for types outside the protocol value domain, so an unserializable
    value fails at the sender instead of poisoning the stream.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, Outcome):
        return {"__t": _TAG_OUTCOME, "v": value.value}
    if isinstance(value, PillState):
        return {"__t": _TAG_PILL, "v": value.value}
    if isinstance(value, HetStatus):
        return {
            "__t": _TAG_HET,
            "v": [encode_value(value.state), encode_value(value.members)],
        }
    if isinstance(value, tuple):
        return {"__t": _TAG_TUPLE, "v": [encode_value(item) for item in value]}
    if isinstance(value, list):
        return {"__t": _TAG_LIST, "v": [encode_value(item) for item in value]}
    if isinstance(value, (set, frozenset)):
        encoded = [encode_value(item) for item in value]
        # Canonical member order so identical sets yield identical bytes.
        encoded.sort(key=lambda item: json.dumps(item, sort_keys=True))
        tag = _TAG_FROZENSET if isinstance(value, frozenset) else _TAG_SET
        return {"__t": tag, "v": encoded}
    if isinstance(value, Mapping):
        pairs = [
            [encode_value(key), encode_value(item)] for key, item in value.items()
        ]
        pairs.sort(key=lambda pair: json.dumps(pair[0], sort_keys=True))
        return {"__t": _TAG_MAP, "v": pairs}
    raise WireError(f"value not wire-encodable: {value!r} ({type(value).__name__})")


def decode_value(obj: Any) -> Any:
    """Invert :func:`encode_value`; raises :class:`WireError` on bad tags."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, list):
        # Bare JSON lists never come out of encode_value; reject so that a
        # hand-crafted ambiguous body fails loudly instead of guessing.
        raise WireError("bare JSON array in value position (expected a tag)")
    if not isinstance(obj, dict) or "__t" not in obj or "v" not in obj:
        raise WireError(f"untagged object in value position: {obj!r}")
    tag, inner = obj["__t"], obj["v"]
    if tag == _TAG_OUTCOME:
        return Outcome(inner)
    if tag == _TAG_PILL:
        return PillState(inner)
    if tag == _TAG_HET:
        state, members = inner
        return HetStatus(decode_value(state), decode_value(members))
    if tag == _TAG_TUPLE:
        return tuple(decode_value(item) for item in inner)
    if tag == _TAG_LIST:
        return [decode_value(item) for item in inner]
    if tag == _TAG_SET:
        return {decode_value(item) for item in inner}
    if tag == _TAG_FROZENSET:
        return frozenset(decode_value(item) for item in inner)
    if tag == _TAG_MAP:
        return {decode_value(key): decode_value(item) for key, item in inner}
    raise WireError(f"unknown value tag {tag!r}")


def encode_entries(entries: Mapping[Hashable, tuple[int, Any, str]]) -> Any:
    """Encode a register entry mapping ``{key: (version, value, policy)}``."""
    return encode_value(dict(entries))


def decode_entries(obj: Any) -> dict[Hashable, tuple[int, Any, str]]:
    """Decode an entry mapping, validating the ``(int, value, str)`` shape."""
    decoded = decode_value(obj)
    if not isinstance(decoded, dict):
        raise WireError(f"entries payload is not a mapping: {decoded!r}")
    for key, entry in decoded.items():
        if (
            not isinstance(entry, tuple)
            or len(entry) != 3
            or not isinstance(entry[0], int)
            or not isinstance(entry[2], str)
        ):
            raise WireError(f"malformed register entry for key {key!r}: {entry!r}")
    return decoded


# ---------------------------------------------------------------------------
# Frame packing
# ---------------------------------------------------------------------------


#: The canonical body encoder, built once (``json.dumps`` with keyword
#: arguments would build a new encoder on every call).
_BODY_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def pack_frame(frame: Frame) -> bytes:
    """Serialize one frame to its canonical byte form."""
    if frame.ftype not in FRAME_TYPES:
        raise WireError(f"unknown frame type {frame.ftype!r}")
    body = _BODY_ENCODER.encode({
        "t": frame.ftype,
        "s": frame.sender,
        "f": {key: encode_value(value) for key, value in frame.fields.items()},
    }).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(f"frame body {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return MAGIC + bytes([WIRE_VERSION]) + len(body).to_bytes(4, "big") + body


def _decode_body(body: bytes) -> Frame:
    try:
        obj = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireError(f"undecodable frame body: {error}") from None
    if not isinstance(obj, dict):
        raise WireError(f"frame body is not an object: {obj!r}")
    try:
        ftype, sender, fields = obj["t"], obj["s"], obj["f"]
    except KeyError as error:
        raise WireError(f"frame body missing key {error}") from None
    if ftype not in FRAME_TYPES:
        raise WireError(f"unknown frame type {ftype!r}")
    if not isinstance(sender, int) or isinstance(sender, bool):
        raise WireError(f"frame sender is not an int: {sender!r}")
    if not isinstance(fields, dict):
        raise WireError(f"frame fields is not an object: {fields!r}")
    return Frame(
        ftype=ftype,
        sender=sender,
        fields={key: decode_value(value) for key, value in fields.items()},
    )


class FrameDecoder:
    """Incremental decoder: feed arbitrary byte chunks, collect frames.

    TCP gives a byte stream, not message boundaries, so receivers buffer
    and cut frames out as headers complete.  Any malformed header or body
    raises :class:`WireError` immediately — a corrupted stream cannot be
    resynchronized, so the connection must be dropped.
    """

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[Frame]:
        """Consume ``data``; return every frame completed by it.

        A :class:`WireError` carries the frames cut before the malformed
        bytes in its ``frames`` attribute.
        """
        self._buffer.extend(data)
        frames: list[Frame] = []
        try:
            while (frame := self._try_cut()) is not None:
                frames.append(frame)
        except WireError as error:
            error.frames = frames
            raise
        return frames

    def _try_cut(self) -> Frame | None:
        buffer = self._buffer
        if len(buffer) < HEADER_BYTES:
            return None
        if bytes(buffer[:2]) != MAGIC:
            raise WireError(f"bad frame magic {bytes(buffer[:2])!r}")
        if buffer[2] != WIRE_VERSION:
            raise WireError(
                f"wire version {buffer[2]} unsupported (expected {WIRE_VERSION})"
            )
        length = int.from_bytes(buffer[3:7], "big")
        if length > MAX_FRAME_BYTES:
            raise WireError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
        if len(buffer) < HEADER_BYTES + length:
            return None
        body = bytes(buffer[HEADER_BYTES:HEADER_BYTES + length])
        del buffer[:HEADER_BYTES + length]
        return _decode_body(body)

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buffer)

    def finish(self) -> None:
        """Assert stream end on a frame boundary; raise if bytes remain."""
        if self._buffer:
            raise WireError(
                f"stream truncated mid-frame ({len(self._buffer)} bytes pending)"
            )


# ---------------------------------------------------------------------------
# asyncio stream helpers
# ---------------------------------------------------------------------------


async def read_frame(reader) -> Frame | None:
    """Read one frame from an ``asyncio.StreamReader``.

    Returns ``None`` on clean EOF at a frame boundary; raises
    :class:`WireError` on EOF mid-frame or any malformed header/body.
    """
    header = await reader.read(HEADER_BYTES)
    if not header:
        return None
    while len(header) < HEADER_BYTES:
        more = await reader.read(HEADER_BYTES - len(header))
        if not more:
            raise WireError("stream truncated mid-header")
        header += more
    decoder = FrameDecoder()
    frames = decoder.feed(header)
    assert not frames  # header alone never completes a frame (length >= 2 body)
    length = int.from_bytes(header[3:7], "big")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise WireError("stream truncated mid-body") from None
    frames = decoder.feed(body)
    if len(frames) != 1:
        raise WireError("frame did not complete at declared length")
    return frames[0]


async def write_frame(writer, frame: Frame) -> None:
    """Write one frame to an ``asyncio.StreamWriter`` and drain."""
    writer.write(pack_frame(frame))
    await writer.drain()
