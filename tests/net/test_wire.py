"""Wire-codec tests: lossless round trips and hostile-input rejection.

The tagged value codec must round-trip **every** value the protocols
store in registers — the hypothesis strategies below generate the full
recursive value domain (primitives, protocol enums, tuples, lists,
sets, frozensets, maps with non-string keys) and assert
``decode(encode(v)) == v`` with types preserved.  The frame layer must
reject anything malformed — truncation, garbage, bad magic, wrong
version, oversized lengths — with :class:`WireError`, never a crash or
a silently wrong frame.
"""

from __future__ import annotations

import json
import math
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import HetStatus, Outcome, PillState
from repro.net.wire import (
    FRAME_TYPES,
    HEADER_BYTES,
    MAGIC,
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    Frame,
    FrameDecoder,
    FrameType,
    WireError,
    check_entries,
    decode_value,
    encode_value,
    pack_frame,
)

# ---------------------------------------------------------------------------
# Strategies over the protocol value domain
# ---------------------------------------------------------------------------

primitives = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.text(max_size=20),
    st.sampled_from(list(Outcome)),
    st.sampled_from(list(PillState)),
)

hashable_primitives = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.text(max_size=10),
)


def _extend(children):
    hashables = st.one_of(
        hashable_primitives,
        st.tuples(hashable_primitives, hashable_primitives),
        st.frozensets(hashable_primitives, max_size=3),
    )
    return st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.sets(hashable_primitives, max_size=4),
        st.frozensets(hashable_primitives, max_size=4),
        st.dictionaries(hashables, children, max_size=4),
        st.builds(
            HetStatus,
            st.sampled_from(["low", "high", "commit"]),
            # members is a pidset bitmask int (see repro.sim.pidset).
            st.integers(min_value=0, max_value=2**64 - 1),
        ),
    )


values = st.recursive(primitives, _extend, max_leaves=12)

entry_maps = st.dictionaries(
    st.one_of(
        st.integers(min_value=0, max_value=255),
        st.text(max_size=8),
        st.tuples(st.integers(min_value=0, max_value=15), st.text(max_size=4)),
    ),
    st.tuples(
        st.integers(min_value=0, max_value=2**31),
        values,
        st.sampled_from(["version", "or", "max"]),
    ),
    max_size=6,
)

field_maps = st.dictionaries(
    st.text(min_size=1, max_size=12), values, max_size=5
)

frames = st.builds(
    Frame,
    st.sampled_from(sorted(FRAME_TYPES)),
    st.integers(min_value=-1, max_value=1023),
    field_maps,
)


class TestValueCodec:
    @given(values)
    @settings(max_examples=200)
    def test_round_trip(self, value):
        assert decode_value(encode_value(value)) == value

    @given(values)
    def test_round_trip_preserves_type(self, value):
        decoded = decode_value(encode_value(value))
        assert type(decoded) is type(value)

    @given(st.sets(st.integers(), max_size=6))
    def test_set_encoding_is_canonical(self, members):
        """Identical sets built in any order serialize identically."""
        forward = encode_value(set(sorted(members)))
        backward = encode_value(set(sorted(members, reverse=True)))
        assert json.dumps(forward, sort_keys=True) == json.dumps(
            backward, sort_keys=True
        )

    @given(st.dictionaries(st.integers(), st.integers(), max_size=6))
    def test_map_encoding_is_canonical(self, mapping):
        forward = encode_value(dict(sorted(mapping.items())))
        backward = encode_value(dict(sorted(mapping.items(), reverse=True)))
        assert json.dumps(forward, sort_keys=True) == json.dumps(
            backward, sort_keys=True
        )

    def test_unencodable_value_rejected_at_sender(self):
        with pytest.raises(WireError, match="not wire-encodable"):
            encode_value(object())

    def test_bare_array_rejected_at_receiver(self):
        with pytest.raises(WireError, match="bare JSON array"):
            decode_value([1, 2, 3])

    def test_untagged_object_rejected(self):
        with pytest.raises(WireError, match="untagged object"):
            decode_value({"v": 1})

    def test_unknown_tag_rejected(self):
        with pytest.raises(WireError, match="unknown value tag"):
            decode_value({"__t": "zebra", "v": 1})

    def test_protocol_enums_round_trip_by_identity(self):
        for member in (*Outcome, *PillState):
            assert decode_value(encode_value(member)) is member


class TestEntryCodec:
    @given(entry_maps)
    @settings(max_examples=100)
    def test_entries_round_trip(self, entries):
        assert check_entries(decode_value(encode_value(entries))) == entries

    def test_malformed_entry_rejected(self):
        bad = decode_value(encode_value({"x": (1, 2)}))  # two-tuple, not a triple
        with pytest.raises(WireError, match="malformed register entry"):
            check_entries(bad)

    def test_non_mapping_payload_rejected(self):
        with pytest.raises(WireError, match="not a mapping"):
            check_entries((1, 2, 3))


class TestFrameRoundTrip:
    @given(frames)
    @settings(max_examples=200)
    def test_pack_then_decode(self, frame):
        decoder = FrameDecoder()
        (decoded,) = decoder.feed(pack_frame(frame))
        assert decoded.ftype == frame.ftype
        assert decoded.sender == frame.sender
        assert dict(decoded.fields) == dict(frame.fields)
        decoder.finish()  # buffer must end exactly on the boundary

    @given(st.lists(frames, min_size=1, max_size=5), st.randoms())
    @settings(max_examples=50)
    def test_arbitrary_chunking(self, frame_list, rng):
        """TCP may deliver any byte split; the decoder must not care."""
        stream = b"".join(pack_frame(frame) for frame in frame_list)
        decoder = FrameDecoder()
        out = []
        position = 0
        while position < len(stream):
            cut = rng.randint(position + 1, len(stream))
            out.extend(decoder.feed(stream[position:cut]))
            position = cut
        decoder.finish()
        assert [frame.ftype for frame in out] == [
            frame.ftype for frame in frame_list
        ]
        assert [frame.sender for frame in out] == [
            frame.sender for frame in frame_list
        ]

    @given(frames)
    def test_pack_is_deterministic(self, frame):
        assert pack_frame(frame) == pack_frame(frame)

    @given(frames)
    @settings(max_examples=100)
    def test_pack_body_is_canonical_json(self, frame):
        body = json.dumps(
            {
                "t": frame.ftype,
                "s": frame.sender,
                "f": {key: encode_value(value) for key, value in frame.fields.items()},
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        assert pack_frame(frame)[HEADER_BYTES:] == body

    def test_unknown_frame_type_rejected_at_pack(self):
        with pytest.raises(WireError, match="unknown frame type"):
            pack_frame(Frame("gossip", 0, {}))


def _raw(body: bytes) -> bytes:
    """A frame around ``body`` bytes, whatever they hold."""
    return MAGIC + bytes([WIRE_VERSION]) + len(body).to_bytes(4, "big") + body


def _reference_pack(frame: Frame) -> bytes:
    """The frame codec's definition: ``json.dumps`` of the tagged body."""
    body = json.dumps(
        {
            "t": frame.ftype,
            "s": frame.sender,
            "f": {key: encode_value(value) for key, value in frame.fields.items()},
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    return _raw(body)


def _reference_decode(body: bytes) -> Frame:
    """``json.loads`` plus :func:`decode_value` on every field."""
    obj = json.loads(body.decode("utf-8"))
    return Frame(
        obj["t"], obj["s"],
        {key: decode_value(value) for key, value in obj["f"].items()},
    )


#: Plain field values: the scalars every service frame carries.
plain_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=20),
)

mixed_field_maps = st.dictionaries(
    st.text(max_size=12), st.one_of(plain_values, values), max_size=6
)

mixed_frames = st.builds(
    Frame,
    st.sampled_from(sorted(FRAME_TYPES)),
    st.integers(min_value=-2, max_value=1023),
    st.one_of(mixed_field_maps, mixed_field_maps.map(MappingProxyType)),
)


class _Str(str):
    pass


class _Int(int):
    pass


class TestCodecMatchesReference:
    """``pack_frame``/``FrameDecoder`` against the plain ``json`` reference.

    Plain-scalar fields and tagged fields (register values) share one
    frame here, so every encode and decode path is pinned to the same
    bytes, frames and error texts as ``json.dumps``/``json.loads``.
    """

    @given(mixed_frames)
    @settings(max_examples=300)
    def test_pack_equals_reference(self, frame):
        assert pack_frame(frame) == _reference_pack(frame)

    @given(st.lists(mixed_frames, min_size=1, max_size=4))
    @settings(max_examples=150)
    def test_feed_equals_reference(self, frame_list):
        raws = [pack_frame(frame) for frame in frame_list]
        decoded = FrameDecoder().feed(b"".join(raws))
        assert decoded == [_reference_decode(raw[HEADER_BYTES:]) for raw in raws]

    def test_scalar_subclasses_pack_as_reference(self):
        frame = Frame(FrameType.SVC_REPLY, -2, {
            "a": _Str("x"), "b": _Int(7), "c": True, "d": None, "e": 1.5,
        })
        assert pack_frame(frame) == _reference_pack(frame)

    def test_non_json_sender_raises_type_error(self):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            pack_frame(Frame(FrameType.ACK, object(), {}))

    @pytest.mark.parametrize("body", [
        b' \n{"f":{"k":1},"s":0,"t":"ack"}',
        b'{"f":{"k":1},"s":0,"t":"ack"}\r\n ',
        b'{ "t" : "ack", "s" : 0, "f" : { "k" : [1] } }',
        b'{"f":{"x":{"__t":"t","v":[1,"a"]}},"s":3,"t":"ack"}',
        b'{"f":{"x":Infinity,"y":-Infinity},"s":0,"t":"ack"}',
    ], ids=["leading-ws", "trailing-ws", "spaced", "tagged", "infinity"])
    def test_non_canonical_body_decodes_as_reference(self, body):
        try:
            expected = _reference_decode(body)
        except WireError as error:
            with pytest.raises(WireError) as caught:
                FrameDecoder().feed(_raw(body))
            assert str(caught.value) == str(error)
        else:
            assert FrameDecoder().feed(_raw(body)) == [expected]

    def test_nan_body_decodes_as_reference(self):
        (frame,) = FrameDecoder().feed(_raw(b'{"f":{"x":NaN},"s":0,"t":"ack"}'))
        assert math.isnan(frame.fields["x"])

    @pytest.mark.parametrize("body", [
        b'{"f":{},"s":0,"t":"ack"} {}',
        b'{"f":{},"s":0,"t":"ack"}x',
        b"",
        b"   ",
        b'{"f":{',
        b'{"f":{"x":[1,]},"s":0,"t":"ack"}',
        b'{"f":{"x":nan},"s":0,"t":"ack"}',
        b'\xef\xbb\xbf{"f":{},"s":0,"t":"ack"}',
        b'{"f":{"x":"\xff"},"s":0,"t":"ack"}',
        b'{"f":{"x":"\x01"},"s":0,"t":"ack"}',
    ], ids=["extra-data", "extra-char", "empty", "blank", "truncated",
            "trailing-comma", "lowercase-nan", "bom", "bad-utf8", "control-char"])
    def test_undecodable_body_error_matches_reference(self, body):
        try:
            json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            expected = f"undecodable frame body: {error}"
        with pytest.raises(WireError) as caught:
            FrameDecoder().feed(_raw(body))
        assert str(caught.value) == expected


class TestHostileInput:
    def test_bad_magic(self):
        with pytest.raises(WireError, match="bad frame magic"):
            FrameDecoder().feed(b"XX" + bytes(20))

    def test_wrong_version(self):
        raw = bytearray(pack_frame(Frame(FrameType.ACK, 0, {})))
        raw[2] = WIRE_VERSION + 1
        with pytest.raises(WireError, match="wire version"):
            FrameDecoder().feed(bytes(raw))

    def test_oversized_length_rejected_before_buffering(self):
        header = MAGIC + bytes([WIRE_VERSION]) + (MAX_FRAME_BYTES + 1).to_bytes(
            4, "big"
        )
        with pytest.raises(WireError, match="exceeds"):
            FrameDecoder().feed(header)

    def test_truncated_stream_detected_at_finish(self):
        raw = pack_frame(Frame(FrameType.HELLO, 3, {"port": 1}))
        decoder = FrameDecoder()
        assert decoder.feed(raw[:-1]) == []
        assert decoder.pending_bytes == len(raw) - 1
        with pytest.raises(WireError, match="truncated mid-frame"):
            decoder.finish()

    def test_frames_before_bad_bytes_ride_on_the_error(self):
        good = [Frame(FrameType.ACK, 1, {"n": 1}), Frame(FrameType.ACK, 2, {})]
        raw = b"".join(pack_frame(frame) for frame in good) + b"XX" + bytes(20)
        with pytest.raises(WireError, match="bad frame magic") as caught:
            FrameDecoder().feed(raw)
        assert list(caught.value.frames) == good

    def test_garbage_body_rejected(self):
        body = b"\xff\xfenot json"
        raw = MAGIC + bytes([WIRE_VERSION]) + len(body).to_bytes(4, "big") + body
        with pytest.raises(WireError, match="undecodable frame body"):
            FrameDecoder().feed(raw)

    @given(st.binary(min_size=HEADER_BYTES, max_size=64))
    @settings(max_examples=100)
    def test_random_bytes_never_crash(self, data):
        """Arbitrary garbage either yields frames or raises WireError."""
        decoder = FrameDecoder()
        try:
            decoder.feed(data)
        except WireError:
            pass

    def test_non_object_body_rejected(self):
        body = json.dumps([1, 2]).encode()
        raw = MAGIC + bytes([WIRE_VERSION]) + len(body).to_bytes(4, "big") + body
        with pytest.raises(WireError, match="not an object"):
            FrameDecoder().feed(raw)

    def test_bool_sender_rejected(self):
        body = json.dumps({"t": "ack", "s": True, "f": {}}).encode()
        raw = MAGIC + bytes([WIRE_VERSION]) + len(body).to_bytes(4, "big") + body
        with pytest.raises(WireError, match="sender is not an int"):
            FrameDecoder().feed(raw)

    def test_missing_key_rejected(self):
        body = json.dumps({"t": "ack", "s": 0}).encode()
        raw = MAGIC + bytes([WIRE_VERSION]) + len(body).to_bytes(4, "big") + body
        with pytest.raises(WireError, match="missing key"):
            FrameDecoder().feed(raw)

    @pytest.mark.parametrize("good", [0, 1, 2])
    @pytest.mark.parametrize("bad, message, cut", [
        (b"XX" + bytes(20), "bad frame magic", False),
        (MAGIC + bytes([WIRE_VERSION + 1]) + bytes(8), "wire version", False),
        (MAGIC + bytes([WIRE_VERSION]) + (MAX_FRAME_BYTES + 1).to_bytes(4, "big"),
         "exceeds", False),
        (_raw(b"\xff\xfenot json"), "undecodable frame body", True),
        (_raw(b'{"f":{},"s":0,"t":"ack"} {}'), "Extra data", True),
        (_raw(b"[1, 2]"), "not an object", True),
        (_raw(b'{"t":"ack","s":true,"f":{}}'), "sender is not an int", True),
        (_raw(b'{"t":"ack","s":0}'), "missing key", True),
        (_raw(b'{"t":"gossip","s":0,"f":{}}'), "unknown frame type", True),
        (_raw(b'{"t":"ack","s":0,"f":[]}'), "fields is not an object", True),
        (_raw(b'{"t":"ack","s":0,"f":{"x":[1]}}'), "bare JSON array", True),
        (_raw(b'{"t":"ack","s":0,"f":{"x":{"v":1}}}'), "untagged object", True),
    ], ids=["magic", "version", "length", "utf8", "extra", "array", "sender",
            "missing", "ftype", "fields", "bare-array", "untagged"])
    def test_pending_bytes_after_error(self, bad, message, cut, good):
        """A bad header stays buffered; a bad body was already cut off.

        Either way the frames before it ride on the error and the bytes
        after it stay buffered.
        """
        frames = [Frame(FrameType.ACK, pid, {"n": pid}) for pid in range(good)]
        tail = pack_frame(Frame(FrameType.ACK, 9, {}))
        decoder = FrameDecoder()
        raw = b"".join(pack_frame(frame) for frame in frames) + bad + tail
        with pytest.raises(WireError, match=message) as caught:
            decoder.feed(raw)
        assert list(caught.value.frames) == frames
        assert decoder.pending_bytes == (0 if cut else len(bad)) + len(tail)
