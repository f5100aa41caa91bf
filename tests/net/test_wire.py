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
    decode_entries,
    decode_value,
    encode_entries,
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
        assert decode_entries(encode_entries(entries)) == entries

    def test_malformed_entry_rejected(self):
        bad = encode_value({"x": (1, 2)})  # two-tuple, not a triple
        with pytest.raises(WireError, match="malformed register entry"):
            decode_entries(bad)

    def test_non_mapping_payload_rejected(self):
        with pytest.raises(WireError, match="not a mapping"):
            decode_entries(encode_value((1, 2, 3)))


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
