"""Wire-codec round-trip and validation tests (repro.distributed.serialize)."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import (
    WIRE_SCHEMA,
    Accusation,
    LeaderDeclaration,
    StatusDetermination,
    WeightBroadcast,
    WireError,
    decode_message,
    encode_message,
    frame_to_message,
    message_to_frame,
)

# Representative instances per message type; the coverage test below pins
# that every class the codec knows about appears here.
EXAMPLES = [
    WeightBroadcast(sender=3, hop_limit=5, weight=212.5),
    WeightBroadcast(sender=0, hop_limit=1, weight=0.0),
    LeaderDeclaration(sender=7, hop_limit=3, weight=1.25, mini_round=2),
    StatusDetermination(
        sender=4, hop_limit=8, decisions={2: True, 9: False}, mini_round=1
    ),
    StatusDetermination(sender=1, hop_limit=2, decisions={}, mini_round=0),
    Accusation(sender=6, hop_limit=3, accused=2, reason="weight-mismatch", mini_round=4),
    Accusation(sender=0, hop_limit=1, accused=9, reason="", mini_round=0),
]


class TestRoundTrip:
    @pytest.mark.parametrize("message", EXAMPLES, ids=lambda m: type(m).__name__)
    def test_frame_round_trip(self, message):
        assert frame_to_message(message_to_frame(message)) == message

    @pytest.mark.parametrize("message", EXAMPLES, ids=lambda m: type(m).__name__)
    def test_bytes_round_trip(self, message):
        encoded = encode_message(message)
        assert isinstance(encoded, bytes)
        assert encoded.endswith(b"\n")
        assert decode_message(encoded) == message

    def test_decode_accepts_str(self):
        message = EXAMPLES[0]
        assert decode_message(encode_message(message).decode("utf-8")) == message

    def test_every_message_type_is_covered(self):
        from repro.distributed.serialize import _TAG_OF

        assert {type(m) for m in EXAMPLES} == set(_TAG_OF)

    def test_decision_keys_restored_as_ints(self):
        message = StatusDetermination(
            sender=0, hop_limit=4, decisions={11: False}, mini_round=3
        )
        frame = message_to_frame(message)
        # JSON objects only carry string keys on the wire ...
        assert list(frame["decisions"].keys()) == ["11"]
        # ... and decoding restores the integer ids.
        decoded = frame_to_message(json.loads(encode_message(message)))
        assert decoded.decisions == {11: False}

    def test_frames_are_canonical_json(self):
        encoded = encode_message(EXAMPLES[0]).rstrip(b"\n").decode("utf-8")
        parsed = json.loads(encoded)
        assert encoded == json.dumps(
            parsed, sort_keys=True, separators=(",", ":"), allow_nan=False
        )

    def test_frame_carries_schema_and_type(self):
        frame = message_to_frame(EXAMPLES[0])
        assert frame["schema"] == WIRE_SCHEMA
        assert frame["type"] == "weight-broadcast"


class TestValidation:
    def good_frame(self):
        return message_to_frame(WeightBroadcast(sender=3, hop_limit=5, weight=2.0))

    def test_wrong_schema_rejected(self):
        frame = self.good_frame()
        frame["schema"] = "repro.protocol-msg/v999"
        with pytest.raises(WireError, match="schema"):
            frame_to_message(frame)

    def test_missing_schema_rejected(self):
        frame = self.good_frame()
        del frame["schema"]
        with pytest.raises(WireError, match="schema"):
            frame_to_message(frame)

    def test_unknown_type_rejected(self):
        frame = self.good_frame()
        frame["type"] = "gossip"
        with pytest.raises(WireError, match="gossip"):
            frame_to_message(frame)

    def test_unknown_field_rejected(self):
        frame = self.good_frame()
        frame["extra"] = 1
        with pytest.raises(WireError, match="extra"):
            frame_to_message(frame)

    def test_missing_payload_field_rejected(self):
        frame = self.good_frame()
        del frame["weight"]
        with pytest.raises(WireError, match="weight"):
            frame_to_message(frame)

    def test_bad_sender_type_rejected(self):
        frame = self.good_frame()
        frame["sender"] = "three"
        with pytest.raises(WireError, match="sender"):
            frame_to_message(frame)

    def test_bool_is_not_an_int(self):
        frame = self.good_frame()
        frame["hop_limit"] = True
        with pytest.raises(WireError, match="hop_limit"):
            frame_to_message(frame)

    def test_bad_decision_flag_rejected(self):
        frame = message_to_frame(
            StatusDetermination(sender=0, hop_limit=4, decisions={1: True})
        )
        frame["decisions"]["1"] = "winner"
        with pytest.raises(WireError, match="decisions"):
            frame_to_message(frame)

    def test_bad_decision_key_rejected(self):
        frame = message_to_frame(StatusDetermination(sender=0, hop_limit=4))
        frame["decisions"] = {"seven": True}
        with pytest.raises(WireError, match="decisions"):
            frame_to_message(frame)

    def test_decode_rejects_malformed_json(self):
        with pytest.raises(WireError, match="JSON"):
            decode_message(b"{not json}\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(WireError):
            decode_message(b"[1,2,3]\n")

    def test_unserializable_message_class_rejected(self):
        from repro.distributed.messages import Message

        with pytest.raises(WireError, match="Message"):
            message_to_frame(Message(sender=0, hop_limit=1))

    def test_non_finite_weight_unencodable(self):
        with pytest.raises(WireError):
            encode_message(WeightBroadcast(sender=0, hop_limit=1, weight=float("nan")))


# ----------------------------------------------------------------------
# Untrusted bytes: every input ends in a Message or a WireError
# ----------------------------------------------------------------------
#: Arbitrary JSON, NaN and infinities included (``json.loads`` accepts them).
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)


def _decode_or_wire_error(data):
    """Decode ``data``; a decoded message must re-encode to itself."""
    try:
        message = decode_message(data)
    except WireError:
        return None
    assert decode_message(encode_message(message)) == message
    return message


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64))
def test_arbitrary_bytes_decode_or_raise_wire_error(data):
    _decode_or_wire_error(data)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(EXAMPLES), st.data(), json_values)
def test_arbitrary_json_at_any_frame_key_decodes_or_raises_wire_error(
    message, data, value
):
    frame = message_to_frame(message)
    key = data.draw(st.sampled_from([*frame, "extra", "1"]))
    if key == "decisions" or data.draw(st.booleans()):
        frame[key] = value
    elif key in frame:
        del frame[key]
    if isinstance(frame.get("decisions"), dict) and data.draw(st.booleans()):
        frame["decisions"] = {
            **frame["decisions"],
            data.draw(st.text(max_size=4)): data.draw(json_values),
        }
    text = json.dumps(frame)  # NaN and infinities travel as bare tokens
    _decode_or_wire_error(text.encode("utf-8"))


class TestUntrustedBytes:
    def frame(self, **changes):
        frame = message_to_frame(WeightBroadcast(sender=3, hop_limit=5, weight=2.0))
        frame.update(changes)
        return json.dumps(frame).encode("utf-8")

    def test_unhashable_type_tag_is_a_wire_error(self):
        with pytest.raises(WireError, match="frame.type"):
            decode_message(self.frame(type=[1]))

    def test_non_utf8_frame_is_a_wire_error(self):
        with pytest.raises(WireError, match="UTF-8"):
            decode_message(b"\xff\xfe")

    def test_deeply_nested_frame_is_a_wire_error(self):
        with pytest.raises(WireError, match="nested too deeply"):
            decode_message(b"[" * 100000 + b"]" * 100000)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_weight_is_a_wire_error(self, token):
        data = self.frame(weight=0.0).replace(b'"weight": 0.0', b'"weight": ' + token.encode())
        with pytest.raises(WireError, match="weight: expected a finite number"):
            decode_message(data)

    def test_decision_keys_must_be_canonical_decimals(self):
        frame = message_to_frame(StatusDetermination(sender=0, hop_limit=4))
        for key in ("+7", " 7", "07", "1_0", "٣"):
            frame["decisions"] = {key: True}
            with pytest.raises(WireError, match="decisions"):
                frame_to_message(frame)
