"""JSON wire codec for the distributed protocol's control messages.

Every message that crosses a real transport boundary is encoded as one
newline-delimited, canonical-JSON *frame*::

    {"schema": "repro.protocol-msg/v1", "type": "weight-broadcast",
     "sender": 3, "hop_limit": 5, "weight": 212.0}

Frames are versioned through the ``schema`` field so a future wire change
can coexist with old peers.  Decoding is derived from the message classes'
field types by the shared codec (:mod:`repro._codec`): it checks the
schema, the type tag and every field (all are required, unknown ones are
rejected, numbers must be finite, bytes must be UTF-8) and raises
:class:`WireError` with a message naming the offending part.

JSON objects only allow string keys, so the ``decisions`` map of a
:class:`~repro.distributed.messages.StatusDetermination` travels with its
vertex ids as decimal strings; :func:`frame_to_message` restores the
integer keys.
The codec round-trips every message type bit for bit (``decode(encode(m))
== m``), which the serialization tests assert per type.
"""

from __future__ import annotations

import json
from typing import Dict, Mapping, Type, Union

from repro._codec import DecodeError, loads, tagged_union
from repro.distributed.messages import (
    Accusation,
    LeaderDeclaration,
    Message,
    StatusDetermination,
    WeightBroadcast,
)

__all__ = [
    "WIRE_SCHEMA",
    "WireError",
    "message_to_frame",
    "frame_to_message",
    "encode_message",
    "decode_message",
]

#: Version tag embedded in (and required of) every frame on the wire.
WIRE_SCHEMA = "repro.protocol-msg/v1"

#: type tag <-> message class.  Tags are part of the wire format: renaming
#: one is a schema change and must bump :data:`WIRE_SCHEMA`.
_TAG_OF: Dict[Type[Message], str] = {
    WeightBroadcast: "weight-broadcast",
    LeaderDeclaration: "leader-declaration",
    StatusDetermination: "status-determination",
    # Added by the fault-mitigation mode (repro.faults).  New types are a
    # backward-compatible extension of the schema: old peers reject unknown
    # tags with a WireError, they do not misparse them.
    Accusation: "accusation",
}
_CLASS_OF: Dict[str, Type[Message]] = {tag: cls for cls, tag in _TAG_OF.items()}


class WireError(ValueError):
    """A frame cannot be encoded to or decoded from the wire format."""


def message_to_frame(message: Message) -> Dict[str, object]:
    """The JSON-ready frame of ``message`` (inverse of :func:`frame_to_message`)."""
    tag = _TAG_OF.get(type(message))
    if tag is None:
        raise WireError(
            f"cannot serialize {type(message).__name__}; wire types are "
            f"{sorted(_CLASS_OF)}"
        )
    frame: Dict[str, object] = {
        "schema": WIRE_SCHEMA,
        "type": tag,
        "sender": message.sender,
        "hop_limit": message.hop_limit,
    }
    if isinstance(message, WeightBroadcast):
        frame["weight"] = float(message.weight)
    elif isinstance(message, LeaderDeclaration):
        frame["weight"] = float(message.weight)
        frame["mini_round"] = message.mini_round
    elif isinstance(message, StatusDetermination):
        # JSON keys must be strings; ids are restored on decode.
        frame["decisions"] = {
            str(vertex): bool(flag) for vertex, flag in message.decisions.items()
        }
        frame["mini_round"] = message.mini_round
    elif isinstance(message, Accusation):
        frame["accused"] = message.accused
        frame["reason"] = str(message.reason)
        frame["mini_round"] = message.mini_round
    return frame


_decode_frame = tagged_union(
    Message, _CLASS_OF, "message", complete=True, schema_id=WIRE_SCHEMA
)


def frame_to_message(frame: Mapping) -> Message:
    """Rebuild the typed message a frame describes, validating as it goes."""
    try:
        return _decode_frame(frame, "frame")
    except DecodeError as err:
        raise WireError(str(err)) from None


def encode_message(message: Message) -> bytes:
    """One newline-terminated canonical-JSON frame, ready for a byte stream."""
    frame = message_to_frame(message)
    try:
        text = json.dumps(
            frame, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except ValueError as err:
        raise WireError(f"frame is not JSON-encodable: {err}") from None
    return text.encode("utf-8") + b"\n"


def decode_message(data: Union[bytes, str]) -> Message:
    """Decode one frame produced by :func:`encode_message`."""
    try:
        frame = loads(data, "frame")
    except DecodeError as err:
        raise WireError(str(err)) from None
    return frame_to_message(frame)
