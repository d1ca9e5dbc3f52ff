"""The one JSON codec behind every untrusted boundary.

Values are checked against the declared Python types of the dataclass they
decode into, so each boundary states its format once, as field types, and
every malformed input ends in a :class:`DecodeError` naming the offending
path.  Each boundary re-raises it as its own named error:

* scenario specs, topology events and ``repro.scenario-result/v1``
  envelopes: :class:`~repro.spec.scenario.SpecError`;
* ``repro.protocol-msg/v1`` wire frames:
  :class:`~repro.distributed.serialize.WireError`;
* ``repro.sweep-entry/v1`` store objects:
  :class:`~repro.sweep.store.StoreError`;
* HTTP request bodies: a 400.

Field types understood: ``int``, ``float`` (finite), :data:`Number` (any
JSON number, non-finite included), ``str``, ``bool``, ``object`` (any
value), ``Optional[X]``, ``Tuple[X, ...]``, ``Tuple[X, Y]``, ``List[X]``,
``Dict``/``Mapping`` with ``str`` keys or ``int`` keys (which travel as
decimal strings), classes with a ``from_dict(value, path)`` classmethod,
and the bases registered by :func:`tagged_union`.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping as MappingABC
from dataclasses import MISSING, fields
from functools import lru_cache
from typing import (
    Callable,
    Dict,
    Mapping,
    NamedTuple,
    NewType,
    Optional,
    Sequence,
    Tuple,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)


class DecodeError(ValueError):
    """Untrusted JSON does not match the declared type at a named path."""


#: Field type of a JSON number kept as written, NaN and infinities included
#: (``json.dumps`` writes them, so a decoder of its output must accept them).
Number = NewType("Number", float)

#: ``dataclasses.field`` metadata of a field that never crosses a boundary.
NOT_SERIALIZED = {"serialized": False}


def loads(data: Union[str, bytes], path: str):
    """Parse one JSON document, raising :class:`DecodeError` named ``path``.

    Bytes must be UTF-8.  Input nested beyond the parser's recursion limit,
    and integers beyond the interpreter's digit limit, fail here too.
    """
    try:
        if isinstance(data, (bytes, bytearray)):
            data = data.decode("utf-8")
        return json.loads(data)
    except UnicodeDecodeError as err:
        raise DecodeError(
            f"{path}: not UTF-8 text ({err.reason} at byte {err.start})"
        ) from None
    except RecursionError:
        raise DecodeError(f"{path}: JSON nested too deeply") from None
    except ValueError as err:  # JSONDecodeError, or an over-long integer
        raise DecodeError(f"{path}: invalid JSON ({err})") from None


# ----------------------------------------------------------------------
# Scalars
# ----------------------------------------------------------------------
def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DecodeError(f"{path}: expected an integer, got {value!r}")
    return value


def _as_number(value, path: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DecodeError(f"{path}: expected a number, got {value!r}")
    return value


def _as_float(value, path: str) -> float:
    try:
        number = float(_as_number(value, path))
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise DecodeError(f"{path}: expected a finite number, got {value!r}")
    return number


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise DecodeError(f"{path}: expected a string, got {value!r}")
    return value


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise DecodeError(f"{path}: expected true or false, got {value!r}")
    return value


def _as_any(value, path: str):
    return value


def _as_list(value, path: str) -> Sequence:
    if not isinstance(value, (list, tuple)):
        raise DecodeError(f"{path}: expected a list, got {value!r}")
    return value


def _as_mapping(value, path: str) -> Mapping:
    if not isinstance(value, MappingABC):
        raise DecodeError(f"{path}: expected a JSON object, got {type(value).__name__}")
    return value


def _str_keys(keys) -> Optional[list]:
    return list(keys) if all(isinstance(key, str) for key in keys) else None


def _int_keys(keys) -> Optional[list]:
    """The integers that ``keys`` spell in canonical decimal, else ``None``."""
    try:
        numbers = list(map(int, keys))
    except (TypeError, ValueError):
        return None
    return numbers if list(map(str, numbers)) == list(keys) else None


_SCALAR_DECODERS = {
    int: _as_int,
    float: _as_float,
    Number: _as_number,
    str: _as_str,
    bool: _as_bool,
    object: _as_any,
}

#: Object key type -> (decoder of a key collection, ``None`` if any key
#: fails; what a key must be).
_KEYS = {str: (_str_keys, "a string"), int: (_int_keys, "a decimal integer")}

#: Bases registered by :func:`tagged_union`, with their decoders.
_UNIONS: Dict[type, Callable[[object, str], object]] = {}


@lru_cache(maxsize=None)
def decoder(hint) -> Callable[[object, str], object]:
    """Compile a declared field type into a ``(value, path) -> value`` check."""
    if hint in _SCALAR_DECODERS:
        return _SCALAR_DECODERS[hint]
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:  # Optional[X]
        inner = decoder(next(arg for arg in args if arg is not type(None)))
        return lambda value, path: None if value is None else inner(value, path)
    if origin in (tuple, list) and (origin is list or args[-1] is Ellipsis):
        item = decoder(args[0])

        def sequence(value, path):
            value = _as_list(value, path)
            return origin(item(entry, f"{path}[{i}]") for i, entry in enumerate(value))

        return sequence
    if origin is tuple:  # Tuple[X, Y]
        items = tuple(decoder(arg) for arg in args)

        def fixed(value, path):
            value = _as_list(value, path)
            if len(value) != len(items):
                raise DecodeError(
                    f"{path}: expected a list of {len(items)} items, got {value!r}"
                )
            return tuple(
                item(entry, f"{path}[{i}]")
                for i, (item, entry) in enumerate(zip(items, value))
            )

        return fixed
    if origin in (dict, MappingABC):  # Dict[str, X], Mapping[int, X]
        (keys_of, expected), item = _KEYS[args[0]], decoder(args[1])

        def mapping(value, path):
            value = _as_mapping(value, path)
            keys = keys_of(value)
            if keys is None:
                bad = next(key for key in value if keys_of([key]) is None)
                raise DecodeError(f"{path}: key {bad!r} is not {expected}")
            return {
                key: item(entry, f"{path}[{name!r}]")
                for key, (name, entry) in zip(keys, value.items())
            }

        return mapping
    if hint in _UNIONS:
        union = _UNIONS[hint]
        return lambda value, path: value if isinstance(value, hint) else union(value, path)
    if isinstance(hint, type) and callable(getattr(hint, "from_dict", None)):
        return lambda value, path: (
            value if isinstance(value, hint) else hint.from_dict(value, path)
        )
    raise TypeError(f"no codec for field type {hint!r}")  # pragma: no cover


# ----------------------------------------------------------------------
# Dataclasses
# ----------------------------------------------------------------------
class Field(NamedTuple):
    hint: object
    decode: Callable[[object, str], object]
    required: bool


@lru_cache(maxsize=None)
def schema(cls) -> Dict[str, Field]:
    """``cls``'s serialized fields in declaration order, resolved once."""
    hints = get_type_hints(cls)
    return {
        f.name: Field(
            hints[f.name],
            decoder(hints[f.name]),
            f.default is MISSING and f.default_factory is MISSING,
        )
        for f in fields(cls)
        if f.metadata.get("serialized", True)
    }


def check_fields(obj, path: str) -> None:
    """Check each serialized field value of dataclass ``obj`` against its type.

    Values built in Python thereby get the checks decoded JSON gets; the
    first mismatch raises :class:`DecodeError` naming ``path.field``.
    """
    for name, spec in schema(type(obj)).items():
        spec.decode(getattr(obj, name), f"{path}.{name}")


def _check_schema(data: Mapping, schema_id: str, path: str) -> None:
    # Checked before anything else, so input in a newer version of a
    # format is reported as such rather than as unknown fields.
    if data.get("schema") != schema_id:
        raise DecodeError(
            f"{path}: expected schema {schema_id!r}, got {data.get('schema')!r}"
        )


@lru_cache(maxsize=None)
def _permitted(cls, extra: Tuple[str, ...]) -> frozenset:
    return frozenset(schema(cls)).union(extra)


def decode_fields(
    cls,
    data,
    path: str,
    *,
    complete: bool = False,
    schema_id: Optional[str] = None,
    extra: Tuple[str, ...] = (),
) -> Dict[str, object]:
    """Decode a JSON object into ``cls``'s constructor keyword arguments.

    Unknown keys are rejected; a field may be omitted only when it has a
    default and ``complete`` is false.  ``extra`` names further keys that
    are allowed but not decoded.  A ``schema_id`` is required as the
    object's ``schema`` key.
    """
    data = _as_mapping(data, path)
    if schema_id is not None:
        _check_schema(data, schema_id, path)
        extra = ("schema", *extra)
    allowed = schema(cls)
    if not data.keys() <= _permitted(cls, extra):
        unknown = [key for key in data if key not in allowed and key not in extra]
        raise DecodeError(
            f"{path}: unknown field(s) {sorted(unknown, key=str)}; "
            f"allowed fields are {sorted(allowed)}"
        )
    kwargs: Dict[str, object] = {}
    for name, spec in allowed.items():
        if name in data:
            kwargs[name] = spec.decode(data[name], f"{path}.{name}")
        elif complete or spec.required:
            raise DecodeError(f"{path}.{name}: missing field")
    return kwargs


def tagged_union(
    base: type,
    variants: Mapping[str, type],
    kind: str,
    *,
    complete: bool = False,
    schema_id: Optional[str] = None,
) -> Callable[[object, str], object]:
    """The decoder of a family of dataclasses told apart by their ``type`` key.

    ``variants`` maps each tag to its class.  A decoded instance runs its
    own ``validate(path)`` when it has one; the ``ValueError`` it raises
    becomes a :class:`DecodeError`.  ``base`` becomes a field type the codec
    understands.  ``complete`` and ``schema_id`` are as for
    :func:`decode_fields`.
    """
    allowed = ("type",) if schema_id is None else ("type", "schema")

    def decode(value, path: str):
        value = _as_mapping(value, path)
        if schema_id is not None:
            _check_schema(value, schema_id, path)
        tag = value.get("type")
        cls = variants.get(tag) if isinstance(tag, str) else None
        if cls is None:
            raise DecodeError(
                f"{path}.type: unknown {kind} type {tag!r}; "
                f"choose one of {sorted(variants)}"
            )
        instance = cls(**decode_fields(cls, value, path, complete=complete, extra=allowed))
        validate = getattr(instance, "validate", None)
        if validate is not None:
            try:
                validate(path)
            except ValueError as err:
                raise DecodeError(str(err)) from None
        return instance

    _UNIONS[base] = decode
    return decode


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def encode(value):
    """JSON-ready form of a field value: tuples as lists, nodes via ``to_dict``."""
    if isinstance(value, tuple):
        return [encode(item) for item in value]
    to_dict = getattr(value, "to_dict", None)
    return value if to_dict is None else to_dict()


@lru_cache(maxsize=None)
def nested_fields(cls) -> Tuple[str, ...]:
    """The fields of ``cls`` whose declared type is not a plain scalar."""
    scalar = tuple(_SCALAR_DECODERS.values())
    return tuple(
        name for name, spec in schema(cls).items() if spec.decode not in scalar
    )
