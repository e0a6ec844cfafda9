"""Canonical serialization: length-prefixed big-endian integers inside a
sorted-key JSON envelope.

These bytes are what Fiat-Shamir transcripts absorb and what the message
tapes record, so the encoding must be byte-stable: same value, same bytes,
every run. Integers carry a sign byte and a 4-byte big-endian length prefix
before the magnitude; the taint scans search for exactly this encoding.

The module also owns the one shape rule for wire objects, `conforms`, driven
by the dataclass annotations. `loads` applies it to every object it decodes,
and every verifier to the object it is handed, before reading a field.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import typing
from typing import Any, Callable

from .errors import FcGuardError, WireError

_TYPE_KEY = "@type"
_FIELDS_KEY = "@fields"

_REGISTRY: dict[str, type] = {}


def serializable(tag: str):
    """Class decorator registering `tag` for round-tripping via from_fields.
    A dataclass without its own to_fields/from_fields gets the field-by-field
    pair: every field under its own name, with lists read back as tuples (the
    sequence fields of every such class are tuples)."""

    def wrap(cls):
        cls.type_tag = tag
        if "to_fields" not in cls.__dict__:
            cls.to_fields = _dataclass_fields
            cls.from_fields = classmethod(_from_dataclass_fields)
        _REGISTRY[tag] = cls
        return cls

    return wrap


def _dataclass_fields(obj: Any) -> dict:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _from_dataclass_fields(cls: type, fields: dict) -> Any:
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in fields.items()})


def encode_int(value: int) -> bytes:
    """Sign byte, 4-byte big-endian length, big-endian magnitude."""
    sign = b"\x01" if value < 0 else b"\x00"
    mag = abs(value)
    raw = mag.to_bytes(max(1, (mag.bit_length() + 7) // 8), "big")
    return sign + len(raw).to_bytes(4, "big") + raw


def decode_int(data: bytes) -> int:
    if len(data) < 6:
        raise WireError("truncated integer encoding")
    sign = -1 if data[0] == 1 else 1
    length = int.from_bytes(data[1:5], "big")
    if len(data) != 5 + length:
        raise WireError("integer encoding length mismatch")
    return sign * int.from_bytes(data[5:], "big")


def canonical_int_hex(value: int) -> str:
    """Hex form of the canonical integer encoding, as it appears inside
    serialized messages; this is the needle used by taint scans."""
    return encode_int(value).hex()


def _pack(value: Any) -> Any:
    if isinstance(value, bool):
        return "B1" if value else "B0"
    if isinstance(value, int):
        return "i" + encode_int(value).hex()
    if isinstance(value, str):
        return "s" + value
    if isinstance(value, bytes):
        return "b" + value.hex()
    if value is None:
        return "n"
    if isinstance(value, (list, tuple)):
        return [_pack(v) for v in value]
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise FcGuardError(f"envelope dict keys must be strings, got {type(k).__name__}")
            out[k] = _pack(v)
        return out
    if hasattr(value, "to_fields") and hasattr(value, "type_tag"):
        return {_TYPE_KEY: value.type_tag, _FIELDS_KEY: _pack(value.to_fields())}
    raise FcGuardError(f"value of type {type(value).__name__} is not envelope-serializable")


def _unpack(value: Any) -> Any:
    if isinstance(value, str):
        tag, body = value[:1], value[1:]
        if value == "n":
            return None
        if tag == "i":
            return decode_int(_from_hex(body))
        if tag == "s":
            return body
        if tag == "b":
            return _from_hex(body)
        if value in ("B0", "B1"):
            return value == "B1"
        raise WireError(f"unknown envelope value tag {tag!r}")
    if isinstance(value, list):
        return [_unpack(v) for v in value]
    if isinstance(value, dict):
        if _TYPE_KEY in value:
            return _decode_object(value)
        return {k: _unpack(v) for k, v in value.items()}
    raise WireError(f"unexpected envelope JSON node {type(value).__name__}")


def _from_hex(body: str) -> bytes:
    try:
        return bytes.fromhex(body)
    except ValueError:
        raise WireError(f"invalid hex in envelope value {body[:16]!r}") from None


def _decode_object(node: dict) -> Any:
    """The object of a registered class that `node` encodes. Its fields must
    be exactly those the class's `to_fields` gives, and the object must
    conform to its class."""
    tag, raw = node.get(_TYPE_KEY), node.get(_FIELDS_KEY)
    cls = _REGISTRY.get(tag) if isinstance(tag, str) else None
    if cls is None or node.keys() != {_TYPE_KEY, _FIELDS_KEY} or not isinstance(raw, dict):
        raise WireError(f"not an object of a registered class: tag {tag!r}")
    fields = {k: _unpack(v) for k, v in raw.items()}
    try:
        obj = cls.from_fields(fields)
    except (KeyError, TypeError) as exc:  # a missing or extra field
        raise WireError(f"{tag} fields do not match the class: {exc}") from None
    if not conforms(obj, cls) or obj.to_fields().keys() != fields.keys():
        raise WireError(f"{tag} fields do not match the class")
    return obj


def dumps(value: Any) -> bytes:
    """Canonical envelope bytes for any packable value."""
    return json.dumps(_pack(value), sort_keys=True, separators=(",", ":"), ensure_ascii=True).encode("ascii")


def loads(data: bytes) -> Any:
    """The value `data` encodes. Raises WireError unless `data` is ASCII JSON
    in the envelope format and every object in it conforms to its class."""
    try:
        tree = json.loads(data.decode("ascii"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise WireError(f"not an ASCII JSON envelope: {exc}") from None
    return _unpack(tree)


def conforms(value: Any, tp: Any) -> bool:
    """True iff `value` has the shape of type `tp`: for `int` exactly an int,
    not a bool; for `str` and `bytes` one of those; for `tuple[T, ...]` a
    tuple or list of T; for `dict[str, T]` a dict of str to T; and for a
    dataclass an instance whose every field conforms to its annotation."""
    return _checker(tp)(value)


@functools.cache
def _checker(tp: Any) -> Callable[[Any], bool]:
    """The predicate `conforms` applies for `tp`, built once per type."""
    if tp is int:
        return lambda v: type(v) is int  # a bool is an int subclass, and refused
    if tp is str or tp is bytes:
        return lambda v: isinstance(v, tp)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        item = _checker(args[0])
        return lambda v: isinstance(v, (tuple, list)) and all(item(x) for x in v)
    if origin is dict and args[0] is str:
        item = _checker(args[1])
        return lambda v: isinstance(v, dict) and all(isinstance(k, str) and item(x) for k, x in v.items())
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        fields = [(f.name, _checker(hints[f.name])) for f in dataclasses.fields(tp)]
        return lambda v: isinstance(v, tp) and all(check(getattr(v, name)) for name, check in fields)
    raise TypeError(f"no shape rule for type {tp!r}")
