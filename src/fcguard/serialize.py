"""Canonical serialization: length-prefixed big-endian integers inside a
sorted-key JSON envelope.

These bytes are what Fiat-Shamir transcripts absorb and what the message
tapes record, so the encoding must be byte-stable: same value, same bytes,
every run. Integers carry a sign byte and a 4-byte big-endian length prefix
before the magnitude; the taint scans search for exactly this encoding.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

from .errors import FcGuardError

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
        raise FcGuardError("truncated integer encoding")
    sign = -1 if data[0] == 1 else 1
    length = int.from_bytes(data[1:5], "big")
    if len(data) != 5 + length:
        raise FcGuardError("integer encoding length mismatch")
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
        if value == "n":
            return None
        tag, body = value[0], value[1:]
        if tag == "i":
            return decode_int(bytes.fromhex(body))
        if tag == "s":
            return body
        if tag == "b":
            return bytes.fromhex(body)
        if tag == "B":
            return body == "1"
        raise FcGuardError(f"unknown envelope value tag {tag!r}")
    if isinstance(value, list):
        return [_unpack(v) for v in value]
    if isinstance(value, dict):
        if _TYPE_KEY in value:
            tag = value[_TYPE_KEY]
            fields = _unpack(value[_FIELDS_KEY])
            cls = _REGISTRY.get(tag)
            if cls is None:
                raise FcGuardError(f"no class registered for envelope tag {tag!r}")
            return cls.from_fields(fields)
        return {k: _unpack(v) for k, v in value.items()}
    raise FcGuardError(f"unexpected envelope JSON node {type(value).__name__}")


def dumps(value: Any) -> bytes:
    """Canonical envelope bytes for any packable value."""
    return json.dumps(_pack(value), sort_keys=True, separators=(",", ":"), ensure_ascii=True).encode("ascii")


def loads(data: bytes) -> Any:
    return _unpack(json.loads(data.decode("ascii")))
