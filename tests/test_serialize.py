import dataclasses
import json
import typing
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcguard.credentials import BANK_ATTRIBUTES, PLATFORM_ATTRIBUTES, CredentialRequest, Schema
from fcguard.crypto.ciphertext import Ciphertext
from fcguard.crypto.commitment import OpeningProof
from fcguard.errors import FcGuardError, WireError
from fcguard.scenario import load_scenario, run_scenario
from fcguard.security import build_fixture
from fcguard.serialize import _REGISTRY, canonical_int_hex, conforms, decode_int, dumps, encode_int, loads


def test_int_encoding_round_trip():
    for value in [0, 1, -1, 255, 256, -98765, 10**50, -(10**50), 123_456_789]:
        assert decode_int(encode_int(value)) == value


def test_int_encoding_is_length_prefixed_big_endian():
    assert encode_int(255) == b"\x00" + (1).to_bytes(4, "big") + b"\xff"
    assert encode_int(-255) == b"\x01" + (1).to_bytes(4, "big") + b"\xff"
    assert encode_int(0) == b"\x00" + (1).to_bytes(4, "big") + b"\x00"


def test_canonical_hex_matches_encoding():
    assert canonical_int_hex(123_456_789) == encode_int(123_456_789).hex()


def test_dumps_sorts_keys_and_is_stable():
    a = dumps({"b": 2, "a": 1})
    b = dumps({"a": 1, "b": 2})
    assert a == b
    assert dumps({"x": [1, "two", b"\x03", None, True]}) == dumps(
        {"x": [1, "two", b"\x03", None, True]})


def test_round_trip_nested():
    value = {"ints": [0, -5, 2**200], "s": "text", "b": b"\x00\xff", "flag": False,
             "none": None, "nested": {"k": [1, 2]}}
    assert loads(dumps(value)) == value


def test_non_string_keys_rejected():
    with pytest.raises(FcGuardError):
        dumps({1: "x"})


def test_floats_rejected():
    with pytest.raises(FcGuardError):
        dumps({"x": 1.5})


def test_distinct_values_distinct_bytes():
    assert dumps({"v": 1}) != dumps({"v": "1"})
    assert dumps([1, 2]) != dumps([2, 1])


@pytest.mark.parametrize("name", ["address_rotation", "misreport", "replay_attack"])
def test_every_tape_chunk_of_a_bundled_toy_scenario_round_trips(name):
    net = run_scenario(load_scenario(resources.files("fcguard") / "scenarios" / f"{name}.json")).ctx.net
    # every chunk is on one sent tape and one received tape
    chunks = [chunk for tape in net._sent.values() for chunk in tape.chunks]
    assert chunks
    for chunk in chunks:
        assert dumps(loads(chunk)) == chunk


def test_fixture_bundles_round_trip():
    # bundle 1 carries link, ElGamal and predicate arms; bundle 2 a disclosed
    # attribute, a link arm and a Paillier arm
    fx = build_fixture()
    for bundle in (fx.bundle1, fx.bundle2):
        assert loads(dumps(bundle)) == bundle


@pytest.mark.parametrize("value, tp, expected", [
    (5, int, True), (True, int, False), ("5", int, False), ("x", str, True), (b"x", str, False),
    (b"x", bytes, True), ("x", bytes, False), ((1, 2), tuple[int, ...], True), ([1, 2], tuple[int, ...], True),
    ((1, "x"), tuple[int, ...], False), ("ab", tuple[str, ...], False), ({"a": 1}, dict[str, int], True),
    ({1: 1}, dict[str, int], False), ({"a": True}, dict[str, int], False), ([("a", 1)], dict[str, int], False),
    (Ciphertext("elgamal", (1, 2)), Ciphertext, True), (Ciphertext("elgamal", [1, 2]), Ciphertext, True),
    (Ciphertext("elgamal", (True,)), Ciphertext, False), (Ciphertext(1, (1,)), Ciphertext, False),
    (None, Ciphertext, False),
])
def test_conforms_reads_the_annotations(value, tp, expected):
    assert conforms(value, tp) is expected


# its own field map flattens the proof into the request
_REQUEST = CredentialRequest(defn_id="defn", nonce=b"n", blinded=5, proof=OpeningProof(challenge=1, s_m=2, s_r=3))


def _envelope(obj=Ciphertext("elgamal", (3, 4)), **fields) -> bytes:
    """`obj`'s envelope with `fields` set in its field map, a None value
    dropping that field."""
    node = json.loads(dumps(obj))
    node["@fields"].update(fields)
    node["@fields"] = {k: v for k, v in node["@fields"].items() if v is not None}
    return json.dumps(node).encode()


@pytest.mark.parametrize("data", [
    b"{not json", "{\"x\": \"s\u00e9\"}".encode("utf-8"), b"1.5", b"\"q1\"", b"\"i0g\"",
    b'{"@type": "no-such-tag", "@fields": {}}', b'{"@type": ["ciphertext"], "@fields": {}}',
    _envelope(parts=None), _envelope(extra="s1"), _envelope(parts="sabc"), _envelope(parts=["s1"]),
    _envelope(scheme="B1"), _envelope(_REQUEST, extra="s1"), _envelope(_REQUEST, s_r=None),
], ids=["bad-json", "non-ascii", "float", "unknown-value-tag", "bad-hex", "unknown-tag", "list-tag",
        "dropped-field", "extra-field", "str-parts", "str-part", "bool-scheme", "request-extra-field",
        "request-dropped-field"])
def test_loads_refuses_a_malformed_envelope(data):
    with pytest.raises(WireError):
        loads(data)


# ints of either sign up to 4100 bits, str, bytes, bool and None, and nested
# lists and str-keyed dicts of them; a plain dict keyed "@type" would read
# back as a tagged object, and the program never sends one
_INTS = st.integers(min_value=-(1 << 4100), max_value=1 << 4100)
_KEYS = st.text(max_size=8).filter(lambda k: k != "@type")


def _nested(inner):
    return st.one_of(st.lists(inner, max_size=4), st.dictionaries(_KEYS, inner, max_size=4))


_VALUES = st.recursive(st.one_of(_INTS, st.text(max_size=8), st.binary(max_size=8), st.booleans(), st.none()),
                       _nested, max_leaves=12)


def _of_type(tp):
    """Values of the annotated type `tp`, as `conforms` reads it."""
    if tp is Schema:  # its constructor admits only the two role schemas
        return st.builds(lambda sid, role: Schema(sid, role, {"platform": PLATFORM_ATTRIBUTES,
                                                                "bank": BANK_ATTRIBUTES}[role]),
                         st.text(max_size=8), st.sampled_from(["platform", "bank"]))
    if tp is int:
        return _INTS
    if tp is str:
        return st.text(max_size=8)
    if tp is bytes:
        return st.binary(max_size=8)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple:
        return st.lists(_of_type(args[0]), max_size=4).map(tuple)
    if origin is dict:
        return st.dictionaries(_KEYS, _of_type(args[1]), max_size=4)
    hints = typing.get_type_hints(tp)
    return st.builds(tp, **{f.name: _of_type(hints[f.name]) for f in dataclasses.fields(tp)})


@settings(max_examples=40, deadline=None)
@given(_VALUES)
def test_every_plain_value_round_trips(value):
    assert loads(dumps(value)) == value


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_REGISTRY.values(), key=lambda cls: cls.type_tag)).flatmap(_of_type))
def test_every_wire_object_conforms_and_round_trips(obj):
    assert conforms(obj, type(obj))
    assert loads(dumps(obj)) == obj
    assert loads(dumps({"x": [obj, None]})) == {"x": [obj, None]}
