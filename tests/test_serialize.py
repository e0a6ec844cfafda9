from importlib import resources

import pytest

from fcguard.errors import FcGuardError
from fcguard.scenario import load_scenario, run_scenario
from fcguard.security import build_fixture
from fcguard.serialize import canonical_int_hex, decode_int, dumps, encode_int, loads


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
