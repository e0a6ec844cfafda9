import random

from fcguard.crypto.commitment import (
    CommitmentKey,
    IntegerCommitment,
    commit,
    open_verify,
    prove_opening,
    verify_opening,
)
from fcguard.params import TOY


def test_toy_bases_schoolbook_recomputation():
    # n=253 with explicit bases: C = R^m * S^r recomputed independently
    key = CommitmentKey(n=253, r_base=9, s_base=4)
    c, r = commit(key, 6, r=11)
    expected = 1
    for _ in range(6):
        expected = expected * 9 % 253
    for _ in range(11):
        expected = expected * 4 % 253
    assert c.value == expected
    assert open_verify(key, c, 6, 11)


def test_commit_open_round_trip_and_tampers():
    rng = random.Random(23)
    key = CommitmentKey.derive(253 * 257, 4, label="test")
    c, r = commit(key, 1234, rng=rng, profile=TOY)
    assert open_verify(key, c, 1234, r)
    assert not open_verify(key, c, 1235, r)
    assert not open_verify(key, c, 1234, r + 1)
    assert not open_verify(key, IntegerCommitment(value=c.value + 1), 1234, r)
    assert not open_verify(key, c, "1234", r)


def test_derived_bases_are_group_elements():
    key = CommitmentKey.derive(253, 4, label="x")
    assert 1 < key.r_base < 253
    assert key.s_base == 4
    # derivation is deterministic
    again = CommitmentKey.derive(253, 4, label="x")
    assert key == again
    assert CommitmentKey.derive(253, 4, label="y") != key


def test_opening_proof_round_trip():
    rng = random.Random(29)
    key = CommitmentKey.derive(253 * 263, 4, label="pok")
    c, r = commit(key, 777, rng=rng, profile=TOY)
    value, proof = prove_opening(key.n, key.r_base, key.s_base, 777, r,
                                 label="pok-test", nonce=b"n1", profile=TOY, rng=rng)
    assert value == c.value
    assert verify_opening(key.n, key.r_base, key.s_base, c.value, proof,
                          label="pok-test", nonce=b"n1", profile=TOY)
    assert not verify_opening(key.n, key.r_base, key.s_base, c.value, proof,
                              label="pok-test", nonce=b"n2", profile=TOY)
    assert not verify_opening(key.n, key.r_base, key.s_base, c.value + 1, proof,
                              label="pok-test", nonce=b"n1", profile=TOY)


def test_fresh_randomness_fresh_commitments():
    rng = random.Random(31)
    key = CommitmentKey.derive(253 * 269, 4, label="fresh")
    values = {commit(key, 42, rng=rng, profile=TOY)[0].value for _ in range(100)}
    assert len(values) == 100
