import dataclasses
import hashlib
import random

import pytest

from fcguard import keycache
from fcguard.crypto import cl, sigma
from fcguard.crypto.cl import (
    ClIssuerKeyPair,
    cl_keygen,
    cl_sign,
    cl_verify,
    recompute_q,
    sign_with_proof,
    signature_exponent_prime,
    verify_signature_proof,
)
from fcguard.crypto.commitment import hashed_square
from fcguard.crypto.primes import is_probable_prime
from fcguard.errors import EncodingRangeError, ParameterError
from fcguard.params import PAPER, TOY
from fcguard.serialize import dumps


def schoolbook_pow(base, exponent, modulus):
    """Independent oracle: plain repeated multiplication."""
    result = 1
    for _ in range(exponent):
        result = result * base % modulus
    return result


def egcd_inverse(a, n):
    """Independent oracle: extended Euclid inverse."""
    t, new_t, r, new_r = 0, 1, n, a % n
    while new_r:
        q = r // new_r
        t, new_t = new_t, t - q * new_t
        r, new_r = new_r, r - q * new_r
    assert r == 1
    return t % n


def test_forced_toy_primes_z_value():
    # p'=5, q'=11 -> p=11, q=23, n=253; S = 169 hashed from n, x_Z=7 -> Z = 169^7 mod 253 = 104
    keys = ClIssuerKeyPair.from_secrets(5, 11, 7, [9, 13, 21])
    assert keys.public.n == 253
    assert keys.public.s == hashed_square(253, "issuer-s") == 169
    assert keys.public.z == schoolbook_pow(169, 7, 253) == 104


def test_keygen_invariants_toy():
    keys = cl_keygen(3, TOY, random.Random(21))
    pk = keys.public
    for value in (keys.p, keys.q, keys.p_prime, keys.q_prime):
        assert is_probable_prime(value)
    assert keys.p == 2 * keys.p_prime + 1
    assert keys.q == 2 * keys.q_prime + 1
    assert pk.n == keys.p * keys.q
    assert pow(pk.s, keys.x_z, pk.n) == pk.z
    for x, r in zip(keys.x_r, pk.r_bases):
        assert pow(pk.s, x, pk.n) == r
    order = keys.group_order
    assert all(2 <= x <= order - 1 for x in (keys.x_z, *keys.x_r))
    # S is a quadratic residue: S^order = 1 in the group
    assert pow(pk.s, order, pk.n) == 1


def test_keygen_deterministic_under_seed():
    a = cl_keygen(3, TOY, random.Random(7))
    b = cl_keygen(3, TOY, random.Random(7))
    assert a == b


def test_keygen_rejects_bad_count():
    with pytest.raises(ParameterError):
        cl_keygen(0, TOY, random.Random(1))


def test_sign_verify_round_trip_and_tamper():
    rng = random.Random(31)
    keys = cl_keygen(4, TOY, rng)
    attrs = [5, 10, 15, 20]
    sig = cl_sign(keys, attrs, TOY, rng)
    assert cl_verify(keys.public, attrs, sig)
    assert not cl_verify(keys.public, [5, 10, 15, 21], sig)


def test_toy_instance_verification_equation_term_by_term():
    # oracle: recompute A^e and Z * (S^v * prod R_i^(m_i))^-1 independently
    rng = random.Random(41)
    keys = ClIssuerKeyPair.from_secrets(5, 11, 7, [9, 13, 21])
    attrs = [2, 3, 4]
    sig = cl_sign(keys, attrs, TOY, rng)
    n = keys.public.n
    lhs = pow(sig.a, sig.e, n)
    denom = pow(keys.public.s, sig.v, n)
    for base, m in zip(keys.public.r_bases, attrs):
        denom = denom * pow(base, m, n) % n
    rhs = keys.public.z * egcd_inverse(denom, n) % n
    assert lhs == rhs
    assert cl_verify(keys.public, attrs, sig)


def test_signature_soundness_mutation_sweep():
    # 100 random vectors; every single-field mutation (a, e, v, each m_i) fails
    rng = random.Random(51)
    keys = cl_keygen(4, TOY, rng)
    for _ in range(100):
        attrs = [rng.getrandbits(64) for _ in range(4)]
        sig = cl_sign(keys, attrs, TOY, rng)
        assert cl_verify(keys.public, attrs, sig)
        assert not cl_verify(keys.public, attrs, dataclasses.replace(sig, a=sig.a + 1))
        assert not cl_verify(keys.public, attrs, dataclasses.replace(sig, e=sig.e + 2))
        assert not cl_verify(keys.public, attrs, dataclasses.replace(sig, v=sig.v + 1))
        for idx in range(4):
            mutated = list(attrs)
            mutated[idx] += 1
            assert not cl_verify(keys.public, mutated, sig)


def test_attribute_range_enforced():
    rng = random.Random(61)
    keys = cl_keygen(2, TOY, rng)
    with pytest.raises(EncodingRangeError):
        cl_sign(keys, [1 << 260], TOY, rng)
    with pytest.raises(ParameterError):
        cl_sign(keys, [1, 2, 3], TOY, rng)


def test_hidden_commitment_slot():
    rng = random.Random(71)
    keys = cl_keygen(3, TOY, rng)
    pk = keys.public
    secret, blind = 9999, 12345
    commitment = pow(pk.s, blind, pk.n) * pow(pk.r_bases[0], secret, pk.n) % pk.n
    sig = cl_sign(keys, [7, 8], TOY, rng, hidden_commitment=commitment)
    # issuer-side check against the blinded slot
    assert cl_verify(pk, [7, 8], sig, hidden_commitment=commitment)
    # holder completes v and verifies over the plain slots
    full = dataclasses.replace(sig, v=sig.v + blind)
    assert cl_verify(pk, [secret, 7, 8], full)
    assert not cl_verify(pk, [secret + 1, 7, 8], full)


def test_signature_proof_round_trip():
    rng = random.Random(81)
    keys = cl_keygen(3, TOY, rng)
    attrs = [1, 2, 3]
    sig, proof = sign_with_proof(keys, attrs, TOY, rng, nonce=b"n-1")
    q_value = recompute_q(keys.public, attrs, sig.v)
    assert verify_signature_proof(keys.public, sig.a, q_value, proof, b"n-1", TOY)
    assert not verify_signature_proof(keys.public, sig.a, q_value, proof, b"n-2", TOY)
    bad = dataclasses.replace(proof, s_e=proof.s_e + 1)
    assert not verify_signature_proof(keys.public, sig.a, q_value, bad, b"n-1", TOY)
    assert signature_exponent_prime(sig, TOY)


def test_verify_false_on_malformed_input():
    rng = random.Random(91)
    keys = cl_keygen(2, TOY, rng)
    sig = cl_sign(keys, [1, 2], TOY, rng)
    assert not cl_verify(keys.public, [1, 2, 3], sig)  # too many attributes
    assert not cl_verify(keys.public, ["x", 2], sig)
    assert not cl_verify(keys.public, [1, 2], dataclasses.replace(sig, a=0))
    assert not cl_verify(keys.public, [1, 2], dataclasses.replace(sig, e="junk"))


@pytest.mark.parametrize("hidden", [None, 424242])
def test_crt_signing_matches_plain_exponentiation(hidden):
    rng = random.Random(101)
    keys = cl_keygen(4, TOY, rng)
    pk, order = keys.public, keys.group_order
    attrs = [11, 22, 33]
    commitment = None if hidden is None else pow(pk.s, hidden, pk.n)
    for _ in range(20):
        sig = cl_sign(keys, attrs, TOY, rng, hidden_commitment=commitment)
        q_value = recompute_q(pk, attrs, sig.v, commitment)
        assert sig.a == pow(q_value, pow(sig.e, -1, order), pk.n)

        state = rng.getstate()
        sig, proof = sign_with_proof(keys, attrs, TOY, rng, nonce=b"crt",
                                     hidden_commitment=commitment)
        replay = random.Random()
        replay.setstate(state)
        assert cl_sign(keys, attrs, TOY, replay, hidden_commitment=commitment) == sig
        r = replay.randrange(2, order)
        q_value = recompute_q(pk, attrs, sig.v, commitment)
        a_tilde = pow(q_value, r, pk.n)
        c = sigma.challenge("cl-signature-proof", b"crt", (pk.n, q_value, sig.a, a_tilde), TOY.challenge_bits)
        assert (proof.challenge, proof.s_e) == (c, (r - c * pow(sig.e, -1, order)) % order)


def _public_digest(keys):
    return hashlib.sha256(dumps(keys.public)).hexdigest()


# SHA-256 of the serialized public keys: n, Z and the R_i, each a power of the
# S hashed from n, which is not serialized.
TOY_KEY_DIGESTS = {
    (1, "platform"): "e34bd4c52d937282caabebe9f6226366d900cdeb529c57e8a4613d1e2888d4d9",
    (1, "bank"): "3ff813bf4c31c6a4ca70152375edbcf33120ee1751f9e465539fa715a4fddf75",
    (42, "platform"): "c00e19c72eba2e73d5c3546f97d76934cb2abd31fa232c99ffeb60fbb109f477",
    (42, "bank"): "b68327377336bbd9875ef85acb51d466c232977aa3a97aec5d0e7ff6e446a60e",
}
PAPER_SEED_42_KEY_DIGESTS = {
    "platform": "9fc8e7bb98f6aacc16000c72db3b01f3b1396fc009fbcc6614f74c7568dbb98d",
    "bank": "b3129682f06f9e39891742c5fbf247c1aad7a9a1c81d79a19240d861bdfbb556",
}


def test_toy_keys_are_pinned():
    for (seed, label), digest in TOY_KEY_DIGESTS.items():
        assert _public_digest(keycache.issuer_keys(TOY, seed, label, 4, None)) == digest, (seed, label)
    forced = ClIssuerKeyPair.from_secrets(5, 11, 7, [9, 13, 21])
    assert _public_digest(forced) == "6df956fbe32aaf9732b63d1ffb33077afd1d3b3b136c22c34a8acc80d222f671"


def test_seed_42_paper_keys_load_pinned(paper_key_cache):
    # the criterion-01 cache: made once per session, loaded here through from_secrets
    keycache.fill_missing(PAPER, 42, [(label, 4) for label in PAPER_SEED_42_KEY_DIGESTS], paper_key_cache)
    for label, digest in PAPER_SEED_42_KEY_DIGESTS.items():
        keys = keycache.issuer_keys(PAPER, 42, label, 4, paper_key_cache)
        assert _public_digest(keys) == digest, label


def test_issuance_computes_q_once_per_side(monkeypatch):
    rng = random.Random(111)
    keys = cl_keygen(4, TOY, rng)
    pk = keys.public
    attrs, blind, secret = [5, 6, 7], 4242, 99
    commitment = pow(pk.s, blind, pk.n) * pow(pk.r_bases[0], secret, pk.n) % pk.n
    # Q's product is built once per side: the issuer's mod p and q inside the
    # signing, the holder's in the batch that also gives A^e
    built, holder_q = [], []
    real_terms, real_q = cl._q_terms, cl.recompute_q
    monkeypatch.setattr(cl, "_q_terms", lambda *args: built.append(args) or real_terms(*args))
    monkeypatch.setattr(cl, "recompute_q", lambda *args: holder_q.append(args) or real_q(*args))
    sig, proof = sign_with_proof(keys, attrs, TOY, rng, nonce=b"q", hidden_commitment=commitment)
    assert len(built) == 1
    assert holder_q == []  # the issuer's Q is made mod p and q, once, inside the signing
    full = dataclasses.replace(sig, v=sig.v + blind)
    q_value = cl.signature_q(pk, [secret, *attrs], full)
    assert len(built) == 2
    cl.check_issued_signature(pk, [secret, *attrs], full, proof, b"q", TOY)
    assert len(built) == 3 and holder_q == []
    assert q_value == real_q(pk, [secret, *attrs], full.v)
    assert verify_signature_proof(pk, full.a, q_value, proof, b"q", TOY)
