import dataclasses
import random

import pytest

from fcguard.crypto import elgamal
from fcguard.crypto.ciphertext import Ciphertext
from fcguard.crypto.elgamal import (
    GROUPS,
    MODP_2048,
    SHORT_EXPONENT_BITS,
    TOY_256,
    ElGamalKeyPair,
    elgamal_decrypt,
    elgamal_encrypt,
    elgamal_keygen,
    exponent_bits,
)
from fcguard.crypto.primes import is_probable_prime, sophie_germain_prime
from fcguard.errors import DecryptionError, EncodingRangeError, ParameterError
from fcguard.params import PAPER, TOY


def test_toy_worked_example():
    # P=23, Q=11, g=4, sk=3 -> pk h=18; m=2, r=5 -> (12, 2); decrypt -> 2
    kp = ElGamalKeyPair.from_secrets(p=23, q=11, g=4, sk=3, plain_bound=16)
    assert kp.public.h == 18
    ct = elgamal_encrypt(kp.public, 2, r=5)
    assert ct.parts == (12, 2)
    # schoolbook decryption: recover g^m, then scan the exponent range
    shared = pow(ct.parts[0], 3, 23)
    g_m = ct.parts[1] * pow(shared, -1, 23) % 23
    assert g_m == 16
    assert next(m for m in range(16) if pow(4, m, 23) == g_m) == 2
    assert elgamal_decrypt(kp, ct) == 2


def test_zero_plaintext():
    kp = ElGamalKeyPair.from_secrets(p=23, q=11, g=4, sk=3, plain_bound=16)
    for r in (1, 2, 7):
        assert elgamal_decrypt(kp, elgamal_encrypt(kp.public, 0, r=r)) == 0


def test_probabilistic_encryption():
    rng = random.Random(5)
    kp = elgamal_keygen(TOY, rng)
    cts = {elgamal_encrypt(kp.public, 42, rng=rng).parts for _ in range(100)}
    assert len(cts) == 100


def test_round_trip_100_random_plaintexts():
    rng = random.Random(6)
    kp = elgamal_keygen(TOY, rng)
    for _ in range(100):
        m = rng.randrange(0, kp.public.plain_bound)
        assert elgamal_decrypt(kp, elgamal_encrypt(kp.public, m, rng=rng)) == m


def test_plaintext_bound_enforced():
    rng = random.Random(7)
    kp = elgamal_keygen(TOY, rng)
    with pytest.raises(EncodingRangeError):
        elgamal_encrypt(kp.public, kp.public.plain_bound, rng=rng)
    with pytest.raises(EncodingRangeError):
        elgamal_encrypt(kp.public, -1, rng=rng)


def test_out_of_bound_plaintext_fails_dlog():
    # a ciphertext of g^m with m beyond the bound must not decrypt silently;
    # g=4 has order 11 here, so 4^9 matches no exponent below 4
    kp = ElGamalKeyPair.from_secrets(p=23, q=11, g=4, sk=3, plain_bound=4)
    from fcguard.crypto.ciphertext import Ciphertext

    c1 = pow(4, 5, 23)
    c2 = pow(4, 9, 23) * pow(18, 5, 23) % 23
    ct = Ciphertext(scheme="elgamal", parts=(c1, c2))
    with pytest.raises(DecryptionError):
        elgamal_decrypt(kp, ct)


def test_keygen_toy_group_structure():
    rng = random.Random(8)
    kp = elgamal_keygen(TOY, rng)
    pk = kp.public
    assert pk.p == 2 * pk.q + 1
    assert pk.p.bit_length() == TOY.elgamal_modulus_bits
    assert is_probable_prime(pk.p) and is_probable_prime(pk.q)
    assert pow(pk.g, pk.q, pk.p) == 1  # generator of the order-q subgroup
    assert pk.h == pow(pk.g, kp.sk, pk.p)


def test_paper_profile_uses_2048_bit_group():
    rng = random.Random(9)
    kp = elgamal_keygen(PAPER, rng)
    assert kp.public.p == MODP_2048
    assert kp.public.p.bit_length() == 2048
    assert pow(kp.public.g, kp.public.q, kp.public.p) == 1
    assert kp.public.h == pow(kp.public.g, kp.sk, kp.public.p)
    # bounded decryption still works at full size
    ct = elgamal_encrypt(kp.public, 123_456_789, rng=rng)
    assert elgamal_decrypt(kp, ct) == 123_456_789


@pytest.mark.parametrize("profile", [TOY, PAPER], ids=["toy", "paper"])
def test_secret_key_and_randomness_are_short_exponents(profile):
    # 224 bits at both profiles; a proof's randomness is capped by its
    # challenge and statistical slack, which bites only on the toy group
    rng = random.Random(f"short:{profile.name}")
    kp = elgamal_keygen(profile, rng)
    pk = kp.public
    assert SHORT_EXPONENT_BITS == 224 == exponent_bits(pk.q)
    assert 2 <= kp.sk < 1 << 224 and pk.h == pow(pk.g, kp.sk, pk.p)
    assert exponent_bits(pk.q, profile.challenge_bits + profile.stat_bits) == \
        {"toy": 255 - 80 - 80, "paper": 224}[profile.name]
    state = rng.getstate()
    ct = elgamal_encrypt(pk, 123_456_789, rng=rng)
    rng.setstate(state)
    r = rng.randrange(1, 1 << 224)
    assert ct.parts[0] == pow(pk.g, r, pk.p)
    assert elgamal_decrypt(kp, ct) == 123_456_789


def test_wrong_scheme_rejected():
    rng = random.Random(10)
    kp = elgamal_keygen(TOY, rng)
    from fcguard.crypto.ciphertext import Ciphertext

    with pytest.raises(DecryptionError):
        elgamal_decrypt(kp, Ciphertext(scheme="paillier", parts=(1,)))
    with pytest.raises(DecryptionError):
        elgamal_decrypt(kp, Ciphertext(scheme="elgamal", parts=("x", 2)))
    # components outside (0, p), which have no inverse or are not reduced
    p = kp.public.p
    for parts in ((0, 2), (2, 0), (p, 2), (2, p), (-1, 2)):
        with pytest.raises(DecryptionError):
            elgamal_decrypt(kp, Ciphertext(scheme="elgamal", parts=parts))


@pytest.mark.parametrize("profile", [TOY, PAPER], ids=["toy", "paper"])
def test_dlog_decrypts_at_the_stride_edges(profile):
    kp = elgamal_keygen(profile, random.Random(11))
    bound = kp.public.plain_bound
    step, _ = elgamal._stride_table(kp.public.p, kp.public.g, bound)
    assert step == 1 << 15 and bound == 1 << 30
    rng = random.Random(12)
    for m in (0, 1, step - 1, step, step + 1, bound - 1):
        assert elgamal_decrypt(kp, elgamal_encrypt(kp.public, m, rng=rng)) == m


@pytest.mark.parametrize("profile", [TOY, PAPER], ids=["toy", "paper"])
def test_dlog_refuses_the_bound_and_targets_outside_the_subgroup(profile):
    # c1 = 1 makes the target c2 itself: g^bound, then p - 1, a non-residue
    # (p = 3 mod 4), which no power of g reaches
    kp = elgamal_keygen(profile, random.Random(13))
    pk = kp.public
    for target in (pow(pk.g, pk.plain_bound, pk.p), pk.p - 1):
        with pytest.raises(DecryptionError):
            elgamal_decrypt(kp, Ciphertext(scheme="elgamal", parts=(1, target)))


def test_stride_table_is_built_once_per_group_and_only_the_last_is_kept():
    elgamal._stride_table.cache_clear()
    first = elgamal_keygen(TOY, random.Random(14))
    pk = first.public
    second = ElGamalKeyPair.from_secrets(pk.p, pk.q, pk.g, first.sk + 1, pk.plain_bound)
    rng = random.Random(15)
    for kp in (first, second, first):
        assert elgamal_decrypt(kp, elgamal_encrypt(kp.public, 123_456_789, rng=rng)) == 123_456_789
    info = elgamal._stride_table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    other = ElGamalKeyPair.from_secrets(p=23, q=11, g=4, sk=3, plain_bound=8)
    assert other.public.p != pk.p
    assert elgamal_decrypt(other, elgamal_encrypt(other.public, 7, rng=rng)) == 7
    info = elgamal._stride_table.cache_info()
    assert (info.misses, info.currsize) == (2, 1)


def test_the_toy_group_is_pinned():
    # P = 2Q + 1 with Q from a seeded Sophie Germain search, and 4 of order Q
    p, g = GROUPS[TOY.elgamal_modulus_bits]
    q = (p - 1) // 2
    assert (p, g) == (TOY_256, 4) and p.bit_length() == 256
    assert is_probable_prime(p) and is_probable_prime(q)
    assert g != 1 and pow(g, q, p) == 1
    assert sophie_germain_prime(255, random.Random("fcguard:toy-elgamal-group")) == q


@pytest.mark.parametrize("profile", [TOY, PAPER], ids=["toy", "paper"])
def test_keygen_gives_the_profile_group_for_every_seed(profile):
    p, g = GROUPS[profile.elgamal_modulus_bits]
    for seed in range(20):
        pk = elgamal_keygen(profile, random.Random(seed)).public
        assert (pk.p, pk.q, pk.g, pk.plain_bound) == (p, (p - 1) // 2, g, profile.elgamal_plain_bound)


def test_a_size_with_no_group_is_refused():
    with pytest.raises(ParameterError):
        elgamal_keygen(dataclasses.replace(TOY, elgamal_modulus_bits=512), random.Random(1))
