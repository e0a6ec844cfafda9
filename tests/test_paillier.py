import math
import random

import pytest

from fcguard.crypto.ciphertext import Ciphertext
from fcguard.crypto.paillier import (
    PaillierKeyPair,
    paillier_decrypt,
    paillier_encrypt,
    paillier_hs,
    paillier_keygen,
)
from fcguard.errors import DecryptionError, EncodingRangeError
from fcguard.params import PAPER, TOY
from fcguard.security import build_fixture


def test_toy_worked_example():
    # N=15, g=16; m=7, r=2 -> c = 16^7 * 2^15 mod 225 = 83
    kp = PaillierKeyPair.from_primes(3, 5)
    assert kp.public.n == 15 and kp.public.g == 16
    ct = paillier_encrypt(kp.public, 7, r=2)
    assert ct.parts == (83,)
    # schoolbook decryption: lambda = lcm(2, 4) = 4, L(83^4 mod 225) = 13,
    # then 13 * 4^-1 mod 15 = 7
    lam = math.lcm(2, 4)
    assert lam == 4 == kp.lam
    ell = (pow(83, lam, 225) - 1) // 15
    assert ell == 13
    mu = pow((pow(16, lam, 225) - 1) // 15, -1, 15)
    assert mu == 4 == kp.mu
    assert ell * mu % 15 == 7
    assert paillier_decrypt(kp, ct) == 7


def test_crt_decryption_matches_plain_exponentiation():
    rng = random.Random(18)
    kp = paillier_keygen(TOY, rng)
    n = kp.public.n
    n2 = n * n
    assert kp.p * kp.q == n
    assert kp.mu == pow((pow(n + 1, kp.lam, n2) - 1) // n, -1, n)
    # honest ciphertexts plus in-range values sharing a factor with n
    cts = [paillier_encrypt(kp.public, rng.randrange(n), rng=rng).parts[0] for _ in range(50)]
    cts += [0, 1, kp.p, kp.q * 5, n, n2 - 1]
    for c in cts:
        plain = (pow(c, kp.lam, n2) - 1) // n * kp.mu % n
        assert kp.pow_lam(c) == pow(c, kp.lam, n2)
        assert paillier_decrypt(kp, Ciphertext(scheme="paillier", parts=(c,))) == plain


def test_zero_plaintext():
    kp = PaillierKeyPair.from_primes(3, 5)
    assert paillier_decrypt(kp, paillier_encrypt(kp.public, 0, r=4)) == 0


def test_probabilistic_encryption():
    rng = random.Random(15)
    kp = paillier_keygen(TOY, rng)
    cts = {paillier_encrypt(kp.public, 7, rng=rng).parts for _ in range(100)}
    assert len(cts) == 100


def test_round_trip_100_random_plaintexts():
    rng = random.Random(16)
    kp = paillier_keygen(TOY, rng)
    for _ in range(100):
        m = rng.randrange(0, kp.public.n)
        assert paillier_decrypt(kp, paillier_encrypt(kp.public, m, rng=rng)) == m


def test_exact_decryption_of_large_account_numbers():
    rng = random.Random(17)
    kp = paillier_keygen(TOY, rng)
    account = 12_345_678_901_234_567  # 17 digits, beyond any dlog bound
    assert paillier_decrypt(kp, paillier_encrypt(kp.public, account, rng=rng)) == account


def test_plaintext_bound():
    rng = random.Random(18)
    kp = paillier_keygen(TOY, rng)
    with pytest.raises(EncodingRangeError):
        paillier_encrypt(kp.public, kp.public.n, rng=rng)
    with pytest.raises(EncodingRangeError):
        paillier_encrypt(kp.public, -3, rng=rng)


def test_modulus_sizes():
    rng = random.Random(19)
    assert paillier_keygen(TOY, rng).public.n.bit_length() in (TOY.paillier_modulus_bits - 1,
                                                               TOY.paillier_modulus_bits)
    kp = paillier_keygen(PAPER, rng)
    assert kp.public.n.bit_length() in (2047, 2048)
    assert paillier_decrypt(kp, paillier_encrypt(kp.public, 10**17, rng=rng)) == 10**17


def test_ciphertext_range_and_scheme_checks():
    rng = random.Random(20)
    kp = paillier_keygen(TOY, rng)
    from fcguard.crypto.ciphertext import Ciphertext

    with pytest.raises(DecryptionError):
        paillier_decrypt(kp, Ciphertext(scheme="paillier", parts=(kp.public.n_squared,)))
    with pytest.raises(DecryptionError):
        paillier_decrypt(kp, Ciphertext(scheme="elgamal", parts=(1, 2)))
    with pytest.raises(DecryptionError):
        paillier_decrypt(kp, Ciphertext(scheme="paillier", parts=("x",)))


def test_hs_is_a_deterministic_nth_residue_of_order_dividing_lambda():
    kp = paillier_keygen(TOY, random.Random(21))
    n = kp.public.n
    h_s = paillier_hs(n)
    assert h_s == paillier_hs.__wrapped__(n)  # the same value without the memo
    assert h_s != paillier_hs(paillier_keygen(TOY, random.Random(22)).public.n)
    assert 1 < h_s < n * n and math.gcd(h_s, n) == 1
    assert kp.pow_lam(h_s) == 1


def test_fixed_base_form_decrypts_unchanged():
    rng = random.Random(23)
    kp = paillier_keygen(TOY, rng)
    n, n2 = kp.public.n, kp.public.n_squared
    for _ in range(50):
        m = rng.randrange(n)
        rho = rng.getrandbits(n.bit_length() + TOY.stat_bits)
        c = (1 + m * n) * pow(paillier_hs(n), rho, n2) % n2
        assert paillier_decrypt(kp, Ciphertext(scheme="paillier", parts=(c,))) == m


def test_bundle_ciphertext_decrypts_to_the_account_number():
    fx = build_fixture()
    (arm,) = fx.bundle2.enc_proofs
    assert arm.ciphertext.scheme == "paillier"
    assert paillier_decrypt(fx.bank_enc, arm.ciphertext) == fx.vc_bu.attributes["bank_account"]
