import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fcguard.crypto import primes
from fcguard.crypto.primes import (
    invert,
    is_probable_prime,
    powmod,
    powmod_fixed,
    random_prime,
    random_prime_in_range,
    safe_prime,
    sophie_germain_prime,
)
from fcguard.errors import PrimeGenerationError

KNOWN_PRIMES = [2, 3, 5, 11, 101, 7919, 2**61 - 1]
KNOWN_COMPOSITES = [1, 4, 561, 8911, 2**61 - 3, 7919 * 7927]


def test_known_primes():
    for p in KNOWN_PRIMES:
        assert is_probable_prime(p)
    for c in KNOWN_COMPOSITES:
        assert not is_probable_prime(c)


def test_random_prime_bit_length_and_determinism():
    a = random_prime(96, random.Random(5))
    b = random_prime(96, random.Random(5))
    assert a == b
    assert a.bit_length() == 96
    assert is_probable_prime(a)


def test_random_prime_in_range():
    lo, hi = 10**6, 2 * 10**6
    p = random_prime_in_range(lo, hi, random.Random(9))
    assert lo <= p < hi
    assert is_probable_prime(p)


def test_sophie_germain_both_prime():
    p = sophie_germain_prime(64, random.Random(3))
    assert p.bit_length() == 64
    assert is_probable_prime(p)
    assert is_probable_prime(2 * p + 1)


def test_sophie_germain_small_path():
    p = sophie_germain_prime(6, random.Random(3))
    assert p.bit_length() == 6
    assert is_probable_prime(p) and is_probable_prime(2 * p + 1)


def test_safe_prime_structure():
    big_p, q = safe_prime(128, random.Random(11))
    assert big_p == 2 * q + 1
    assert big_p.bit_length() == 128
    assert is_probable_prime(big_p) and is_probable_prime(q)


def test_prime_generation_budget_error():
    with pytest.raises(PrimeGenerationError):
        random_prime(64, random.Random(1), max_tries=1)


def test_powmod_negative_exponent():
    assert powmod(4, -3, 253) == invert(pow(4, 3, 253), 253)
    assert powmod(4, -3, 253) * pow(4, 3, 253) % 253 == 1


def test_sophie_germain_budget_error():
    with pytest.raises(PrimeGenerationError):
        sophie_germain_prime(64, random.Random(1), max_windows=0)


MODULI = st.integers(min_value=1, max_value=1 << 200)
EXPONENTS = st.one_of(st.integers(min_value=-1, max_value=1),
                      st.integers(min_value=-(1 << 700), max_value=1 << 700),
                      # dense random digits up to the 4096-bit table cap
                      st.binary(min_size=1, max_size=512).map(lambda b: int.from_bytes(b, "big")))


@given(base=st.one_of(st.sampled_from([0, 1]), st.integers(min_value=0, max_value=1 << 210)),
       shift=st.sampled_from([0, 1, 3]), exp=EXPONENTS, mod=MODULI)
def test_powmod_fixed_equals_pow(base, shift, exp, mod):
    base += shift * mod  # a nonzero shift makes the base at least the modulus
    try:
        expected = pow(base, exp, mod)
    except ValueError:  # negative exponent of a base not invertible mod `mod`
        with pytest.raises(ValueError):
            powmod_fixed(base, exp, mod)
        return
    assert powmod_fixed(base, exp, mod) == expected


def test_powmod_fixed_past_the_cap_leaves_tables_alone():
    if primes.gmpy2 is not None:
        pytest.skip("the gmpy2 backend keeps no tables")
    mod, base = 2**127 - 1, 3
    powmod_fixed(base, 1 << 600, mod)
    table_len = len(primes._FIXED_TABLES[(base, mod)])
    huge = (1 << (primes._FIXED_EXP_CAP + 1)) + 5
    assert powmod_fixed(base, huge, mod) == pow(base, huge, mod)
    assert powmod_fixed(7, huge, mod) == pow(7, huge, mod)
    assert len(primes._FIXED_TABLES[(base, mod)]) == table_len
    assert (7, mod) not in primes._FIXED_TABLES


def test_fixed_base_tables_stay_within_the_lru_bound():
    if primes.gmpy2 is not None:
        pytest.skip("the gmpy2 backend keeps no tables")
    mod = 2**89 - 1
    for base in range(2, 2 + primes._FIXED_TABLES_MAX + 6):
        assert powmod_fixed(base, 12345, mod) == pow(base, 12345, mod)
    assert len(primes._FIXED_TABLES) == primes._FIXED_TABLES_MAX
    assert (2, mod) not in primes._FIXED_TABLES and (base, mod) in primes._FIXED_TABLES


def test_trial_division_keeps_primality_answers():
    # n runs from below to above the trial-division bound of 2000
    for n in range(-3, 2100):
        expected = n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))
        assert is_probable_prime(n) == expected, n
    assert not is_probable_prime(1999 * 1997)
    assert is_probable_prime(2**89 - 1)

