import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcguard.crypto import primes
from fcguard.crypto.primes import (
    invert,
    is_prime_2q_plus_1,
    is_probable_prime,
    multi_powmod,
    multi_powmod_crt,
    multi_powmod_many,
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


@pytest.mark.parametrize("bits", range(8, 15))
def test_sophie_germain_below_the_sieve_sizes(bits):
    # below 16384 the 20000 sieve strikes every candidate; these sizes draw singly
    for seed in range(5):
        p = sophie_germain_prime(bits, random.Random(seed))
        assert p.bit_length() == bits
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


# Prime pairs for the CRT form: tiny, Mersenne, and a pair of 256-bit primes,
# each taken as ((p, p-1), (q, q-1)) and as ((p^2, p(p-1)), (q^2, q(q-1))).
CRT_PRIME_PAIRS = [(2, 3), (11, 23), (2**61 - 1, 2**89 - 1), (2**127 - 1, 2**107 - 1),
                   (2**255 - 19, 2**256 - 2**224 + 2**192 + 2**96 - 1)]


def _crt_form(p, q, squared):
    if squared:
        return (p * p, p * (p - 1)), (q * q, q * (q - 1))
    return (p, p - 1), (q, q - 1)


@st.composite
def _products(draw):
    """(terms, crt): up to five terms over a factored modulus M, with bases 0,
    1, multiples of p, values at least M and arbitrary ones; exponents 0, +-1,
    up to 700 bits, at the 4096-bit table cap and past it, negative only for
    a unit base."""
    p, q = draw(st.sampled_from(CRT_PRIME_PAIRS))
    crt = _crt_form(p, q, draw(st.booleans()))
    mod = crt[0][0] * crt[1][0]
    cap = primes._FIXED_EXP_CAP
    terms = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        base = draw(st.one_of(st.sampled_from([0, 1]), st.integers(min_value=0, max_value=mod - 1),
                              st.integers(min_value=1, max_value=mod // p).map(lambda k: k * p)))
        base += draw(st.sampled_from([0, 0, 1, 3])) * mod
        exp = draw(st.one_of(st.sampled_from([0, 1, -1, (1 << cap) - 1, 1 << cap, (1 << (cap + 1)) + 5]),
                             st.integers(min_value=-(1 << 700), max_value=1 << 700),
                             st.integers(min_value=0, max_value=(1 << cap) - 1)))
        if exp < 0 and math.gcd(base, mod) != 1:
            exp = -exp
        terms.append((base, exp, draw(st.booleans())))
    return terms, crt


def _expected(terms, mod):
    return math.prod(pow(base, exp, mod) for base, exp, _ in terms) % mod


@settings(derandomize=True, deadline=None, max_examples=400)
@given(case=_products())
def test_multi_powmod_and_its_crt_form_equal_the_product_of_pow(case):
    terms, crt = case
    mod = crt[0][0] * crt[1][0]
    expected = _expected(terms, mod)
    assert multi_powmod(terms, mod) == expected
    assert multi_powmod_crt(terms, crt) == expected


@settings(derandomize=True, deadline=None, max_examples=150)
@given(case=_products())
def test_gmpy2_shape_equals_the_product_of_pow(case):
    terms, crt = case
    mod = crt[0][0] * crt[1][0]
    expected = _expected(terms, mod)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primes, "gmpy2", object())  # any value other than None selects the plain products
        mp.setattr(primes, "_multi_powmod", None)
        assert primes.multi_powmod(terms, mod) == expected
        assert multi_powmod_crt(terms, crt) == expected
        assert multi_powmod_many([(terms, mod), (terms, crt), (terms[:1], crt[0][0])]) == [
            expected, expected, _expected(terms[:1], crt[0][0])]
        base, exp, _ = terms[0]
        assert powmod_fixed(base, abs(exp), mod) == pow(base, abs(exp), mod)


def test_negative_exponent_of_a_non_unit_raises_on_both_forms():
    crt = _crt_form(11, 23, False)
    for fixed in (False, True):
        with pytest.raises(ValueError):
            multi_powmod([(11 * 5, -3, fixed)], 253)
        with pytest.raises(ValueError):
            multi_powmod_crt([(11 * 5, -3, fixed)], crt)


def test_crt_form_reduces_exponents_into_lambda_to_two_lambda(monkeypatch):
    seen = []
    real = primes._multi_powmod
    monkeypatch.setattr(primes, "_multi_powmod", lambda terms, mod: seen.append(terms) or real(terms, mod))
    p, q = 2**61 - 1, 2**89 - 1
    assert multi_powmod_crt([(3, 1 << 600, True), (p, 5, False), (7, 9, False)],
                            _crt_form(p, q, False)) == pow(3, 1 << 600, p * q) * p**5 * 7**9 % (p * q)
    (half_p, half_q) = seen
    assert half_p[0][1] == (1 << 600) % (p - 1) + (p - 1) and half_q[0][1] == (1 << 600) % (q - 1) + (q - 1)
    assert [t[1] for t in half_p[1:]] == [5, 9]  # exponents below lambda are kept


def test_fixed_terms_of_one_product_share_tables_and_count_no_powmod(monkeypatch):
    if primes.gmpy2 is not None:
        pytest.skip("the gmpy2 backend keeps no tables")
    calls = []
    monkeypatch.setattr(primes, "powmod", lambda b, e, m: calls.append(m) or pow(b, e, m))
    mod = 2**127 - 1
    terms = [(3, 12345, True), (5, 1 << 300, True), (7, 99, False)]
    assert multi_powmod(terms, mod) == _expected(terms, mod)
    assert calls == [mod]  # only the variable base goes through powmod
    assert (3, mod) in primes._FIXED_TABLES and (5, mod) in primes._FIXED_TABLES


def test_trial_division_keeps_primality_answers():
    # n runs from below to above the trial-division bound of 2000
    for n in range(-3, 2100):
        expected = n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))
        assert is_probable_prime(n) == expected, n
    assert not is_probable_prime(1999 * 1997)
    assert is_probable_prime(2**89 - 1)



# sophie_germain_prime(bits, random.Random(seed)) as the search gave it with
# a 20000 sieve, a Python striking loop and Miller-Rabin on both p' and 2p'+1.
# At 15 bits candidates below 20000 are sieving primes themselves and get
# struck; the outputs keep that.
PINNED_SOPHIE_GERMAIN = {
    (15, 0): 27743,
    (15, 1): 20789,
    (15, 2): 31469,
    (15, 3): 24203,
    (15, 4): 24203,
    (16, 0): 55439,
    (16, 1): 41603,
    (16, 2): 62753,
    (16, 3): 48413,
    (16, 4): 48239,
    (64, 0): 16329893639329941581,
    (64, 1): 10499958131665515281,
    (64, 2): 15921556852572072743,
    (64, 3): 10932295209482666639,
    (64, 4): 14818243535696668709,
    (64, 5): 13935500888991235973,
    (255, 0): 55896598275473892943926784801512502259748144244735511552773087393886749077773,
    (255, 1): 35775048739449105453572199363542659269634444530053933427649710993370729816289,
    (255, 2): 49851821871431435929252303214284312193337874476006906294436682457757612209683,
    (255, 3): 56393847163664836379872480653745113910907495325502864111408296481783001367221,
    (512, 0): int("1113112489955706874186205856159251807950404649565330070714542778946163303688"
                  "2920487399788808158681316368204285944213603344797542642903805191868520283327719"),
    (512, 1): int("9518937716437086579525574626553539436527811976271436757628327284357895625164"
                  "767602128960432609602000999443908630907494022120458687218329356867614190019691"),
    (512, 2): int("6825478561102315708449487498517860558299753619277819260544687242175553567234"
                  "633196793830344772436674845520982978628122906393672280820234464259370951666633"),
}


@pytest.mark.parametrize("bits,seed", sorted(PINNED_SOPHIE_GERMAIN))
def test_sophie_germain_outputs_are_pinned(bits, seed):
    assert sophie_germain_prime(bits, random.Random(seed)) == PINNED_SOPHIE_GERMAIN[bits, seed]


@pytest.mark.parametrize("bits", [64, 512])
def test_sieve_bound_leaves_the_prime_unchanged(monkeypatch, bits):
    # with the old bound of 20000 the search finds the same prime
    assert primes._sieve_bound(bits) != 20000
    monkeypatch.setattr(primes, "_sieve_bound", lambda bits: 20000)
    assert sophie_germain_prime(bits, random.Random(0)) == PINNED_SOPHIE_GERMAIN[bits, 0]


def test_sieve_bound_rule():
    assert primes._sieve_bound(15) == 20000
    assert primes._sieve_bound(64) == 1 << 10
    assert primes._sieve_bound(255) == 1 << 13
    assert primes._sieve_bound(512) == 1 << 20
    assert primes._sieve_bound(1536) == primes._sieve_bound(4096) == 1 << 23
    for bits in range(16, 4097):
        # every candidate is above the sieving primes, old and new
        assert 2 ** (bits - 1) > max(primes._sieve_bound(bits), 20000)
    table = primes._sieve_table(20000)
    assert list(table.small) == [p for p in range(3, 20000) if is_probable_prime(p)]
    assert not table.large


def test_sieve_window_strikes_exactly_where_a_sieving_prime_divides():
    table = primes._sieve_table(1 << 20)  # primes below, inside and past 4 windows
    assert table.small[-1] < 4 * primes._WINDOW < table.large[0]
    rng = random.Random(4)
    bases = [rng.getrandbits(512) | 1 << 511 | 1 for _ in range(3)]
    bases.append(table.large[-1] * (rng.getrandbits(480) | 1))  # k = 0 struck by a large prime
    for base in bases:
        expected = bytearray([1]) * primes._WINDOW
        for sp in list(table.small) + list(table.large):
            for r in (-base * pow(2, -1, sp) % sp, -(2 * base + 1) * pow(4, -1, sp) % sp):
                expected[r::sp] = bytes(len(range(r, primes._WINDOW, sp)))
        assert primes._sieve_window(base, table) == expected


def test_toy_searches_build_only_small_tables(monkeypatch):
    monkeypatch.setattr(primes, "_SIEVE_TABLES", {})
    sophie_germain_prime(64, random.Random(1))
    safe_prime(256, random.Random(1))
    assert set(primes._SIEVE_TABLES) == {1 << 10, 1 << 13}
    assert not any(table.large for table in primes._SIEVE_TABLES.values())


def test_pocklington_agrees_with_miller_rabin_below_20000():
    for q in range(2, 20000):
        if is_probable_prime(q):
            assert is_prime_2q_plus_1(q) == is_probable_prime(2 * q + 1), q


def _next_prime(n):
    n |= 1
    while not is_probable_prime(n):
        n += 2
    return n


@given(st.one_of(st.integers(min_value=3, max_value=1 << 300).map(_next_prime),
                 st.sampled_from(sorted(PINNED_SOPHIE_GERMAIN.values()))))
def test_pocklington_agrees_with_miller_rabin(q):
    assert is_prime_2q_plus_1(q) == is_probable_prime(2 * q + 1)


def _sieve_flags(limit):
    flags = bytearray([1]) * limit
    flags[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit, i)))
    return flags


def test_bpsw_agrees_with_a_sieve_below_100000():
    # trial division below 2000 answers all of these in is_probable_prime,
    # so the BPSW core is called directly
    prime = _sieve_flags(10**5)
    for n in range(5, 10**5, 2):
        assert primes._bpsw(n) == bool(prime[n]), n


def strong_pseudoprimes_below_100000():
    """The odd composites below 10^5 that pass the strong base-2 test, and
    those that pass the strong Lucas test."""
    prime = _sieve_flags(10**5)
    composites = [n for n in range(5, 10**5, 2) if not prime[n]]
    return ([n for n in composites if primes._strong_base2(n)],
            [n for n in composites if primes._strong_lucas(n)])


def test_bpsw_rejects_every_strong_pseudoprime_below_100000():
    base2, lucas = strong_pseudoprimes_below_100000()
    # OEIS A001262 and A217255 below 10^5
    assert len(base2) == 16 and base2[0] == 2047
    assert len(lucas) == 12 and lucas[0] == 5459
    assert not set(base2) & set(lucas)
    for n in base2 + lucas:
        assert not primes._bpsw(n), n


SQUARE_ROOTS = [3, 7, 1093, 3511, 7919, 2**61 - 1, 2**89 - 1, 1999 * 2003]


@pytest.mark.parametrize("root", SQUARE_ROOTS)
def test_bpsw_rejects_perfect_squares(root):
    # 1093^2 and 3511^2 are strong base-2 pseudoprimes; a square has no
    # Selfridge D, so the Lucas test must refuse it before searching
    assert not primes._strong_lucas(root * root)
    assert not primes._bpsw(root * root)
    assert not is_probable_prime(root * root)
    if root in (1093, 3511):
        assert primes._strong_base2(root * root)


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


# psi_9 = 149491 * 747451 * 34233211, psi_12 and psi_13: the least composites
# passing strong tests to every prime base up to 23 (in fact 31), 37 and 41
# (Jaeschke 1993; Jiang-Deng 2014; Sorenson-Webster 2017)
FIXED_BASE_PSEUDOPRIMES = [
    (3825123056546413051, 23),
    (318665857834031151167461, 37),
    (3317044064679887385961981, 41),
]


@pytest.mark.parametrize("n,top_base", FIXED_BASE_PSEUDOPRIMES)
def test_bpsw_rejects_fixed_base_pseudoprimes(n, top_base):
    bases = [a for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41) if a <= top_base]
    assert all(_strong_probable_prime(n, a) for a in bases)
    assert math.gcd(n, primes._TRIAL_PRODUCT) == 1  # is_probable_prime reaches BPSW
    assert not primes._bpsw(n)
    assert not is_probable_prime(n)


def test_bpsw_accepts_primes_of_every_search_size():
    for bits in (64, 255, 417, 593, 1024):
        p = random_prime(bits, random.Random(bits))
        assert primes._strong_base2(p) and primes._strong_lucas(p)
    for value in PINNED_SOPHIE_GERMAIN.values():
        assert primes._bpsw(value) and primes._bpsw(2 * value + 1)
