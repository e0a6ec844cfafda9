"""Primality testing, prime search, and modular arithmetic helpers.

gmpy2 backs the hot paths when available (roughly 7x faster at benchmark key
sizes); a pure Miller-Rabin fallback keeps the package importable without it.
All searches draw candidates from an injected seeded RNG, so key generation
is reproducible. `is_probable_prime` rejects any n sharing a factor with the
odd primes below 2000 by one gcd before Miller-Rabin runs.

`powmod_fixed` is for bases that are public-key constants (issuer S and R_i,
commitment bases, ElGamal g and h). Without gmpy2 it keeps, per (base,
modulus) value, a radix-2^5 Brickell-Gordon-McCurley-Wilson table of
base^(2^(5i)); an exponentiation then costs one multiplication per nonzero
digit plus 62, instead of one squaring per exponent bit. Tables are keyed by
value, because deserialized keys are fresh objects on every registry fetch;
they grow on demand to the longest exponent asked for and live in an LRU of
64 tables. An exponent longer than 4096 bits (past every honest exponent at
the paper profile, the longest being v_hat below 2^4080) goes to plain
`powmod` and neither creates nor grows a table, so a verifier fed an
oversized response cannot inflate memory. Negative exponents invert the
positive result. With gmpy2, `powmod_fixed` is `powmod`.

Holders of a factored modulus use the Chinese remainder theorem
(Quisquater-Couvreur) through `crt_pair`: the issuer's e-th root and proof
commitment in `crypto.cl`, and Paillier decryption mod p^2 and q^2. Every
value is the same as the plain computation.
"""

from __future__ import annotations

import math
import random
from collections import OrderedDict

from ..errors import PrimeGenerationError

_FIXED_WINDOW = 5
_FIXED_EXP_CAP = 4096
_FIXED_TABLES_MAX = 64
# (base, modulus) -> [base^(2^(_FIXED_WINDOW * i)) mod modulus for i = 0, 1, ...]
_FIXED_TABLES: OrderedDict[tuple[int, int], list[int]] = OrderedDict()


try:
    import gmpy2

    def powmod(base: int, exp: int, mod: int) -> int:
        return int(gmpy2.powmod(base, exp, mod))

    def _mr_is_prime(n: int, rounds: int) -> bool:
        return bool(gmpy2.is_prime(n, rounds))

    powmod_fixed = powmod

except ImportError:  # pragma: no cover - exercised only without gmpy2
    gmpy2 = None

    def powmod(base: int, exp: int, mod: int) -> int:
        return pow(base, exp, mod)

    def _mr_is_prime(n: int, rounds: int) -> bool:
        d, s = n - 1, 0
        while d % 2 == 0:
            d //= 2
            s += 1
        # fixed bases plus bases derived from n keep the fallback deterministic
        bases = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
        seed = n
        while len(bases) < rounds:
            seed = (seed * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            bases.append(2 + seed % (n - 3))
        for a in bases[:max(rounds, 12)]:
            a %= n
            if a < 2:
                continue
            x = pow(a, d, n)
            if x in (1, n - 1):
                continue
            for _ in range(s - 1):
                x = pow(x, 2, n)
                if x == n - 1:
                    break
            else:
                return False
        return True

    def powmod_fixed(base: int, exp: int, mod: int) -> int:
        """base^exp mod mod through a cached fixed-base table for base."""
        if exp < 0:
            return invert(powmod_fixed(base, -exp, mod), mod)
        if exp.bit_length() > _FIXED_EXP_CAP or mod < 2:
            return powmod(base, exp, mod)
        key = (base, mod)
        table = _FIXED_TABLES.get(key)
        if table is None:
            table = _FIXED_TABLES[key] = [base % mod]
            if len(_FIXED_TABLES) > _FIXED_TABLES_MAX:
                _FIXED_TABLES.popitem(last=False)
        else:
            _FIXED_TABLES.move_to_end(key)
        while len(table) * _FIXED_WINDOW < exp.bit_length():
            table.append(pow(table[-1], 1 << _FIXED_WINDOW, mod))
        # bucket[d] = product of the table entries whose exponent digit is d
        mask = (1 << _FIXED_WINDOW) - 1
        buckets = [1] * (mask + 1)
        i = 0
        while exp:
            d = exp & mask
            if d:
                buckets[d] = buckets[d] * table[i] % mod
            exp >>= _FIXED_WINDOW
            i += 1
        # prod bucket[d]^d as a product of running products, top digit down
        acc = run = 1
        for d in range(mask, 0, -1):
            if buckets[d] != 1:
                run = run * buckets[d] % mod
            if run != 1:
                acc = acc * run % mod
        return acc


def invert(a: int, mod: int) -> int:
    return pow(a, -1, mod)


def crt_pair(x_p: int, p: int, x_q: int, q: int) -> int:
    """The x in [0, p*q) with x = x_p (mod p) and x = x_q (mod q), for
    coprime p and q (Garner's form)."""
    return x_q + q * ((x_p - x_q) * invert(q, p) % p)


_SIEVE_BOUND = 20000
_SMALL_PRIMES: list[int] = []


def _small_primes() -> list[int]:
    if not _SMALL_PRIMES:
        sieve = bytearray([1]) * _SIEVE_BOUND
        sieve[0] = sieve[1] = 0
        for i in range(2, int(_SIEVE_BOUND**0.5) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
        _SMALL_PRIMES.extend(i for i in range(3, _SIEVE_BOUND) if sieve[i])
    return _SMALL_PRIMES


_TRIAL_PRIMES = frozenset(p for p in range(3, 2000, 2)
                          if all(p % d for d in range(3, math.isqrt(p) + 1, 2)))
_TRIAL_PRODUCT = math.prod(_TRIAL_PRIMES)


def is_probable_prime(n: int, rounds: int = 25) -> bool:
    if n < 2:
        return False
    if n in (2, 3):
        return True
    if n % 2 == 0:
        return False
    if math.gcd(n, _TRIAL_PRODUCT) != 1:
        return n in _TRIAL_PRIMES
    return _mr_is_prime(n, rounds)


def random_prime(bits: int, rng: random.Random, max_tries: int = 100000) -> int:
    """Random prime of exactly `bits` bits."""
    if bits < 2:
        raise PrimeGenerationError("prime size must be at least 2 bits")
    for _ in range(max_tries):
        cand = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(cand):
            return cand
    raise PrimeGenerationError(f"no {bits}-bit prime found in {max_tries} draws")


def random_prime_in_range(lo: int, hi: int, rng: random.Random, max_tries: int = 100000) -> int:
    """Random prime in [lo, hi)."""
    for _ in range(max_tries):
        cand = rng.randrange(lo, hi) | 1
        if cand >= hi:
            continue
        if is_probable_prime(cand):
            return cand
    raise PrimeGenerationError(f"no prime found in [{lo}, {hi}) after {max_tries} draws")


def sophie_germain_prime(bits: int, rng: random.Random, max_windows: int = 64) -> int:
    """Random prime p' of exactly `bits` bits with 2p'+1 also prime.

    Candidates come from sieved windows above a random start: each window
    strikes positions where either p' or 2p'+1 has a small factor before any
    Miller-Rabin test runs. Raises PrimeGenerationError if the window budget
    is exhausted, which signals a misconfigured profile or RNG.
    """
    if bits < 8:
        return _sophie_germain_small(bits, rng)
    window = 1 << 16
    for _ in range(max_windows):
        base = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        ok = bytearray([1]) * window
        for sp in _small_primes():
            inv2 = pow(2, -1, sp)
            # base + 2k == 0 (mod sp)
            r = (-base) * inv2 % sp
            while r < window:
                ok[r] = 0
                r += sp
            # 2(base + 2k) + 1 == 0 (mod sp)
            r = (-(2 * base + 1)) * pow(4, -1, sp) % sp
            while r < window:
                ok[r] = 0
                r += sp
        for k in range(window):
            if not ok[k]:
                continue
            cand = base + 2 * k
            if cand.bit_length() != bits:
                break
            if is_probable_prime(cand, 8) and is_probable_prime(2 * cand + 1, 8):
                if is_probable_prime(cand) and is_probable_prime(2 * cand + 1):
                    return cand
    raise PrimeGenerationError(f"no {bits}-bit Sophie Germain prime within {max_windows} windows")


def _sophie_germain_small(bits: int, rng: random.Random, max_tries: int = 200000) -> int:
    for _ in range(max_tries):
        cand = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(cand) and is_probable_prime(2 * cand + 1):
            return cand
    raise PrimeGenerationError(f"no {bits}-bit Sophie Germain prime in {max_tries} draws")


def safe_prime(bits: int, rng: random.Random) -> tuple[int, int]:
    """(P, Q) with P = 2Q + 1, both prime, P of exactly `bits` bits."""
    q = sophie_germain_prime(bits - 1, rng)
    return 2 * q + 1, q
