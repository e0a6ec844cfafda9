"""Paillier encryption with g = N + 1. Decryption is exact for any plaintext
below N, which is why large bank account numbers go through this scheme
rather than exponential ElGamal. The key holder keeps p and q and decrypts
mod p^2 and mod q^2 (Chinese remainder theorem).

`paillier_encrypt` is textbook, c = (1+N)^m * r^N (mod N^2). The verifiable
encryption arm in `presentations` uses the fixed-base form of Damgard,
Jurik and Nielsen instead, c = (1+N)^m * h_s^rho (mod N^2), with one public
N-th residue h_s per key (`paillier_hs`), so the randomness term is a
fixed-base power, and with a short rho of |N|/2 + stat_bits bits, which
their assumption for short randomness covers (Damgard, Jurik and Nielsen,
IJIS 2010). h_s^rho is an N-th residue too, so `paillier_decrypt` opens both
forms unchanged."""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache

from ..errors import DecryptionError, EncodingRangeError
from ..params import Profile
from ..serialize import conforms, dumps, serializable
from .ciphertext import Ciphertext
from .primes import Crt, crt_pair, invert, multi_powmod_many, powmod, random_prime


@serializable("paillier-pk")
@dataclass(frozen=True)
class PaillierPublicKey:
    n: int
    g: int  # always n + 1

    @property
    def n_squared(self) -> int:
        return self.n * self.n

    def key_id(self) -> str:
        return self._key_id

    @cached_property
    def _key_id(self) -> str:
        return hashlib.sha256(dumps(self)).hexdigest()[:16]


@dataclass(frozen=True)
class PaillierKeyPair:
    public: PaillierPublicKey
    lam: int  # lcm(p-1, q-1)
    mu: int  # L(g^lam mod n^2)^-1 mod n
    p: int
    q: int

    @classmethod
    def from_primes(cls, p: int, q: int) -> "PaillierKeyPair":
        n = p * q
        lam = math.lcm(p - 1, q - 1)
        # g^lam = (1 + n)^lam = 1 + lam*n (mod n^2), so L(g^lam) = lam mod n
        mu = invert(lam % n, n)
        return cls(public=PaillierPublicKey(n=n, g=n + 1), lam=lam, mu=mu, p=p, q=q)

    @property
    def crt(self) -> Crt:
        """n^2's factors for `multi_powmod_crt`: p^2 and q^2 with lambda(p^2) = p(p-1)."""
        return (self.p * self.p, self.p * (self.p - 1)), (self.q * self.q, self.q * (self.q - 1))

    def pow_lam(self, c: int) -> int:
        """c^lam mod n^2, assembled from c^lam mod p^2 and mod q^2; the
        powers c^(p-1) mod p^2 and c^(q-1) mod q^2 are one `multi_powmod_many`."""
        p, q = self.p, self.q
        x_p, x_q = multi_powmod_many(((((c, p - 1, False),), p * p), (((c, q - 1, False),), q * q)))
        return crt_pair(_lam_power(c, x_p, self.lam, p), p * p, _lam_power(c, x_q, self.lam, q), q * q)


def _lam_power(c: int, x: int, lam: int, p: int) -> int:
    """c^lam mod p^2 from x = c^(p-1) mod p^2, for a prime p with
    (p-1) | lam. For c coprime to p, x = 1 + p*t (mod p^2), and
    (1 + p*t)^k = 1 + k*p*t (mod p^2); for c divisible by p, c^lam = 0
    (mod p^2) because lam >= 2."""
    if c % p == 0:
        return 0
    return 1 + p * ((x - 1) // p * (lam // (p - 1)) % p)


def _ell(u: int, n: int) -> int:
    return (u - 1) // n


def paillier_keygen(profile: Profile, rng: random.Random) -> PaillierKeyPair:
    half = profile.paillier_modulus_bits // 2
    p = random_prime(half, rng)
    q = random_prime(half, rng)
    while q == p:
        q = random_prime(half, rng)
    return PaillierKeyPair.from_primes(p, q)


@lru_cache(maxsize=64)
def paillier_hs(n: int) -> int:
    """The public N-th residue h_s = h^N mod N^2 of the fixed-base encryption
    form, with h = -x^2 mod N for x hashed from N (SHAKE-256, |N| + 128 bits,
    reduced mod N). It depends on N alone, so the public key's fields, wire
    bytes and key id stay as they are; it is computed once per modulus per
    process."""
    bits = n.bit_length() + 128
    n_bytes = n.to_bytes((n.bit_length() + 7) // 8, "big")
    digest = hashlib.shake_256(b"fcguard:paillier-hs:" + n_bytes).digest((bits + 7) // 8)
    x = (int.from_bytes(digest, "big") >> (-bits % 8)) % n
    return powmod(-x * x % n, n, n * n)


def paillier_encrypt(pk: PaillierPublicKey, m: int, rng: random.Random | None = None, r: int | None = None) -> Ciphertext:
    if not 0 <= m < pk.n:
        raise EncodingRangeError("plaintext must lie in [0, n)")
    if r is None:
        if rng is None:
            raise ValueError("either rng or explicit randomness r is required")
        while True:
            r = rng.randrange(1, pk.n)
            if math.gcd(r, pk.n) == 1:
                break
    n2 = pk.n_squared
    # g = n + 1 gives g^m = 1 + m*n (mod n^2)
    c = (1 + m * pk.n) % n2 * powmod(r, pk.n, n2) % n2
    return Ciphertext(scheme="paillier", parts=(c,))


def paillier_decrypt(keypair: PaillierKeyPair, ct: Ciphertext) -> int:
    if not conforms(ct, Ciphertext) or ct.scheme != "paillier" or len(ct.parts) != 1:
        raise DecryptionError("not a Paillier ciphertext")
    n = keypair.public.n
    c = ct.parts[0]
    if not 0 <= c < n * n:
        raise DecryptionError("ciphertext out of range")
    if math.gcd(c, n) != 1:
        raise DecryptionError("ciphertext shares a factor with n")
    return _ell(keypair.pow_lam(c), n) * keypair.mu % n
