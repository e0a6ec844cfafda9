"""Exponential ElGamal over a safe-prime group.

The message rides in the exponent so that sigma protocols can relate a
ciphertext to a committed attribute. The secret key and the encryption
randomness are short exponents of `exponent_bits` bits, 224 = 2s for the
s = 112 bits of strength of a 2048-bit group (NIST SP 800-56A Rev. 3;
RFC 7919 section 5.2), not residues drawn from all of Z_q. Their hiding
rests on the short-exponent discrete log and DDH assumptions (van Oorschot
and Wiener, EUROCRYPT 1996; Koshiba and Kurosawa, PKC 2004).

Decryption recovers g^m and then solves a bounded discrete log over
[0, bound), the profile's plaintext bound (default 2^30, enough for 9-digit
SSNs), by baby-step/giant-step with the two sides swapped so that the
per-target work multiplies by the small generator (4 on toy groups, 2 on the
RFC 3526 group), never by a full-size residue:

- Stride table: {g^(i*step): i} for i in 0..ceil(bound/step), with step the
  power of two at or above sqrt(bound) (2^15 for 2^30). It depends only on
  (p, g, bound), not on the secret key, so it is built once per group and
  kept in a one-entry cache: the next group replaces it, and the paper group
  is built once per process rather than once per key pair.
- Walk: from cur = g^m, look cur up and multiply it by g, at most step
  times. A hit i after j steps gives m = i*step - j, returned if it lies in
  [0, bound). Every m in [0, bound) is i*step - j for some j < step, and
  when g's order exceeds bound + step, as in every profile's group, the
  table's entries are distinct and the m found is the only one in range.
"""

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
from .primes import powmod, powmod_fixed, safe_prime

# 2048-bit MODP group (RFC 3526, group 14). P is a safe prime and 2 generates
# the subgroup of quadratic residues of prime order Q = (P-1)/2; using the
# standardized group keeps benchmark-profile key generation cheap.
MODP_2048 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)

# 2s for s = 112, the strength of a 2048-bit group
SHORT_EXPONENT_BITS = 224


def exponent_bits(q: int, slack: int = 1) -> int:
    """Bits of a secret exponent in the order-q group: SHORT_EXPONENT_BITS,
    or |q| - slack if that is less, so by default an exponent lies below q.
    A proof passes its challenge_bits + stat_bits as `slack`, so that its
    integer response, the exponent's blinding plus c times it, is never
    longer than the residue mod q it replaces; on a toy group that cap is
    what keeps the response short."""
    return min(SHORT_EXPONENT_BITS, q.bit_length() - slack)


@serializable("elgamal-pk")
@dataclass(frozen=True)
class ElGamalPublicKey:
    p: int  # safe prime
    q: int  # subgroup order, p = 2q + 1
    g: int  # generator of the order-q subgroup
    h: int  # g^sk
    plain_bound: int

    def key_id(self) -> str:
        return self._key_id

    @cached_property
    def _key_id(self) -> str:
        return hashlib.sha256(dumps(self)).hexdigest()[:16]


@dataclass(frozen=True)
class ElGamalKeyPair:
    public: ElGamalPublicKey
    sk: int

    @classmethod
    def from_secrets(cls, p: int, q: int, g: int, sk: int, plain_bound: int = 1 << 30) -> "ElGamalKeyPair":
        pub = ElGamalPublicKey(p=p, q=q, g=g, h=powmod_fixed(g, sk, p), plain_bound=plain_bound)
        return cls(public=pub, sk=sk)


def elgamal_keygen(profile: Profile, rng: random.Random) -> ElGamalKeyPair:
    if profile.elgamal_modulus_bits == 2048:
        p, q, g = MODP_2048, (MODP_2048 - 1) // 2, 2
    else:
        p, q = safe_prime(profile.elgamal_modulus_bits, rng)
        g = 4  # square, hence a generator of the order-q subgroup
    sk = rng.randrange(2, 1 << exponent_bits(q))
    return ElGamalKeyPair.from_secrets(p, q, g, sk, profile.elgamal_plain_bound)


def elgamal_encrypt(pk: ElGamalPublicKey, m: int, rng: random.Random | None = None, r: int | None = None) -> Ciphertext:
    if not 0 <= m < pk.plain_bound:
        raise EncodingRangeError(f"plaintext out of ElGamal bound [0, {pk.plain_bound})")
    if r is None:
        if rng is None:
            raise ValueError("either rng or explicit randomness r is required")
        r = rng.randrange(1, 1 << exponent_bits(pk.q))
    c1 = powmod_fixed(pk.g, r, pk.p)
    c2 = powmod_fixed(pk.g, m, pk.p) * powmod_fixed(pk.h, r, pk.p) % pk.p
    return Ciphertext(scheme="elgamal", parts=(c1, c2))


def elgamal_decrypt(keypair: ElGamalKeyPair, ct: Ciphertext) -> int:
    if not conforms(ct, Ciphertext) or ct.scheme != "elgamal" or len(ct.parts) != 2:
        raise DecryptionError("not an ElGamal ciphertext")
    pk = keypair.public
    c1, c2 = ct.parts
    if not (0 < c1 < pk.p and 0 < c2 < pk.p):
        raise DecryptionError("ciphertext component out of range")
    target = c2 * powmod(c1, -keypair.sk, pk.p) % pk.p
    return _bounded_dlog(pk, target)


def _bounded_dlog(pk: ElGamalPublicKey, target: int) -> int:
    """The m in [0, plain_bound) with g^m = target (mod p): the walk over the
    group's stride table (module docstring)."""
    p, g, bound = pk.p, pk.g, pk.plain_bound
    step, table = _stride_table(p, g, bound)
    lookup, cur = table.get, target
    for j in range(step):
        i = lookup(cur)
        if i is not None and 0 <= i * step - j < bound:
            return i * step - j
        cur = cur * g % p
    raise DecryptionError("discrete log not found below the plaintext bound")


@lru_cache(maxsize=1)
def _stride_table(p: int, g: int, bound: int) -> tuple[int, dict[int, int]]:
    """(step, {g^(i*step) mod p: i for i in 0..ceil(bound/step)}) for one
    group; a 256-bit group's table holds about 4 MB, so only the last is kept."""
    step = 1 << max(1, math.isqrt(bound - 1).bit_length())
    stride = powmod(g, step, p)
    table, acc = {}, 1
    for i in range(-(-bound // step) + 1):
        table.setdefault(acc, i)
        acc = acc * stride % p
    return step, table
