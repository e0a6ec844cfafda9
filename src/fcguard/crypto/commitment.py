"""Integer commitments C = R^m * S^r in an RSA group of hidden order, whose
keys also serve the cross-presentation link arms, plus the generic two-base
proof of knowledge of an opening used by credential requests, one equation
on the `sigma` engine. `hashed_square` gives every base nobody chooses: the
issuer's S and each commitment key's R, neither of which can be aimed at a
subgroup, nor has a discrete log to the other that anybody learns."""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

from ..params import Profile
from ..serialize import conforms, encode_int, serializable
from .primes import Crt, multi_powmod
from .sigma import Eq, challenge, evaluate, well_formed


@serializable("commitment-key")
@dataclass(frozen=True)
class CommitmentKey:
    n: int
    r_base: int
    s_base: int

    @classmethod
    def derive(cls, n: int, s_base: int, label: str) -> "CommitmentKey":
        """The key whose R is hashed from (label, n), by `hashed_square`."""
        return cls(n=n, r_base=hashed_square(n, label), s_base=s_base)


def hashed_square(n: int, label: str) -> int:
    """x^2 mod n for x a hash of (label, n, counter) mod n at the first counter
    where x is a unit and x^2 is not 0 or 1: ValueError if 64 find none."""
    for counter in range(64):  # an honest n = pq fails a counter with probability about 1/p + 1/q
        digest = hashlib.sha256(label.encode() + encode_int(n) + encode_int(counter)).digest()
        x = int.from_bytes(digest + hashlib.sha256(digest).digest(), "big") % n
        square = x * x % n
        if square not in (0, 1) and math.gcd(x, n) == 1:
            return square
    raise ValueError(f"no hashed square for the modulus under {label!r}")


@serializable("integer-commitment")
@dataclass(frozen=True)
class IntegerCommitment:
    value: int


def randomizer_bits(key: CommitmentKey, profile: Profile) -> int:
    return key.n.bit_length() + profile.stat_bits


def commit(key: CommitmentKey, m: int, rng: random.Random | None = None, r: int | None = None,
           profile: Profile | None = None) -> tuple[IntegerCommitment, int]:
    """Commit to m; returns the commitment and the opening randomness."""
    if r is None:
        if rng is None:
            raise ValueError("either rng or explicit randomness r is required")
        bits = randomizer_bits(key, profile) if profile else key.n.bit_length() + 80
        r = rng.getrandbits(bits)
    value = multi_powmod(((key.r_base, m, True), (key.s_base, r, True)), key.n)
    return IntegerCommitment(value=value), r


def open_verify(key: CommitmentKey, commitment: IntegerCommitment, m: int, r: int) -> bool:
    if not (conforms(commitment, IntegerCommitment) and conforms(m, int) and conforms(r, int)):
        return False
    value = multi_powmod(((key.r_base, m, True), (key.s_base, r, True)), key.n)
    return value == commitment.value


@dataclass(frozen=True)
class OpeningProof:
    """Proof of knowledge of (m, r) with C = base1^m * base2^r (mod n)."""

    challenge: int
    s_m: int
    s_r: int


def opening_eq(n: int, base1: int, base2: int, value: int | None) -> Eq:
    """C = base1^m * base2^r (mod n), for C = `value`. The bases are
    public-key constants, so both sides use the fixed-base tables."""
    return Eq(n, ((base1, "m", True), (base2, "r", True)), lambda: ((value, 1, False),))


def _opening_blind_bits(n: int, profile: Profile) -> tuple[int, int]:
    """Bits of the blindings of m, an attribute, and of r, of |n| + stat_bits
    bits: each covers c times its witness with stat_bits of slack."""
    slack = profile.challenge_bits + profile.stat_bits
    return profile.attr_bits + slack, n.bit_length() + profile.stat_bits + slack


def prove_opening(n: int, base1: int, base2: int, m: int, r: int, label: str, nonce: bytes,
                  profile: Profile, rng: random.Random) -> tuple[int, OpeningProof]:
    """The commitment C = base1^m * base2^r and a proof of knowledge of its
    opening. C and the t-value are one batched evaluation, after the two
    blindings are drawn."""
    m_bits, r_bits = _opening_blind_bits(n, profile)
    m_t = rng.getrandbits(m_bits)
    r_t = rng.getrandbits(r_bits)
    eq = opening_eq(n, base1, base2, None)
    value, t_value = evaluate([(eq, {"m": m, "r": r}), (eq, {"m": m_t, "r": r_t})], 0, {})
    c = challenge(label, nonce, (n, base1, base2, value, t_value), profile.challenge_bits)
    return value, OpeningProof(challenge=c, s_m=m_t + c * m, s_r=r_t + c * r)


def verify_opening(n: int, base1: int, base2: int, value: int, proof: OpeningProof,
                   label: str, nonce: bytes, profile: Profile, crt: Crt | None = None) -> bool:
    """The proof's verdict, mod p and mod q when the verifier passes n's
    factors as `crt`. Each response must lie within two bits of its
    blinding, before any exponentiation. The caller has checked the proof
    and `value` with `serialize.conforms`."""
    c, factored = proof.challenge, {crt[0][0] * crt[1][0]: crt} if crt else {}
    m_bits, r_bits = _opening_blind_bits(n, profile)
    if not (well_formed(c, profile.challenge_bits) and 0 <= proof.s_m < 1 << (m_bits + 2)
            and 0 <= proof.s_r < 1 << (r_bits + 2)):
        return False
    try:
        (t_hat,) = evaluate([(opening_eq(n, base1, base2, value), {"m": proof.s_m, "r": proof.s_r})], c, factored)
    except (ValueError, ZeroDivisionError):
        return False
    return c == challenge(label, nonce, (n, base1, base2, value, t_hat), profile.challenge_bits)
