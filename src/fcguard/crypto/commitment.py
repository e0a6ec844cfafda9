"""Integer commitments C = R^m * S^r in an RSA group of hidden order, whose
keys also serve the cross-presentation link arms, plus the generic two-base
proof of knowledge of an opening used by credential requests.
`prove_opening` makes the commitment and its t-value in one batched
evaluation, which two processes share at the paper profile."""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

from ..params import Profile
from ..serialize import encode_int, serializable
from .primes import Crt, multi_powmod, multi_powmod_crt, multi_powmod_many
from .transcript import Transcript


@serializable("commitment-key")
@dataclass(frozen=True)
class CommitmentKey:
    n: int
    r_base: int
    s_base: int

    @classmethod
    def derive(cls, n: int, s_base: int, label: str) -> "CommitmentKey":
        """Second base hashed from (label, n): a quadratic residue whose
        discrete log relative to s_base nobody learns from the derivation."""
        counter = 0
        while True:
            digest = hashlib.sha256(label.encode() + encode_int(n) + encode_int(counter)).digest()
            x = int.from_bytes(digest + hashlib.sha256(digest).digest(), "big") % n
            r_base = x * x % n
            if r_base not in (0, 1) and math.gcd(x, n) == 1:
                return cls(n=n, r_base=r_base, s_base=s_base)
            counter += 1


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
    if not isinstance(m, int) or not isinstance(r, int):
        return False
    value = multi_powmod(((key.r_base, m, True), (key.s_base, r, True)), key.n)
    return value == commitment.value


@dataclass(frozen=True)
class OpeningProof:
    """Proof of knowledge of (m, r) with C = base1^m * base2^r (mod n). The
    bases are public-key constants, so both sides use the fixed-base tables,
    and each t-value is one multi-exponentiation; the prover's shares one
    batched evaluation with C."""

    challenge: int
    s_m: int
    s_r: int


def prove_opening(n: int, base1: int, base2: int, m: int, r: int, label: str, nonce: bytes,
                  profile: Profile, rng: random.Random) -> tuple[int, OpeningProof]:
    """The commitment C = base1^m * base2^r and a proof of knowledge of its
    opening. C and the t-value are one batched evaluation, after the two
    blindings are drawn."""
    slack = profile.challenge_bits + profile.stat_bits
    m_t = rng.getrandbits(profile.attr_bits + slack)
    r_t = rng.getrandbits(n.bit_length() + profile.stat_bits + slack)
    value, t_value = multi_powmod_many([(((base1, m, True), (base2, r, True)), n),
                                        (((base1, m_t, True), (base2, r_t, True)), n)])
    c = _opening_challenge(label, nonce, n, base1, base2, value, t_value, profile)
    return value, OpeningProof(challenge=c, s_m=m_t + c * m, s_r=r_t + c * r)


def verify_opening(n: int, base1: int, base2: int, value: int, proof: OpeningProof,
                   label: str, nonce: bytes, profile: Profile, crt: Crt | None = None) -> bool:
    """Recomputes the t-value as C^-c * base1^s_m * base2^s_r, mod p and mod q
    when the verifier passes n's factors as `crt`."""
    terms = ((value, -proof.challenge, False), (base1, proof.s_m, True), (base2, proof.s_r, True))
    try:
        t_hat = multi_powmod_crt(terms, crt) if crt else multi_powmod(terms, n)
    except (ValueError, ZeroDivisionError):
        return False
    return proof.challenge == _opening_challenge(label, nonce, n, base1, base2, value, t_hat, profile)


def _opening_challenge(label: str, nonce: bytes, n: int, base1: int, base2: int,
                       value: int, t_value: int, profile: Profile) -> int:
    t = Transcript(label)
    t.absorb_bytes(nonce)
    for x in (n, base1, base2, value, t_value):
        t.absorb(x)
    return t.challenge(profile.challenge_bits)
