"""Integer commitments C = R^m * S^r in an RSA group of hidden order, plus the
generic two-base proof of knowledge of an opening used by credential requests
and the cross-presentation link arms."""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

from ..params import Profile
from ..serialize import encode_int, serializable
from .primes import powmod, powmod_fixed
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
    value = powmod_fixed(key.r_base, m, key.n) * powmod_fixed(key.s_base, r, key.n) % key.n
    return IntegerCommitment(value=value), r


def open_verify(key: CommitmentKey, commitment: IntegerCommitment, m: int, r: int) -> bool:
    if not isinstance(m, int) or not isinstance(r, int):
        return False
    value = powmod_fixed(key.r_base, m, key.n) * powmod_fixed(key.s_base, r, key.n) % key.n
    return value == commitment.value


@dataclass(frozen=True)
class OpeningProof:
    """Proof of knowledge of (m, r) with C = base1^m * base2^r (mod n). The
    bases are public-key constants, so both sides use the fixed-base tables."""

    challenge: int
    s_m: int
    s_r: int


def prove_opening(n: int, base1: int, base2: int, value: int, m: int, r: int,
                  label: str, nonce: bytes, profile: Profile, rng: random.Random) -> OpeningProof:
    slack = profile.challenge_bits + profile.stat_bits
    m_t = rng.getrandbits(profile.attr_bits + slack)
    r_t = rng.getrandbits(n.bit_length() + profile.stat_bits + slack)
    t_value = powmod_fixed(base1, m_t, n) * powmod_fixed(base2, r_t, n) % n
    c = _opening_challenge(label, nonce, n, base1, base2, value, t_value, profile)
    return OpeningProof(challenge=c, s_m=m_t + c * m, s_r=r_t + c * r)


def verify_opening(n: int, base1: int, base2: int, value: int, proof: OpeningProof,
                   label: str, nonce: bytes, profile: Profile) -> bool:
    try:
        t_hat = (
            powmod(value, -proof.challenge, n)
            * powmod_fixed(base1, proof.s_m, n)
            * powmod_fixed(base2, proof.s_r, n)
            % n
        )
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
