"""Issuer keys and signatures for the anonymous-credential scheme.

Keys live over an RSA modulus built from two safe primes; the public part is
(n, S, Z, R_1..R_l) with Z and every R_i a power of the quadratic residue S.
Signing computes A = (Z / (S^v * prod R_i^(m_i)))^(1/e mod p'q') for a random
prime exponent e and random blinding v, so verification is the single
equation A^e * S^v * prod R_i^(m_i) = Z (mod n). A blinded commitment can
occupy the reserved first slot during issuance, which is how the holder's
link secret gets signed without being revealed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from ..errors import EncodingRangeError, ParameterError
from ..params import Profile
from ..serialize import serializable
from .encoding import ATTRIBUTE_BOUND
from .primes import (crt_pair, invert, is_probable_prime, powmod, powmod_fixed, random_prime_in_range,
                     sophie_germain_prime)
from .transcript import Transcript


@serializable("cl-public-key")
@dataclass(frozen=True)
class ClPublicKey:
    n: int
    s: int
    z: int
    r_bases: tuple[int, ...]  # one base per attribute slot; slot 0 is the link-secret slot

    @property
    def slot_count(self) -> int:
        return len(self.r_bases)


@dataclass(frozen=True)
class ClIssuerKeyPair:
    public: ClPublicKey
    p: int
    q: int
    p_prime: int
    q_prime: int
    x_z: int
    x_r: tuple[int, ...]

    @property
    def group_order(self) -> int:
        """Order of the quadratic-residue subgroup S generates."""
        return self.p_prime * self.q_prime

    def powmod_crt(self, x: int, exp: int) -> int:
        """x^exp mod n for x coprime to n and exp >= 0, computed mod p and
        mod q with exponents reduced by Fermat."""
        return crt_pair(powmod(x % self.p, exp % (self.p - 1), self.p), self.p,
                        powmod(x % self.q, exp % (self.q - 1), self.q), self.q)

    @classmethod
    def from_secrets(cls, p_prime: int, q_prime: int, s: int, x_z: int,
                     x_r: Sequence[int]) -> "ClIssuerKeyPair":
        """Assemble a key pair from chosen secrets (used by tests with forced
        toy primes and by cl_keygen internally)."""
        p, q = 2 * p_prime + 1, 2 * q_prime + 1
        n = p * q
        z = powmod_fixed(s, x_z, n)
        r_bases = tuple(powmod_fixed(s, x, n) for x in x_r)
        return cls(
            public=ClPublicKey(n=n, s=s, z=z, r_bases=r_bases),
            p=p, q=q, p_prime=p_prime, q_prime=q_prime, x_z=x_z, x_r=tuple(x_r),
        )


@serializable("cl-signature")
@dataclass(frozen=True)
class ClSignature:
    a: int
    e: int
    v: int


@serializable("cl-signature-proof")
@dataclass(frozen=True)
class SignatureProof:
    """Issuer-side proof that A is a correctly formed e-th root (knowledge of
    1/e in the hidden-order group)."""

    challenge: int
    s_e: int


def cl_keygen(attribute_count: int, profile: Profile, rng: random.Random) -> ClIssuerKeyPair:
    if attribute_count < 1:
        raise ParameterError("attribute_count must be at least 1")
    p_prime = sophie_germain_prime(profile.sg_prime_bits, rng)
    q_prime = sophie_germain_prime(profile.sg_prime_bits, rng)
    while q_prime == p_prime:
        q_prime = sophie_germain_prime(profile.sg_prime_bits, rng)
    n = (2 * p_prime + 1) * (2 * q_prime + 1)
    while True:
        x = rng.randrange(2, n)
        if math.gcd(x, n) == 1:
            s = x * x % n
            if s != 1:
                break
    order = p_prime * q_prime
    x_z = rng.randrange(2, order)
    x_r = [rng.randrange(2, order) for _ in range(attribute_count)]
    return ClIssuerKeyPair.from_secrets(p_prime, q_prime, s, x_z, x_r)


def _attribute_term(public: ClPublicKey, attributes: Sequence[int], offset: int) -> int:
    acc = 1
    for i, m in enumerate(attributes):
        acc = acc * powmod_fixed(public.r_bases[offset + i], m, public.n) % public.n
    return acc


def _check_attributes(attributes: Sequence[int]) -> None:
    for m in attributes:
        if not isinstance(m, int) or isinstance(m, bool):
            raise EncodingRangeError("attributes must be encoded integers")
        if not 0 <= m < ATTRIBUTE_BOUND:
            raise EncodingRangeError("attribute out of encoding range")


def cl_sign(keys: ClIssuerKeyPair, attributes: Sequence[int], profile: Profile,
            rng: random.Random, hidden_commitment: int | None = None) -> ClSignature:
    """Sign an attribute vector. When hidden_commitment is given it occupies
    the reserved slot 0 and `attributes` fill the remaining slots; the v in
    the returned signature is then only the issuer's share."""
    public = keys.public
    reserved = 1 if hidden_commitment is not None else 0
    if len(attributes) + reserved > public.slot_count:
        raise ParameterError("attribute vector longer than the key's slot count")
    _check_attributes(attributes)
    order = keys.group_order
    e = _random_signature_exponent(profile, order, rng)
    v = rng.getrandbits(profile.v_bits) | (1 << (profile.v_bits - 1))
    a = keys.powmod_crt(recompute_q(public, attributes, v, hidden_commitment), invert(e, order))
    return ClSignature(a=a, e=e, v=v)


def _random_signature_exponent(profile: Profile, order: int, rng: random.Random) -> int:
    lo = 1 << (profile.e_bits - 1)
    while True:
        e = random_prime_in_range(lo, lo + (1 << profile.e_window_bits), rng)
        if order % e != 0:
            return e


def cl_verify(public: ClPublicKey, attributes: Sequence[int], signature: ClSignature,
              hidden_commitment: int | None = None) -> bool:
    """True iff A^e * S^v * prod R_i^(m_i) = Z (mod n). Returns False on any
    malformed input instead of raising."""
    try:
        reserved = 1 if hidden_commitment is not None else 0
        if len(attributes) + reserved > public.slot_count:
            return False
        if not all(isinstance(m, int) and not isinstance(m, bool) and 0 <= m < ATTRIBUTE_BOUND
                   for m in attributes):
            return False
        a, e, v = signature.a, signature.e, signature.v
        if not all(isinstance(x, int) for x in (a, e, v)):
            return False
        if not 1 < a < public.n or e <= 2 or e % 2 == 0:
            return False
        rhs = powmod(a, e, public.n) * powmod_fixed(public.s, v, public.n) % public.n
        rhs = rhs * _attribute_term(public, attributes, reserved) % public.n
        if hidden_commitment is not None:
            rhs = rhs * (hidden_commitment % public.n) % public.n
        return rhs == public.z
    except (AttributeError, TypeError, ValueError):
        return False


def recompute_q(public: ClPublicKey, attributes: Sequence[int], v: int,
                hidden_commitment: int | None = None) -> int:
    """The value A^e must equal: Z / (S^v * prod R_i^(m_i) * [commitment])."""
    reserved = 1 if hidden_commitment is not None else 0
    base = powmod_fixed(public.s, v, public.n) * _attribute_term(public, attributes, reserved) % public.n
    if hidden_commitment is not None:
        base = base * (hidden_commitment % public.n) % public.n
    return public.z * invert(base, public.n) % public.n


def sign_with_proof(keys: ClIssuerKeyPair, attributes: Sequence[int], profile: Profile,
                    rng: random.Random, nonce: bytes,
                    hidden_commitment: int | None = None) -> tuple[ClSignature, SignatureProof]:
    sig = cl_sign(keys, attributes, profile, rng, hidden_commitment)
    public = keys.public
    order = keys.group_order
    q_value = recompute_q(public, attributes, sig.v, hidden_commitment)
    r = rng.randrange(2, order)
    a_tilde = keys.powmod_crt(q_value, r)
    c = _signature_proof_challenge(public, q_value, sig.a, a_tilde, nonce, profile)
    s_e = (r - c * invert(sig.e, order)) % order
    return sig, SignatureProof(challenge=c, s_e=s_e)


def verify_signature_proof(public: ClPublicKey, a: int, q_value: int, proof: SignatureProof,
                           nonce: bytes, profile: Profile) -> bool:
    try:
        a_hat = powmod(a, proof.challenge, public.n) * powmod(q_value, proof.s_e, public.n) % public.n
    except (AttributeError, TypeError, ValueError):
        return False
    return proof.challenge == _signature_proof_challenge(public, q_value, a, a_hat, nonce, profile)


def _signature_proof_challenge(public: ClPublicKey, q_value: int, a: int, a_tilde: int,
                               nonce: bytes, profile: Profile) -> int:
    t = Transcript("cl-signature-proof")
    t.absorb_bytes(nonce)
    for x in (public.n, q_value, a, a_tilde):
        t.absorb(x)
    return t.challenge(profile.challenge_bits)


def signature_exponent_prime(signature: ClSignature, profile: Profile) -> bool:
    """Holder-side acceptance check: e prime and inside the profile window."""
    lo = 1 << (profile.e_bits - 1)
    if not lo <= signature.e < lo + (1 << profile.e_window_bits):
        return False
    return is_probable_prime(signature.e)
