"""Issuer keys and signatures for the anonymous-credential scheme.

Keys live over an RSA modulus built from two safe primes; the public part is
(n, Z, R_1..R_l), Z and every R_i a power of S = hashed_square(n, "issuer-s"),
which no issuer chooses: under a chosen S = 1 mod q, a commitment R^m S^r is
R^m mod q, whose m a 2^15-step walk reads. Z and the R_i are still chosen.
Signing computes A = (Z / (S^v * prod R_i^(m_i)))^(1/e mod p'q') for a random
prime exponent e and random blinding v, so verification is the single
equation A^e * S^v * prod R_i^(m_i) = Z (mod n). A blinded commitment can
occupy the reserved first slot during issuance, which is how the holder's
link secret gets signed without being revealed.

The issuer computes Z and the R_i when a key is assembled, and Q = A^e and A
for each signature, mod p and mod q; `sign_with_proof` reuses the
signature's Q.

Each equation has one definition, which every checker runs: `signature_q`
for A^e = Q and `_signature_eq` for the issuer's proof, on the `sigma`
engine. The holder (`check_issued_signature`) runs both, the second needing Q.
Whether a signature, a proof or an attribute list has the right types is
`serialize.conforms`'s decision, the one shape rule; the checkers here keep
only the range, length and parity tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from ..errors import EncodingRangeError, ParameterError, VerificationError
from ..params import Profile
from ..serialize import conforms, serializable
from .commitment import hashed_square
from .encoding import ATTRIBUTE_BOUND
from .primes import (Crt, Term, invert, is_probable_prime, multi_powmod, multi_powmod_crt, multi_powmod_many,
                     random_prime_in_range, sophie_germain_prime)
from .sigma import Eq, challenge, evaluate, well_formed


@serializable("cl-public-key")
@dataclass(frozen=True)
class ClPublicKey:
    n: int
    z: int
    r_bases: tuple[int, ...]  # one base per attribute slot; slot 0 is the link-secret slot

    @cached_property
    def s(self) -> int:
        """S, hashed from n: no issuer chooses it, stores it or sends it."""
        return hashed_square(self.n, "issuer-s")

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

    @property
    def crt(self) -> Crt:
        """n's factors for `multi_powmod_crt`."""
        return (self.p, self.p - 1), (self.q, self.q - 1)

    def powmod_crt(self, x: int, exp: int) -> int:
        """x^exp mod n, computed mod p and mod q."""
        return multi_powmod_crt(((x, exp, False),), self.crt)

    @classmethod
    def from_secrets(cls, p_prime: int, q_prime: int, x_z: int, x_r: Sequence[int]) -> "ClIssuerKeyPair":
        """Assemble a key pair from chosen secrets: Z = S^x_z and R_i = S^x_r[i]
        for the S hashed from n (used by tests, the key cache and cl_keygen)."""
        p, q = 2 * p_prime + 1, 2 * q_prime + 1
        crt = (p, p - 1), (q, q - 1)
        s = hashed_square(p * q, "issuer-s")
        z = multi_powmod_crt(((s, x_z, True),), crt)
        r_bases = tuple(multi_powmod_crt(((s, x, True),), crt) for x in x_r)
        return cls(
            public=ClPublicKey(n=p * q, z=z, r_bases=r_bases),
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
    order = p_prime * q_prime
    x_z = rng.randrange(2, order)
    x_r = [rng.randrange(2, order) for _ in range(attribute_count)]
    return ClIssuerKeyPair.from_secrets(p_prime, q_prime, x_z, x_r)


def _q_terms(public: ClPublicKey, attributes: Sequence[int], v: int,
             hidden_commitment: int | None) -> list[Term]:
    """S^v * prod R_i^(m_i) * [commitment] as terms; attributes start at slot 1
    when the commitment takes slot 0."""
    offset = 1 if hidden_commitment is not None else 0
    terms = [(public.s, v, True)]
    terms += [(public.r_bases[offset + i], m, True) for i, m in enumerate(attributes)]
    if hidden_commitment is not None:
        terms.append((hidden_commitment, 1, False))
    return terms


def _check_attributes(attributes: Sequence[int]) -> None:
    if not conforms(attributes, tuple[int, ...]):
        raise EncodingRangeError("attributes must be encoded integers")
    if not all(0 <= m < ATTRIBUTE_BOUND for m in attributes):
        raise EncodingRangeError("attribute out of encoding range")


def cl_sign(keys: ClIssuerKeyPair, attributes: Sequence[int], profile: Profile,
            rng: random.Random, hidden_commitment: int | None = None) -> ClSignature:
    """Sign an attribute vector. When hidden_commitment is given it occupies
    the reserved slot 0 and `attributes` fill the remaining slots; the v in
    the returned signature is then only the issuer's share."""
    return _sign(keys, attributes, profile, rng, hidden_commitment)[0]


def _sign(keys: ClIssuerKeyPair, attributes: Sequence[int], profile: Profile,
          rng: random.Random, hidden_commitment: int | None) -> tuple[ClSignature, int]:
    """The signature and its Q, both computed mod p and mod q."""
    public = keys.public
    reserved = 1 if hidden_commitment is not None else 0
    if len(attributes) + reserved > public.slot_count:
        raise ParameterError("attribute vector longer than the key's slot count")
    _check_attributes(attributes)
    order = keys.group_order
    e = _random_signature_exponent(profile, order, rng)
    v = rng.getrandbits(profile.v_bits) | (1 << (profile.v_bits - 1))
    base = multi_powmod_crt(_q_terms(public, attributes, v, hidden_commitment), keys.crt)
    q_value = _q_from(public, base)
    return ClSignature(a=keys.powmod_crt(q_value, invert(e, order)), e=e, v=v), q_value


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
    return signature_q(public, attributes, signature, hidden_commitment) is not None


def signature_q(public: ClPublicKey, attributes: Sequence[int], signature: ClSignature,
                hidden_commitment: int | None = None) -> int | None:
    """Q = Z / (S^v * prod R_i^(m_i) * [commitment]) when the signature
    conforms to ClSignature, the attributes to tuple[int, ...], both are in
    range and A^e = Q (mod n), else None. The product behind Q and A^e are
    one batched evaluation."""
    if not (conforms(signature, ClSignature) and conforms(attributes, tuple[int, ...])):
        return None
    reserved = 1 if hidden_commitment is not None else 0
    if len(attributes) + reserved > public.slot_count:
        return None
    if not all(0 <= m < ATTRIBUTE_BOUND for m in attributes):
        return None
    a, e, v = signature.a, signature.e, signature.v
    if not 1 < a < public.n or e <= 2 or e % 2 == 0:
        return None
    n = public.n
    try:
        base, a_e = multi_powmod_many([(_q_terms(public, attributes, v, hidden_commitment), n),
                                       (((a, e, False),), n)])
        q_value = _q_from(public, base)
    except ValueError:  # a base with no inverse mod n
        return None
    return q_value if a_e == q_value else None


def recompute_q(public: ClPublicKey, attributes: Sequence[int], v: int,
                hidden_commitment: int | None = None) -> int:
    """The value A^e must equal: Z / (S^v * prod R_i^(m_i) * [commitment])."""
    return _q_from(public, multi_powmod(_q_terms(public, attributes, v, hidden_commitment), public.n))


def _q_from(public: ClPublicKey, base: int) -> int:
    """Z / base mod n, for base = S^v * prod R_i^(m_i) * [commitment]."""
    return public.z * invert(base, public.n) % public.n


def _signature_eq(n: int, a: int, q_value: int) -> Eq:
    """A^-1 = Q^w (mod n), for the witness w = -1/e mod p'q'."""
    return Eq(n, ((q_value, "w", False),), lambda: ((a, -1, False),))


def sign_with_proof(keys: ClIssuerKeyPair, attributes: Sequence[int], profile: Profile,
                    rng: random.Random, nonce: bytes,
                    hidden_commitment: int | None = None) -> tuple[ClSignature, SignatureProof]:
    """The signature and a proof that A is Q's e-th root; its t-value is made mod p and q."""
    sig, q_value = _sign(keys, attributes, profile, rng, hidden_commitment)
    public = keys.public
    order = keys.group_order
    r = rng.randrange(2, order)
    (a_tilde,) = evaluate([(_signature_eq(public.n, sig.a, q_value), {"w": r})], 0, {public.n: keys.crt})
    c = challenge("cl-signature-proof", nonce, (public.n, q_value, sig.a, a_tilde), profile.challenge_bits)
    return sig, SignatureProof(challenge=c, s_e=(r - c * invert(sig.e, order)) % order)


def verify_signature_proof(public: ClPublicKey, a: int, q_value: int, proof: SignatureProof,
                           nonce: bytes, profile: Profile) -> bool:
    """The proof's challenge is that of A^c * Q^s_e, for Q from `signature_q`
    and a proof that conforms to SignatureProof. The issuer reduces s_e mod
    p'q', so anything outside [0, n) is refused before any exponentiation."""
    c, s_e, bits = proof.challenge, proof.s_e, profile.challenge_bits
    if not (well_formed(c, bits) and 0 <= s_e < public.n):
        return False
    (a_hat,) = evaluate([(_signature_eq(public.n, a, q_value), {"w": s_e})], c, {})
    return c == challenge("cl-signature-proof", nonce, (public.n, q_value, a, a_hat), bits)


def check_issued_signature(public: ClPublicKey, attributes: Sequence[int], signature: ClSignature,
                           proof: SignatureProof, nonce: bytes, profile: Profile) -> None:
    """The holder's check of an issued signature over all its slots. Raises
    VerificationError for the first that fails of the proof's shape,
    `cl_verify`'s equation, `signature_exponent_prime` and
    `verify_signature_proof`."""
    if not conforms(proof, SignatureProof):
        raise VerificationError("issuer signature-correctness proof malformed")
    q_value = signature_q(public, attributes, signature)
    if q_value is None:
        raise VerificationError("credential signature invalid")
    if not signature_exponent_prime(signature, profile):
        raise VerificationError("signature exponent outside the accepted prime range")
    if not verify_signature_proof(public, signature.a, q_value, proof, nonce, profile):
        raise VerificationError("issuer signature-correctness proof invalid")


def signature_exponent_prime(signature: ClSignature, profile: Profile) -> bool:
    """Holder-side acceptance check: e prime and inside the profile window."""
    lo = 1 << (profile.e_bits - 1)
    if not lo <= signature.e < lo + (1 << profile.e_window_bits):
        return False
    return is_probable_prime(signature.e)
