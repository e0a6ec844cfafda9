"""One-time verifiable presentations with selective disclosure, plus the
attached proofs an exchange needs: cross-presentation equality of a hidden
attribute, verifiable encryption toward a designated key holder, and a
greater-than-threshold predicate on a hidden date attribute.

All proofs of one bundle share a single Fiat-Shamir challenge: the prover
collects every component's commitment values, absorbs the full statement and
all t-values into one transcript, and only then derives responses. Sessions
chain bundles through a digest of the previous bundle, so the two exchange
presentations and their link arms are bound to the same verifier nonce and
cannot be mixed across sessions.

Equality across two presentations rides on a shared integer commitment to
the attribute under a commitment key derived from a credential definition:
each presentation carries a link arm proving its hidden response opens that
same commitment, and binding of the commitment carries equality across the
two bundles.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .credentials import Credential, CredentialDefinition, LinkSecret, Schema, fetch_definition, fetch_schema
from .crypto.ciphertext import Ciphertext
from .crypto.commitment import CommitmentKey, commit
from .crypto.elgamal import ElGamalPublicKey
from .crypto.encoding import ATTRIBUTE_BOUND
from .crypto.paillier import PaillierPublicKey
from .crypto.primes import invert, powmod, powmod_fixed
from .crypto.transcript import Transcript
from .errors import ProofRefusedError, SchemaMismatchError
from .ledger import Registry
from .params import Profile
from .serialize import dumps, serializable

# Pseudo-attribute name for the link-secret slot; always hidden.
LINK_NAME = "@link"

# Bit width of the predicate decomposition; covers YYYYMMDD date integers.
PRED_BITS = 27


@serializable("presentation")
@dataclass(frozen=True)
class Presentation:
    defn_id: str
    disclosed: dict[str, int]  # attribute name -> encoded value
    hidden_names: tuple[str, ...]  # LINK_NAME first, then schema attribute names
    a_prime: int  # randomized signature commitment
    e_hat: int
    v_hat: int
    m_hats: dict[str, int]  # hidden name -> response
    nonce: bytes
    challenge: int

    def to_fields(self) -> dict:
        return {
            "a_prime": self.a_prime,
            "challenge": self.challenge,
            "defn_id": self.defn_id,
            "disclosed": dict(self.disclosed),
            "e_hat": self.e_hat,
            "hidden_names": list(self.hidden_names),
            "m_hats": dict(self.m_hats),
            "nonce": self.nonce,
            "v_hat": self.v_hat,
        }

    @classmethod
    def from_fields(cls, fields: dict) -> "Presentation":
        return cls(defn_id=fields["defn_id"], disclosed=dict(fields["disclosed"]),
                   hidden_names=tuple(fields["hidden_names"]), a_prime=fields["a_prime"],
                   e_hat=fields["e_hat"], v_hat=fields["v_hat"], m_hats=dict(fields["m_hats"]),
                   nonce=fields["nonce"], challenge=fields["challenge"])


@serializable("link-proof")
@dataclass(frozen=True)
class LinkProof:
    """Ties the presentation's hidden response for one attribute to a shared
    integer commitment."""

    attr: str
    commitment: int
    r_hat: int

    def to_fields(self) -> dict:
        return {"attr": self.attr, "commitment": self.commitment, "r_hat": self.r_hat}

    @classmethod
    def from_fields(cls, fields: dict) -> "LinkProof":
        return cls(attr=fields["attr"], commitment=fields["commitment"], r_hat=fields["r_hat"])


@serializable("verifiable-encryption-proof")
@dataclass(frozen=True)
class VerifiableEncryptionProof:
    attr: str
    scheme: str  # "elgamal" | "paillier"
    key_id: str
    ciphertext: Ciphertext
    r_hat: int  # randomness response; multiplicative for paillier

    def to_fields(self) -> dict:
        return {"attr": self.attr, "ciphertext": self.ciphertext, "key_id": self.key_id,
                "r_hat": self.r_hat, "scheme": self.scheme}

    @classmethod
    def from_fields(cls, fields: dict) -> "VerifiableEncryptionProof":
        return cls(attr=fields["attr"], scheme=fields["scheme"], key_id=fields["key_id"],
                   ciphertext=fields["ciphertext"], r_hat=fields["r_hat"])


@serializable("bit-proof")
@dataclass(frozen=True)
class BitProof:
    """OR-proof that a commitment opens to 0 or 1; c1 is implied by the
    bundle challenge: c1 = (c - c0) mod 2^challenge_bits."""

    c0: int
    s0: int
    s1: int

    def to_fields(self) -> dict:
        return {"c0": self.c0, "s0": self.s0, "s1": self.s1}

    @classmethod
    def from_fields(cls, fields: dict) -> "BitProof":
        return cls(c0=fields["c0"], s0=fields["s0"], s1=fields["s1"])


@serializable("predicate-proof")
@dataclass(frozen=True)
class PredicateProof:
    """Shows the hidden attribute value is at most `threshold` via a bit
    decomposition of the difference."""

    attr: str
    threshold: int
    bit_commitments: tuple[int, ...]
    bit_proofs: tuple[BitProof, ...]
    u_hat: int  # response for the aggregated bit randomness in the linear arm

    def to_fields(self) -> dict:
        return {"attr": self.attr, "bit_commitments": list(self.bit_commitments),
                "bit_proofs": list(self.bit_proofs), "threshold": self.threshold, "u_hat": self.u_hat}

    @classmethod
    def from_fields(cls, fields: dict) -> "PredicateProof":
        return cls(attr=fields["attr"], threshold=fields["threshold"],
                   bit_commitments=tuple(fields["bit_commitments"]),
                   bit_proofs=tuple(fields["bit_proofs"]), u_hat=fields["u_hat"])


@serializable("presentation-bundle")
@dataclass(frozen=True)
class PresentationBundle:
    presentation: Presentation
    link_proofs: tuple[LinkProof, ...]
    enc_proofs: tuple[VerifiableEncryptionProof, ...]
    predicate_proofs: tuple[PredicateProof, ...]
    commitment_source: str  # definition id the link commitment key derives from
    prev_digest: bytes  # digest of the previous bundle in the session, b"" for the first
    challenge: int

    def to_fields(self) -> dict:
        return {
            "challenge": self.challenge,
            "commitment_source": self.commitment_source,
            "enc_proofs": list(self.enc_proofs),
            "link_proofs": list(self.link_proofs),
            "predicate_proofs": list(self.predicate_proofs),
            "presentation": self.presentation,
            "prev_digest": self.prev_digest,
        }

    @classmethod
    def from_fields(cls, fields: dict) -> "PresentationBundle":
        return cls(presentation=fields["presentation"], link_proofs=tuple(fields["link_proofs"]),
                   enc_proofs=tuple(fields["enc_proofs"]),
                   predicate_proofs=tuple(fields["predicate_proofs"]),
                   commitment_source=fields["commitment_source"],
                   prev_digest=fields["prev_digest"], challenge=fields["challenge"])


@serializable("equality-proof")
@dataclass(frozen=True)
class EqualityProof:
    """References two presentations and carries the shared commitment plus
    both link responses tying their hidden attributes to it."""

    attr_a: str
    attr_b: str
    commitment: int
    r_hat_a: int
    r_hat_b: int
    bundle_digest_a: bytes
    bundle_digest_b: bytes

    def to_fields(self) -> dict:
        return {"attr_a": self.attr_a, "attr_b": self.attr_b,
                "bundle_digest_a": self.bundle_digest_a, "bundle_digest_b": self.bundle_digest_b,
                "commitment": self.commitment, "r_hat_a": self.r_hat_a, "r_hat_b": self.r_hat_b}

    @classmethod
    def from_fields(cls, fields: dict) -> "EqualityProof":
        return cls(attr_a=fields["attr_a"], attr_b=fields["attr_b"], commitment=fields["commitment"],
                   r_hat_a=fields["r_hat_a"], r_hat_b=fields["r_hat_b"],
                   bundle_digest_a=fields["bundle_digest_a"], bundle_digest_b=fields["bundle_digest_b"])


@dataclass(frozen=True)
class EncryptionSpec:
    """Request to verifiably encrypt one hidden attribute to a public key."""

    attr: str
    public_key: ElGamalPublicKey | PaillierPublicKey

    @property
    def scheme(self) -> str:
        return "elgamal" if isinstance(self.public_key, ElGamalPublicKey) else "paillier"


@dataclass(frozen=True)
class PredicateSpec:
    attr: str
    threshold: int  # prove hidden value <= threshold


def bundle_digest(bundle: PresentationBundle) -> bytes:
    return hashlib.sha256(dumps(bundle)).digest()


def commitment_key_for(definition: CredentialDefinition) -> CommitmentKey:
    pk = definition.public_key
    return CommitmentKey.derive(pk.n, pk.s, label="link-commitment:" + definition.defn_id)


class ProofSession:
    """Prover-side context for one exchange: a verifier nonce, a chained
    transcript digest, and the shared link commitments."""

    def __init__(self, registry: Registry, nonce: bytes, rng: random.Random,
                 commitment_source: str):
        self.registry = registry
        self.nonce = nonce
        self.rng = rng
        self.commitment_source = commitment_source
        source_defn = fetch_definition(registry, commitment_source)
        self.profile = source_defn.profile()
        self.commitment_key = commitment_key_for(source_defn)
        self.prev_digest = b""
        self._links: dict[str, tuple[int, int, int]] = {}  # label -> (C, value, randomness)

    def _link_commitment(self, label: str, value: int) -> tuple[int, int]:
        if label in self._links:
            c_value, known, r = self._links[label]
            if known != value:
                raise ProofRefusedError(
                    f"attribute linked as {label!r} differs from the session's committed value")
            return c_value, r
        c, r = commit(self.commitment_key, value, rng=self.rng, profile=self.profile)
        self._links[label] = (c.value, value, r)
        return c.value, r

    def build_bundle(self, definition: CredentialDefinition, schema: Schema, credential: Credential,
                     link_secret: LinkSecret, disclose: Iterable[str] = (),
                     link: Mapping[str, str] | None = None,
                     encrypt: Sequence[EncryptionSpec] = (),
                     predicates: Sequence[PredicateSpec] = ()) -> PresentationBundle:
        profile = self.profile
        rng = self.rng
        pk = definition.public_key
        n = pk.n
        names = schema.attribute_names
        disclose = set(disclose)
        unknown = disclose - set(names)
        if unknown:
            raise SchemaMismatchError(f"unknown attributes in disclosure set: {sorted(unknown)}")
        link = dict(link or {})
        if set(link) - set(names):
            raise SchemaMismatchError("link attributes must belong to the schema")
        if disclose & set(link):
            raise ProofRefusedError("a disclosed attribute needs no link proof")

        hidden_names = (LINK_NAME,) + tuple(nm for nm in names if nm not in disclose)
        slot_of = {LINK_NAME: 0}
        slot_of.update({nm: i + 1 for i, nm in enumerate(names)})
        values = {LINK_NAME: link_secret.value}
        values.update(credential.attributes)
        disclosed = {nm: credential.attributes[nm] for nm in sorted(disclose)}

        # randomize the signature
        sig = credential.signature
        r_a = rng.getrandbits(n.bit_length() + profile.stat_bits)
        a_prime = sig.a * powmod_fixed(pk.s, r_a, n) % n
        v_prime = sig.v - sig.e * r_a
        e_prime = sig.e - (1 << (profile.e_bits - 1))

        # blindings; hidden-attribute blindings are shared with every arm
        e_tilde = rng.getrandbits(profile.e_window_bits + profile.challenge_bits + profile.stat_bits)
        v_tilde = rng.getrandbits(profile.v_bits + profile.challenge_bits + 2 * profile.stat_bits)
        m_tilde = {nm: rng.getrandbits(profile.attr_bits + profile.challenge_bits + profile.stat_bits)
                   for nm in hidden_names}

        t_core = powmod(a_prime, e_tilde, n) * powmod_fixed(pk.s, v_tilde, n) % n
        for nm in hidden_names:
            t_core = t_core * powmod_fixed(pk.r_bases[slot_of[nm]], m_tilde[nm], n) % n

        # link arms against the shared session commitments
        ck = self.commitment_key
        link_stmts, link_ts, link_pending = [], [], []
        for attr in sorted(link):
            c_value, c_rand = self._link_commitment(link[attr], values[attr])
            r_tilde = rng.getrandbits(ck.n.bit_length() + profile.stat_bits
                                      + profile.challenge_bits + profile.stat_bits)
            t_link = (powmod_fixed(ck.r_base, m_tilde[attr], ck.n)
                      * powmod_fixed(ck.s_base, r_tilde, ck.n) % ck.n)
            link_stmts.append({"attr": attr, "commitment": c_value})
            link_ts.append(t_link)
            link_pending.append((attr, c_value, c_rand, r_tilde))

        # verifiable-encryption arms
        enc_stmts, enc_ts, enc_pending = [], [], []
        for spec in encrypt:
            if spec.attr not in hidden_names:
                raise ProofRefusedError(f"attribute {spec.attr!r} must be hidden to encrypt verifiably")
            value = values[spec.attr]
            if spec.scheme == "elgamal":
                epk = spec.public_key
                if value >= epk.plain_bound:
                    raise ProofRefusedError("plaintext exceeds the ElGamal bound")
                rho = rng.randrange(1, epk.q)
                ct = Ciphertext(scheme="elgamal",
                                parts=(powmod_fixed(epk.g, rho, epk.p),
                                       powmod_fixed(epk.g, value, epk.p)
                                       * powmod_fixed(epk.h, rho, epk.p) % epk.p))
                rho_t = rng.randrange(0, epk.q)
                ts = [powmod_fixed(epk.g, rho_t, epk.p),
                      powmod_fixed(epk.g, m_tilde[spec.attr], epk.p)
                      * powmod_fixed(epk.h, rho_t, epk.p) % epk.p]
                enc_pending.append((spec, ct, rho, rho_t))
            else:
                ppk = spec.public_key
                if value >= ppk.n:
                    raise ProofRefusedError("plaintext exceeds the Paillier modulus")
                n2 = ppk.n_squared
                while True:
                    s_rand = rng.randrange(1, ppk.n)
                    if _coprime(s_rand, ppk.n):
                        break
                ct = Ciphertext(scheme="paillier",
                                parts=((1 + value * ppk.n) % n2 * powmod(s_rand, ppk.n, n2) % n2,))
                while True:
                    s_t = rng.randrange(1, ppk.n)
                    if _coprime(s_t, ppk.n):
                        break
                ts = [(1 + (m_tilde[spec.attr] % ppk.n) * ppk.n) % n2 * powmod(s_t, ppk.n, n2) % n2]
                enc_pending.append((spec, ct, s_rand, s_t))
            key_id = spec.public_key.key_id()
            enc_stmts.append({"attr": spec.attr, "key_id": key_id,
                              "parts": list(ct.parts), "scheme": spec.scheme})
            enc_ts.append(ts)

        # predicate arms: hidden value <= threshold via bits of the difference
        pred_stmts, pred_ts, pred_pending = [], [], []
        for spec in predicates:
            if spec.attr not in hidden_names:
                raise ProofRefusedError(f"attribute {spec.attr!r} must be hidden for a predicate proof")
            if not 0 <= spec.threshold < (1 << PRED_BITS):
                raise ProofRefusedError("threshold out of predicate range")
            delta = spec.threshold - values[spec.attr]
            if delta < 0:
                raise ProofRefusedError("attribute violates the predicate")
            bits = [(delta >> j) & 1 for j in range(PRED_BITS)]
            resp_bits = ck.n.bit_length() + profile.stat_bits + profile.challenge_bits + profile.stat_bits
            r_inv = invert(ck.r_base, ck.n)
            d_values, bit_items, rho_sum = [], [], 0
            for j, b in enumerate(bits):
                rho_j = rng.getrandbits(ck.n.bit_length() + profile.stat_bits)
                rho_sum += rho_j << j
                d_j = powmod_fixed(ck.r_base, b, ck.n) * powmod_fixed(ck.s_base, rho_j, ck.n) % ck.n
                # simulate the false branch, run the true branch honestly
                c_sim = rng.getrandbits(profile.challenge_bits)
                s_sim = rng.getrandbits(resp_bits)
                w = rng.getrandbits(resp_bits)
                if b == 0:
                    target_sim = d_j * r_inv % ck.n  # branch 1 statement: D/R = S^rho
                    t0, t1 = powmod_fixed(ck.s_base, w, ck.n), \
                        powmod_fixed(ck.s_base, s_sim, ck.n) * powmod(target_sim, -c_sim, ck.n) % ck.n
                else:
                    t0 = powmod_fixed(ck.s_base, s_sim, ck.n) * powmod(d_j, -c_sim, ck.n) % ck.n
                    t1 = powmod_fixed(ck.s_base, w, ck.n)
                d_values.append(d_j)
                bit_items.append((b, rho_j, c_sim, s_sim, w, t0, t1))
            u_tilde = rng.getrandbits(rho_sum.bit_length() + profile.challenge_bits + profile.stat_bits)
            t_lin = (powmod_fixed(ck.r_base, m_tilde[spec.attr], ck.n)
                     * powmod_fixed(ck.s_base, u_tilde, ck.n) % ck.n)
            pred_stmts.append({"attr": spec.attr, "bits": d_values, "threshold": spec.threshold})
            pred_ts.append({"bits": [[t0, t1] for (_, _, _, _, _, t0, t1) in bit_items], "lin": t_lin})
            pred_pending.append((spec, bit_items, rho_sum, u_tilde))

        statement = {
            "a_prime": a_prime,
            "ckey_src": self.commitment_source,
            "defn": definition.defn_id,
            "disclosed": disclosed,
            "encs": enc_stmts,
            "hidden": list(hidden_names),
            "links": link_stmts,
            "nonce": self.nonce,
            "preds": pred_stmts,
            "prev": self.prev_digest,
        }
        t_values = {"core": t_core, "encs": enc_ts, "links": link_ts, "preds": pred_ts}
        challenge = _bundle_challenge(profile, statement, t_values)

        m_hats = {nm: m_tilde[nm] + challenge * values[nm] for nm in hidden_names}
        presentation = Presentation(
            defn_id=definition.defn_id, disclosed=disclosed, hidden_names=hidden_names,
            a_prime=a_prime, e_hat=e_tilde + challenge * e_prime,
            v_hat=v_tilde + challenge * v_prime, m_hats=m_hats,
            nonce=self.nonce, challenge=challenge,
        )
        link_proofs = tuple(
            LinkProof(attr=attr, commitment=c_value, r_hat=r_tilde + challenge * c_rand)
            for (attr, c_value, c_rand, r_tilde) in link_pending
        )
        enc_proofs = []
        for (spec, ct, rand, rand_t) in enc_pending:
            if spec.scheme == "elgamal":
                r_hat = (rand_t + challenge * rand) % spec.public_key.q
            else:
                r_hat = rand_t * powmod(rand, challenge, spec.public_key.n) % spec.public_key.n
            enc_proofs.append(VerifiableEncryptionProof(
                attr=spec.attr, scheme=spec.scheme, key_id=spec.public_key.key_id(),
                ciphertext=ct, r_hat=r_hat))
        predicate_proofs = []
        for (spec, bit_items, rho_sum, u_tilde) in pred_pending:
            chal_mod = 1 << profile.challenge_bits
            bit_proofs = []
            for (b, rho_j, c_sim, s_sim, w, _, _) in bit_items:
                c_real = (challenge - c_sim) % chal_mod
                s_real = w + c_real * rho_j
                if b == 0:
                    bit_proofs.append(BitProof(c0=c_real, s0=s_real, s1=s_sim))
                else:
                    bit_proofs.append(BitProof(c0=c_sim, s0=s_sim, s1=s_real))
            predicate_proofs.append(PredicateProof(
                attr=spec.attr, threshold=spec.threshold,
                bit_commitments=tuple(pred_stmts[len(predicate_proofs)]["bits"]),
                bit_proofs=tuple(bit_proofs),
                u_hat=u_tilde - challenge * rho_sum))

        bundle = PresentationBundle(
            presentation=presentation, link_proofs=link_proofs, enc_proofs=tuple(enc_proofs),
            predicate_proofs=tuple(predicate_proofs), commitment_source=self.commitment_source,
            prev_digest=self.prev_digest, challenge=challenge,
        )
        self.prev_digest = bundle_digest(bundle)
        return bundle

    def equality_proof(self, bundle_a: PresentationBundle, attr_a: str,
                       bundle_b: PresentationBundle, attr_b: str) -> EqualityProof:
        arm_a = _find_link(bundle_a, attr_a)
        arm_b = _find_link(bundle_b, attr_b)
        if arm_a is None or arm_b is None:
            raise ProofRefusedError("both presentations need a link arm for the attribute")
        if arm_a.commitment != arm_b.commitment:
            raise ProofRefusedError("hidden attributes differ; refusing to prove equality")
        return EqualityProof(
            attr_a=attr_a, attr_b=attr_b, commitment=arm_a.commitment,
            r_hat_a=arm_a.r_hat, r_hat_b=arm_b.r_hat,
            bundle_digest_a=bundle_digest(bundle_a), bundle_digest_b=bundle_digest(bundle_b),
        )


def _coprime(a: int, n: int) -> bool:
    import math

    return math.gcd(a, n) == 1


def _find_link(bundle: PresentationBundle, attr: str) -> LinkProof | None:
    for arm in bundle.link_proofs:
        if arm.attr == attr:
            return arm
    return None


def _bundle_challenge(profile: Profile, statement: dict, t_values: dict) -> int:
    t = Transcript("vp-bundle")
    t.absorb(statement)
    t.absorb(t_values)
    return t.challenge(profile.challenge_bits)


def create_presentation(registry: Registry, credential: Credential, link_secret: LinkSecret,
                        disclose: Iterable[str], nonce: bytes, rng: random.Random,
                        link: Mapping[str, str] | None = None,
                        encrypt: Sequence[EncryptionSpec] = (),
                        predicates: Sequence[PredicateSpec] = ()) -> PresentationBundle:
    """One-shot session producing a single standalone bundle."""
    definition = fetch_definition(registry, credential.defn_id)
    schema = fetch_schema(registry, definition.schema_id)
    session = ProofSession(registry, nonce, rng, commitment_source=credential.defn_id)
    return session.build_bundle(definition, schema, credential, link_secret,
                                disclose=disclose, link=link, encrypt=encrypt, predicates=predicates)


def verify_bundle(registry: Registry, bundle: PresentationBundle, expected_nonce: bytes,
                  encryption_keys: Mapping[str, ElGamalPublicKey | PaillierPublicKey] | None = None,
                  expected_prev: bytes | None = None) -> bool:
    """Full verification of a bundle: every arm's t-value is recomputed from
    the stored responses and the single challenge is re-derived from the
    whole transcript. Returns False on any malformed input."""
    try:
        return _verify_bundle(registry, bundle, expected_nonce, encryption_keys or {}, expected_prev)
    except Exception:
        return False


def _verify_bundle(registry: Registry, bundle: PresentationBundle, expected_nonce: bytes,
                   encryption_keys: Mapping[str, ElGamalPublicKey | PaillierPublicKey],
                   expected_prev: bytes | None) -> bool:
    pres = bundle.presentation
    if pres.nonce != expected_nonce or pres.challenge != bundle.challenge:
        return False
    if expected_prev is not None and bundle.prev_digest != expected_prev:
        return False
    definition = fetch_definition(registry, pres.defn_id)
    schema = fetch_schema(registry, definition.schema_id)
    profile = definition.profile()
    pk = definition.public_key
    n = pk.n
    names = schema.attribute_names

    if pres.hidden_names[:1] != (LINK_NAME,):
        return False
    hidden_attrs = set(pres.hidden_names[1:])
    if LINK_NAME in pres.disclosed or hidden_attrs | set(pres.disclosed) != set(names):
        return False
    if hidden_attrs & set(pres.disclosed):
        return False
    if set(pres.m_hats) != set(pres.hidden_names):
        return False
    slot_of = {LINK_NAME: 0}
    slot_of.update({nm: i + 1 for i, nm in enumerate(names)})

    c = bundle.challenge
    # response range checks (loose soundness bounds)
    if not 0 <= c < (1 << profile.challenge_bits):
        return False
    if not 0 <= pres.e_hat < (1 << (profile.e_window_bits + profile.challenge_bits + profile.stat_bits + 2)):
        return False
    if abs(pres.v_hat) >= (1 << (profile.v_bits + profile.challenge_bits + 2 * profile.stat_bits + 2)):
        return False
    for m_hat in pres.m_hats.values():
        if not 0 <= m_hat < (1 << (profile.attr_bits + profile.challenge_bits + profile.stat_bits + 2)):
            return False
    for value in pres.disclosed.values():
        if not 0 <= value < ATTRIBUTE_BOUND:
            return False
    if not 1 < pres.a_prime < n:
        return False

    # core arm
    base = pk.z
    for nm, value in pres.disclosed.items():
        base = base * invert(powmod_fixed(pk.r_bases[slot_of[nm]], value, n), n) % n
    base = base * invert(powmod(pres.a_prime, 1 << (profile.e_bits - 1), n), n) % n
    t_core = powmod(base, -c, n) * powmod(pres.a_prime, pres.e_hat, n) % n
    t_core = t_core * powmod_fixed(pk.s, pres.v_hat, n) % n
    for nm in pres.hidden_names:
        t_core = t_core * powmod_fixed(pk.r_bases[slot_of[nm]], pres.m_hats[nm], n) % n

    source_defn = fetch_definition(registry, bundle.commitment_source)
    ck = commitment_key_for(source_defn)

    link_stmts, link_ts = [], []
    for arm in bundle.link_proofs:
        if arm.attr not in hidden_attrs and arm.attr != LINK_NAME:
            return False
        t_link = (powmod(arm.commitment, -c, ck.n)
                  * powmod_fixed(ck.r_base, pres.m_hats[arm.attr], ck.n)
                  * powmod_fixed(ck.s_base, arm.r_hat, ck.n) % ck.n)
        link_stmts.append({"attr": arm.attr, "commitment": arm.commitment})
        link_ts.append(t_link)

    enc_stmts, enc_ts = [], []
    for arm in bundle.enc_proofs:
        if arm.attr not in pres.m_hats or arm.attr in pres.disclosed:
            return False
        key = encryption_keys.get(arm.key_id)
        if key is None or key.key_id() != arm.key_id:
            return False
        m_hat = pres.m_hats[arm.attr]
        if arm.scheme == "elgamal":
            if not isinstance(key, ElGamalPublicKey) or arm.ciphertext.scheme != "elgamal":
                return False
            c1, c2 = arm.ciphertext.parts
            if not (0 < c1 < key.p and 0 < c2 < key.p and 0 <= arm.r_hat < key.q):
                return False
            t1 = powmod(c1, -c, key.p) * powmod_fixed(key.g, arm.r_hat, key.p) % key.p
            t2 = (powmod(c2, -c, key.p) * powmod_fixed(key.g, m_hat, key.p)
                  * powmod_fixed(key.h, arm.r_hat, key.p) % key.p)
            ts = [t1, t2]
        else:
            if not isinstance(key, PaillierPublicKey) or arm.ciphertext.scheme != "paillier":
                return False
            n2 = key.n_squared
            (ct,) = arm.ciphertext.parts
            if not (0 < ct < n2 and 0 < arm.r_hat < key.n):
                return False
            ts = [powmod(ct, -c, n2) * (1 + (m_hat % key.n) * key.n) % n2
                  * powmod(arm.r_hat, key.n, n2) % n2]
        enc_stmts.append({"attr": arm.attr, "key_id": arm.key_id,
                          "parts": list(arm.ciphertext.parts), "scheme": arm.scheme})
        enc_ts.append(ts)

    pred_stmts, pred_ts = [], []
    chal_mod = 1 << profile.challenge_bits
    for arm in bundle.predicate_proofs:
        if arm.attr not in hidden_attrs:
            return False
        if len(arm.bit_commitments) != PRED_BITS or len(arm.bit_proofs) != PRED_BITS:
            return False
        if not 0 <= arm.threshold < (1 << PRED_BITS):
            return False
        r_inv = invert(ck.r_base, ck.n)
        bit_t_pairs = []
        for d_j, bp in zip(arm.bit_commitments, arm.bit_proofs):
            if not 0 <= bp.c0 < chal_mod:
                return False
            c1 = (c - bp.c0) % chal_mod
            t0 = powmod_fixed(ck.s_base, bp.s0, ck.n) * powmod(d_j, -bp.c0, ck.n) % ck.n
            t1 = powmod_fixed(ck.s_base, bp.s1, ck.n) * powmod(d_j * r_inv % ck.n, -c1, ck.n) % ck.n
            bit_t_pairs.append([t0, t1])
        agg = 1
        for j, d_j in enumerate(arm.bit_commitments):
            agg = agg * powmod(d_j, 1 << j, ck.n) % ck.n
        e_value = powmod_fixed(ck.r_base, arm.threshold, ck.n) * invert(agg, ck.n) % ck.n
        t_lin = (powmod(e_value, -c, ck.n)
                 * powmod_fixed(ck.r_base, pres.m_hats[arm.attr], ck.n)
                 * powmod_fixed(ck.s_base, arm.u_hat, ck.n) % ck.n)
        pred_stmts.append({"attr": arm.attr, "bits": list(arm.bit_commitments), "threshold": arm.threshold})
        pred_ts.append({"bits": bit_t_pairs, "lin": t_lin})

    statement = {
        "a_prime": pres.a_prime,
        "ckey_src": bundle.commitment_source,
        "defn": pres.defn_id,
        "disclosed": dict(pres.disclosed),
        "encs": enc_stmts,
        "hidden": list(pres.hidden_names),
        "links": link_stmts,
        "nonce": pres.nonce,
        "preds": pred_stmts,
        "prev": bundle.prev_digest,
    }
    t_values = {"core": t_core, "encs": enc_ts, "links": link_ts, "preds": pred_ts}
    return _bundle_challenge(profile, statement, t_values) == c


def verify_presentation(registry: Registry, bundle: PresentationBundle, expected_nonce: bytes,
                        encryption_keys: Mapping[str, ElGamalPublicKey | PaillierPublicKey] | None = None) -> bool:
    return verify_bundle(registry, bundle, expected_nonce, encryption_keys)


def verify_equality(registry: Registry, proof: EqualityProof,
                    bundle_a: PresentationBundle, bundle_b: PresentationBundle,
                    nonce_a: bytes, nonce_b: bytes,
                    encryption_keys: Mapping[str, ElGamalPublicKey | PaillierPublicKey] | None = None) -> bool:
    """True iff both bundles verify, both carry a link arm for the named
    attribute against the same commitment, and that commitment matches the
    proof. Binding of the commitment then forces the hidden values equal."""
    try:
        arm_a = _find_link(bundle_a, proof.attr_a)
        arm_b = _find_link(bundle_b, proof.attr_b)
        if arm_a is None or arm_b is None:
            return False
        if not (arm_a.commitment == arm_b.commitment == proof.commitment):
            return False
        if (arm_a.r_hat, arm_b.r_hat) != (proof.r_hat_a, proof.r_hat_b):
            return False
        if bundle_a.commitment_source != bundle_b.commitment_source:
            return False
        if proof.bundle_digest_a != bundle_digest(bundle_a) or proof.bundle_digest_b != bundle_digest(bundle_b):
            return False
        if not verify_bundle(registry, bundle_a, nonce_a, encryption_keys):
            return False
        return verify_bundle(registry, bundle_b, nonce_b, encryption_keys,
                             expected_prev=bundle_digest(bundle_a))
    except Exception:
        return False
