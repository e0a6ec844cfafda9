"""One-time verifiable presentations with selective disclosure, plus the
attached proofs an exchange needs: a link arm tying a hidden attribute to a
commitment the session shares, verifiable encryption toward a designated key
holder, and an at-most-threshold predicate on a hidden date attribute, by
Lagrange's four squares.

All proofs of one bundle share a single Fiat-Shamir challenge: the prover
collects every component's commitment values, absorbs the full statement and
all t-values into one transcript, and only then derives responses. Sessions
chain bundles through a digest of the previous bundle, so the two exchange
presentations and their link arms are bound to the same verifier nonce and
cannot be mixed across sessions.

Each arm kind (core, link, encryption, predicate) is defined once, by a
`_*_arm` function that gives its statement entry, its relation on the
`crypto.sigma` engine and the layout of its t-values. Prover and verifier
each evaluate every equation of a bundle in one call. The prover raises no
value that call gives, A' = A S^r_a or a square commitment T_i: it writes
A'^b = A^b S^(r_a b), A a variable base, and prod T_i^b_i =
R^(sum u_i b_i) S^(sum r_i b_i). It draws all its randomness first, in
bundle order. `build_bundle` and `_verify_bundle` build the same arms in the
same order, and `_bundle_challenge` alone lays out the statement and the
t-values it hashes.

Equality across two presentations rides on a shared integer commitment to
the attribute under a commitment key derived from a credential definition:
each presentation carries a link arm proving its hidden response opens that
same commitment, and binding of the commitment carries equality across the
two bundles. No separate proof goes on the wire: `verify_equality` reads the
link arms, commitment sources and chain digest of the two bundles themselves,
and then verifies both bundles, the second chained onto the first.

Each value goes on the wire once. The challenge travels only in the bundle,
the verifier nonce not at all (each verifier absorbs the nonce it issued),
and a ciphertext carries its own scheme.

Both escrow encryptions draw short randomness (`_rho_bits`): the ElGamal rho
is a short exponent of the authority's group (`elgamal.exponent_bits`; the
short-exponent DDH assumption of Koshiba and Kurosawa), the Paillier rho has
|n|/2 + stat_bits bits (the short-randomness form of Damgard, Jurik and
Nielsen). Each arm's randomness response is then an integer,
rho_blind + c * rho, bounded by its blinding's width plus one bit.

Each bundle proves a statement, as an AnonCreds presentation request asks,
which the prover and every verifier take alike as the keywords `defn_id`,
`commitment_source`, `disclose`, `link`, `encrypt` ((attribute, key) pairs)
and `predicates` ((attribute, threshold) pairs) of
`ProofSession.build_bundle` and `verify_bundle`.

`verify_bundle` and `verify_equality` first check each bundle's shape with
`serialize.conforms`, the one shape rule, driven by the annotations below; a
bundle of the wrong shape is refused before any field is read. Then a bundle
whose own statement differs from the one asked for is refused, and every
response is bounded by its blinding's width, all before any exponentiation.
Every range, length and set test on the values stays here.
"""
from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .credentials import Credential, CredentialDefinition, LinkSecret, fetch_definition, fetch_schema
from .crypto.ciphertext import Ciphertext
from .crypto.cl import ClIssuerKeyPair
from .crypto.commitment import CommitmentKey, opening_eq, randomizer_bits
from .crypto.elgamal import ElGamalPublicKey, exponent_bits
from .crypto.encoding import ATTRIBUTE_BOUND
from .crypto.paillier import PaillierKeyPair, PaillierPublicKey, paillier_hs
from .crypto.primes import Crt
from .crypto.sigma import Eq, evaluate, well_formed
from .crypto.transcript import Transcript
from .errors import ProofRefusedError, RegistryError, SchemaMismatchError
from .ledger import Registry
from .params import Profile
from .serialize import conforms, dumps, serializable

# A verifier's own key pairs, whose factors it holds.
OwnKeys = ClIssuerKeyPair | PaillierKeyPair

# The public key an encryption arm encrypts to.
EncryptionKey = ElGamalPublicKey | PaillierPublicKey

# Pseudo-attribute name for the link-secret slot; always hidden.
LINK_NAME = "@link"

PRED_RANGE = range(1 << 27)  # thresholds a predicate arm may name; covers YYYYMMDD dates
SQUARE_BITS = 14  # threshold - m < 2^27 is four squares u_i^2, each u_i < 2^14


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


@serializable("link-proof")
@dataclass(frozen=True)
class LinkProof:
    """Ties the presentation's hidden response for one attribute to a shared
    integer commitment."""

    attr: str
    commitment: int
    r_hat: int


@serializable("verifiable-encryption-proof")
@dataclass(frozen=True)
class VerifiableEncryptionProof:
    attr: str
    key_id: str
    ciphertext: Ciphertext
    r_hat: int  # integer randomness response, below 2^(_r_hat_bits + 1)


@serializable("predicate-proof")
@dataclass(frozen=True)
class PredicateProof:
    """Shows the hidden attribute value is at most `threshold`: the
    difference is the sum of the squares committed to in `squares`."""

    attr: str
    threshold: int
    squares: tuple[int, ...]  # T_i = R^u_i S^r_i, four of them
    u_hats: tuple[int, ...]
    r_hats: tuple[int, ...]
    rho_hat: int  # response for rho = -sum u_i r_i


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


def bundle_digest(bundle: PresentationBundle) -> bytes:
    return hashlib.sha256(dumps(bundle)).digest()


def commitment_key_for(definition: CredentialDefinition) -> CommitmentKey:
    pk = definition.public_key
    return CommitmentKey.derive(pk.n, pk.s, label="link-commitment:" + definition.defn_id)


# ---------------------------------------------------------------------------
# arm definitions, shared by prover and verifier


@dataclass(frozen=True)
class _Arm:
    """A proof arm as both sides build it: its statement entry, its relation
    and how its t-values nest in the transcript."""

    statement: dict
    eqs: list[Eq]
    layout: Callable[[list[int]], object]


def _scheme(key: EncryptionKey) -> str:
    return "elgamal" if isinstance(key, ElGamalPublicKey) else "paillier"


def _core_arm(definition: CredentialDefinition, profile: Profile, names: Sequence[str],
              a_prime: int, hidden_names: Sequence[str], disclosed: Mapping[str, int]) -> _Arm:
    """Z / (A'^(2^(e_bits-1)) * prod_disclosed R_i^m_i) = A'^e' * S^v' * prod_hidden R_i^m_i
    (mod n): a signature on the link secret and every attribute. Witnesses
    "@e", "@v" and the hidden names; the statement entries are top-level.
    The verifier's t-value is
    A'^(e_hat + c 2^(e_bits-1)) * Z^-c * prod_disclosed R_i^(c m_i) * S^v_hat * prod_hidden R_i^m_hat."""
    pk = definition.public_key
    r_base = dict(zip((LINK_NAME,) + tuple(names), pk.r_bases))
    terms = ((a_prime, "@e", False), (pk.s, "@v", True), *((r_base[nm], nm, True) for nm in hidden_names))
    target = lambda: ((pk.z, 1, True), (a_prime, -(1 << (profile.e_bits - 1)), False),  # noqa: E731
                      *((r_base[nm], -value, True) for nm, value in disclosed.items()))
    return _Arm({"a_prime": a_prime, "defn": definition.defn_id, "disclosed": dict(disclosed),
                 "hidden": list(hidden_names)}, [Eq(pk.n, terms, target)], lambda ts: ts[0])


def _link_arm(ck: CommitmentKey, attr: str, commitment: int | None) -> _Arm:
    """C = R^m * S^r (mod N): the hidden attribute m opens the commitment all
    bundles of the session share for it. The prover passes None for a
    commitment it has yet to evaluate (`ProofSession._prove_link`)."""
    return _Arm({"attr": attr, "commitment": commitment}, [opening_eq(ck.n, ck.r_base, ck.s_base, commitment)],
                lambda ts: ts[0])


def _link_blind_bits(profile: Profile, ck: CommitmentKey) -> int:
    """Bits of the link arm's randomness blinding: it covers c times the
    commitment's randomness, of `randomizer_bits`, with stat_bits of slack."""
    return randomizer_bits(ck, profile) + profile.challenge_bits + profile.stat_bits


def _encryption_arm(attr: str, key: EncryptionKey, parts: Sequence[int | None]) -> _Arm:
    """ElGamal: c1 = g^r and c2 = g^m * h^r (mod p). Paillier, in the
    fixed-base form of Damgard-Jurik-Nielsen: c = (1+n)^m * h_s^r (mod n^2)
    for the key's public n-th residue h_s (`paillier_hs`), with
    (1+n)^m = 1 + (m mod n) * n. Both randomness responses are integers, as
    in Camenisch-Shoup verifiable encryption. From two accepting transcripts,
    ElGamal gives g^dr = c1^dc, so r = dr / dc mod q opens the ciphertext to
    the core arm's m; Paillier gives ct^dc = (1+n)^dm * h_s^dr, and raising
    to lambda gives n | lambda*dc*(m' - m), so with dc below p and q the
    ciphertext opens to the core arm's m."""
    if isinstance(key, ElGamalPublicKey):
        p, (c1, c2) = key.p, parts
        eqs = [Eq(p, ((key.g, "r", True),), lambda: ((c1, 1, False),)),
               Eq(p, ((key.g, "m", True), (key.h, "r", True)), lambda: ((c2, 1, False),))]
    else:
        (ct,) = parts
        eqs = [Eq(key.n_squared, ((paillier_hs(key.n), "r", True),), lambda: ((ct, 1, False),),
                  paillier_n=key.n)]
    return _Arm({"attr": attr, "key_id": key.key_id(), "parts": list(parts), "scheme": _scheme(key)},
                eqs, list)


def _rho_bits(profile: Profile, key: EncryptionKey) -> int:
    """Bits of the encryption arm's randomness rho. ElGamal: a short exponent
    whose response fits in |q| bits (`elgamal.exponent_bits`). Paillier:
    |n|/2 + stat_bits, the short randomness of Damgard-Jurik-Nielsen."""
    if isinstance(key, ElGamalPublicKey):
        return exponent_bits(key.q, profile.challenge_bits + profile.stat_bits)
    return key.n.bit_length() // 2 + profile.stat_bits


def _r_hat_bits(profile: Profile, key: EncryptionKey) -> int:
    """Bits of the randomness blinding: it covers c * rho with stat_bits of slack."""
    return _rho_bits(profile, key) + profile.challenge_bits + profile.stat_bits


def _encryption_in_range(profile: Profile, key: EncryptionKey, proof: VerifiableEncryptionProof) -> bool:
    """Ciphertext parts are nonzero group elements, and the randomness
    response, blinding plus challenge times rho, lies in [0, 2^(_r_hat_bits + 1))."""
    if isinstance(key, ElGamalPublicKey):
        c1, c2 = proof.ciphertext.parts
        parts_in_range = 0 < c1 < key.p and 0 < c2 < key.p
    else:
        (ct,) = proof.ciphertext.parts
        parts_in_range = 0 < ct < key.n_squared
    return parts_in_range and 0 <= proof.r_hat < 1 << (_r_hat_bits(profile, key) + 1)


def _predicate_arm(ck: CommitmentKey, attr: str, threshold: int, squares: Sequence[int | None]) -> _Arm:
    """Hidden m <= threshold, by Lagrange's four squares (Lipmaa; Boudot):
    T_i = R^u_i * S^r_i (mod N) commits to u_i for each of the four
    `squares`, and R^threshold = R^m * prod T_i^u_i * S^rho (mod N), with
    rho = -sum u_i r_i, gives threshold - m = sum u_i^2 >= 0 in the group of
    hidden order. Witnesses "m" (shared with the core arm), "u<i>", "r<i>"
    and "rho". The prover passes None for the commitments it has yet to
    evaluate (`ProofSession._prove_predicate`)."""
    n, r_base, s_base = ck.n, ck.r_base, ck.s_base
    eqs = [Eq(n, ((r_base, f"u{i}", True), (s_base, f"r{i}", True)), lambda t=t: ((t, 1, False),))
           for i, t in enumerate(squares)]
    eqs.append(Eq(n, ((r_base, "m", True), *((t, f"u{i}", False) for i, t in enumerate(squares)),
                      (s_base, "rho", True)), lambda: ((r_base, threshold, True),)))
    return _Arm({"attr": attr, "squares": list(squares), "threshold": threshold}, eqs, list)


def _four_squares(delta: int) -> tuple[int, int, int, int]:
    """(u_1, u_2, u_3, u_4) with delta = sum u_i^2, searched from the largest
    square down once the factors of 4 are out (each halves every u_i, and
    without them the search stays short): deterministic, and it draws no
    randomness."""
    if delta and delta % 4 == 0:
        return tuple(2 * u for u in _four_squares(delta // 4))
    for u1 in range(math.isqrt(delta), -1, -1):
        for u2 in range(math.isqrt(delta - u1 * u1), -1, -1):
            rest = delta - u1 * u1 - u2 * u2
            for u3 in range(math.isqrt(rest), -1, -1):
                u4 = math.isqrt(rest - u3 * u3)
                if u3 * u3 + u4 * u4 == rest:
                    return u1, u2, u3, u4


def _predicate_blind_bits(profile: Profile, ck: CommitmentKey) -> dict[str, int]:
    """Bits of the blinding of each witness of the predicate arm but m, in
    draw order. Each covers c times its witness with stat_bits of slack:
    |rho| < 4 * 2^SQUARE_BITS * 2^(|N| + stat), u_i < 2^SQUARE_BITS, and r_i
    has |N| + stat bits."""
    slack, r_bits = profile.challenge_bits + profile.stat_bits, randomizer_bits(ck, profile)
    return {"rho": r_bits + SQUARE_BITS + 2 + slack, **{f"u{i}": SQUARE_BITS + slack for i in range(4)},
            **{f"r{i}": r_bits + slack for i in range(4)}}


def _predicate_responses(profile: Profile, ck: CommitmentKey, proof: PredicateProof) -> dict[str, int] | None:
    """The arm's responses by witness name, or None unless `squares`,
    `u_hats` and `r_hats` hold four each, the threshold lies in PRED_RANGE,
    and each response lies within two bits of its blinding, non-negative but
    for rho_hat, as rho is negative."""
    if not all(len(field) == 4 for field in (proof.squares, proof.u_hats, proof.r_hats)):
        return None
    bits = _predicate_blind_bits(profile, ck)
    hats = dict(zip(bits, (proof.rho_hat, *proof.u_hats, *proof.r_hats)))
    in_range = all(abs(z) < 1 << (bits[name] + 2) and (z >= 0 or name == "rho") for name, z in hats.items())
    return hats if in_range and proof.threshold in PRED_RANGE else None


def _bundle_challenge(profile: Profile, core: _Arm, t_core: int, nonce: bytes,
                      commitment_source: str, prev: bytes, arms: Mapping[str, list]) -> int:
    """The bundle's one Fiat-Shamir challenge: the whole statement, then every
    t-value. `arms` maps "links", "encs" and "preds" to (arm, t-values, ...)
    entries in bundle order."""
    t = Transcript("vp-bundle")
    t.absorb({**core.statement, "ckey_src": commitment_source, "nonce": nonce, "prev": prev,
              **{kind: [arm.statement for arm, *_ in group] for kind, group in arms.items()}})
    t.absorb({"core": t_core, **{kind: [ts for _, ts, *_ in group] for kind, group in arms.items()}})
    return t.challenge(profile.challenge_bits)


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
        self._links: dict[str, tuple[int | None, int, int]] = {}  # attribute -> (C, value, randomness)

    def _link_commitment(self, attr: str, value: int) -> tuple[int | None, int]:
        """The session's commitment R^value S^r to `attr`, and r. A new one
        draws r now and stays None until `build_bundle` evaluates it."""
        if attr in self._links:
            c_value, known, r = self._links[attr]
            if known != value:
                raise ProofRefusedError(f"linked attribute {attr!r} differs from the session's committed value")
            return c_value, r
        r = self.rng.getrandbits(randomizer_bits(self.commitment_key, self.profile))
        self._links[attr] = (None, value, r)
        return None, r

    def build_bundle(self, credential: Credential, link_secret: LinkSecret, *, defn_id: str,
                     commitment_source: str, disclose: Iterable[str] = (), link: Iterable[str] = (),
                     encrypt: Sequence[tuple[str, EncryptionKey]] = (),
                     predicates: Sequence[tuple[str, int]] = ()) -> PresentationBundle:
        """The bundle proving the statement the keywords give, the one its
        verifiers pass to `verify_bundle`. Refuses a statement about another
        credential definition or commitment source than `credential`'s and
        the session's, or one that is false for the prover's own values."""
        if credential.defn_id != defn_id or commitment_source != self.commitment_source:
            raise ProofRefusedError("the statement names another credential definition or commitment source")
        profile, rng = self.profile, self.rng
        definition = fetch_definition(self.registry, defn_id)
        names = fetch_schema(self.registry, definition.schema_id).attribute_names
        disclose, link = set(disclose), sorted(link)
        unknown = disclose - set(names)
        if unknown:
            raise SchemaMismatchError(f"unknown attributes in disclosure set: {sorted(unknown)}")
        if set(link) - set(names):
            raise SchemaMismatchError("link attributes must belong to the schema")
        if disclose & set(link):
            raise ProofRefusedError("a disclosed attribute needs no link proof")

        hidden_names = (LINK_NAME,) + tuple(nm for nm in names if nm not in disclose)
        values = {LINK_NAME: link_secret.value, **credential.attributes}
        disclosed = {nm: credential.attributes[nm] for nm in sorted(disclose)}

        # the signature's randomizer r_a, then the blindings, shared by every arm
        r_a = rng.getrandbits(definition.public_key.n.bit_length() + profile.stat_bits)
        blind = {"@e": rng.getrandbits(profile.e_window_bits + profile.challenge_bits + profile.stat_bits),
                 "@v": rng.getrandbits(profile.v_bits + profile.challenge_bits + 2 * profile.stat_bits)}
        for nm in hidden_names:
            blind[nm] = rng.getrandbits(profile.attr_bits + profile.challenge_bits + profile.stat_bits)

        provers = {
            "core": [self._prove_core(definition, names, credential, hidden_names, disclosed, values, r_a, blind)],
            "links": [self._prove_link(attr, values[attr], blind[attr]) for attr in link],
            "encs": [self._prove_encryption(attr, key, hidden_names, values, blind) for attr, key in encrypt],
            "preds": [self._prove_predicate(attr, threshold, hidden_names, values, blind)
                      for attr, threshold in predicates],
        }
        # one evaluation of every prover's pairs; each `settle` builds its arm from their values
        found = iter(evaluate([pair for group in provers.values() for pairs, _ in group for pair in pairs], 0, {}))
        arms = {kind: [settle([next(found) for _ in pairs]) for pairs, settle in group]
                for kind, group in provers.items()}
        ((core, t_core, present),) = arms.pop("core")
        c = _bundle_challenge(profile, core, t_core, self.nonce, self.commitment_source, self.prev_digest, arms)

        proofs = {kind: tuple(respond(c) for _, _, respond in group) for kind, group in arms.items()}
        bundle = PresentationBundle(presentation=present(c), link_proofs=proofs["links"],
                                    enc_proofs=proofs["encs"], predicate_proofs=proofs["preds"],
                                    commitment_source=self.commitment_source, prev_digest=self.prev_digest,
                                    challenge=c)
        self.prev_digest = bundle_digest(bundle)
        return bundle

    # Each _prove_* returns (pairs, settle): the (equation, exponents) pairs
    # it needs evaluated, over bases known beforehand (at c = 0 an arm built
    # with None for its statement values gives its t-values at the blindings
    # and those values at the witness), and `settle`, which maps their values
    # to (arm, t-values, respond), respond mapping c to the arm's wire proof.

    def _prove_core(self, definition: CredentialDefinition, names: Sequence[str], credential: Credential,
                    hidden_names: Sequence[str], disclosed: Mapping[str, int], values: Mapping[str, int],
                    r_a: int, blind: Mapping[str, int]):
        """A' = A S^r_a, and the core t-value over A as A'^b = A^b S^(r_a b):
        the arm over A gives only its equation, the one over A' the statement."""
        profile, pk, sig = self.profile, definition.public_key, credential.signature
        witness = {"@e": sig.e - (1 << (profile.e_bits - 1)), "@v": sig.v - sig.e * r_a, **values}
        (eq,) = _core_arm(definition, profile, names, sig.a, hidden_names, disclosed).eqs
        pairs = [(Eq(pk.n, ((pk.s, "r", True),)), {"r": r_a}),
                 (eq, {**blind, "@v": blind["@v"] + r_a * blind["@e"]})]

        def settle(found: list[int]):
            a_prime = sig.a * found[0] % pk.n

            def respond(c: int) -> Presentation:
                hats = {name: blind[name] + c * witness[name] for name in blind}
                return Presentation(defn_id=definition.defn_id, disclosed=disclosed, hidden_names=hidden_names,
                                    a_prime=a_prime, e_hat=hats.pop("@e"), v_hat=hats.pop("@v"), m_hats=hats)

            return _core_arm(definition, profile, names, a_prime, hidden_names, disclosed), found[1], respond

        return pairs, settle

    def _prove_link(self, attr: str, value: int, m_blind: int):
        ck = self.commitment_key
        c_value, c_rand = self._link_commitment(attr, value)
        r_blind = self.rng.getrandbits(_link_blind_bits(self.profile, ck))
        (eq,) = _link_arm(ck, attr, None).eqs
        pairs = [(eq, {"m": m_blind, "r": r_blind})]
        if c_value is None:
            pairs.append((eq, {"m": value, "r": c_rand}))

        def settle(found: list[int]):
            commitment = found[1] if c_value is None else c_value
            self._links[attr] = (commitment, value, c_rand)
            arm = _link_arm(ck, attr, commitment)
            return arm, arm.layout(found[:1]), \
                lambda c: LinkProof(attr=attr, commitment=commitment, r_hat=r_blind + c * c_rand)

        return pairs, settle

    def _prove_encryption(self, attr: str, key: EncryptionKey, hidden_names: Sequence[str],
                          values: Mapping[str, int], blind: Mapping[str, int]):
        if attr not in hidden_names:
            raise ProofRefusedError(f"attribute {attr!r} must be hidden to encrypt verifiably")
        value = values[attr]
        if isinstance(key, ElGamalPublicKey):
            if value >= key.plain_bound:
                raise ProofRefusedError("plaintext exceeds the ElGamal bound")
            unknown = (None, None)
        else:
            if value >= key.n:
                raise ProofRefusedError("plaintext exceeds the Paillier modulus")
            unknown = (None,)
        rho = self.rng.getrandbits(_rho_bits(self.profile, key))
        rho_blind = self.rng.getrandbits(_r_hat_bits(self.profile, key))
        # the ciphertext parts are the relation at the witness
        eqs = _encryption_arm(attr, key, unknown).eqs
        blinds, witness = {"m": blind[attr], "r": rho_blind}, {"m": value, "r": rho}

        def settle(found: list[int]):
            parts = tuple(found[len(eqs):])
            arm = _encryption_arm(attr, key, parts)
            return arm, arm.layout(found[:len(eqs)]), \
                lambda c: VerifiableEncryptionProof(attr=attr, key_id=key.key_id(),
                                                    ciphertext=Ciphertext(_scheme(key), parts),
                                                    r_hat=rho_blind + c * rho)

        return [(eq, blinds) for eq in eqs] + [(eq, witness) for eq in eqs], settle

    def _prove_predicate(self, attr: str, threshold: int, hidden_names: Sequence[str],
                         values: Mapping[str, int], blind: Mapping[str, int]):
        """Draws r_i for each square, then the rho blinding, then the u_i
        blindings and then the r_i blindings; `_four_squares` draws nothing.
        The last t-value is written over R and S, as
        prod T_i^b_i = R^(sum u_i b_i) S^(sum r_i b_i)."""
        if attr not in hidden_names[1:]:
            raise ProofRefusedError(f"attribute {attr!r} must be hidden for a predicate proof")
        if threshold not in PRED_RANGE:
            raise ProofRefusedError("threshold out of predicate range")
        delta = threshold - values[attr]
        if delta < 0:
            raise ProofRefusedError("attribute violates the predicate")
        ck, rng = self.commitment_key, self.rng
        witness = {}
        for i, u in enumerate(_four_squares(delta)):
            witness[f"u{i}"], witness[f"r{i}"] = u, rng.getrandbits(randomizer_bits(ck, self.profile))
        witness["rho"] = -sum(witness[f"u{i}"] * witness[f"r{i}"] for i in range(4))
        exps = {"m": blind[attr],
                **{name: rng.getrandbits(bits) for name, bits in _predicate_blind_bits(self.profile, ck).items()}}
        last = {"m": exps["m"] + sum(witness[f"u{i}"] * exps[f"u{i}"] for i in range(4)),
                "r": exps["rho"] + sum(witness[f"r{i}"] * exps[f"u{i}"] for i in range(4))}
        commitments = _predicate_arm(ck, attr, threshold, (None,) * 4).eqs[:4]
        pairs = [(eq, exps) for eq in commitments] + [(opening_eq(ck.n, ck.r_base, ck.s_base, None), last)]

        def respond(c: int, squares: tuple[int, ...]) -> PredicateProof:
            hats = {name: exps[name] + c * value for name, value in witness.items()}
            return PredicateProof(attr=attr, threshold=threshold, squares=squares,
                                  u_hats=tuple(hats[f"u{i}"] for i in range(4)),
                                  r_hats=tuple(hats[f"r{i}"] for i in range(4)), rho_hat=hats["rho"])

        def settle(found: list[int]):
            squares = tuple(found[5:])
            arm = _predicate_arm(ck, attr, threshold, squares)
            return arm, arm.layout(found[:5]), lambda c: respond(c, squares)

        return pairs + [(eq, witness) for eq in commitments], settle


def create_presentation(registry: Registry, credential: Credential, link_secret: LinkSecret,
                        disclose: Iterable[str], nonce: bytes, rng: random.Random, link: Iterable[str] = (),
                        encrypt: Sequence[tuple[str, EncryptionKey]] = (),
                        predicates: Sequence[tuple[str, int]] = ()) -> PresentationBundle:
    """One-shot session producing a single standalone bundle, whose link
    commitments derive from the credential's own definition."""
    session = ProofSession(registry, nonce, rng, commitment_source=credential.defn_id)
    return session.build_bundle(credential, link_secret, defn_id=credential.defn_id,
                                commitment_source=credential.defn_id, disclose=disclose, link=link,
                                encrypt=encrypt, predicates=predicates)


def verify_bundle(registry: Registry, bundle: PresentationBundle, expected_nonce: bytes, *, defn_id: str,
                  commitment_source: str, disclose: Iterable[str] = (), link: Iterable[str] = (),
                  encrypt: Sequence[tuple[str, EncryptionKey]] = (), predicates: Sequence[tuple[str, int]] = (),
                  expected_prev: bytes | None = None, own_keys: Sequence[OwnKeys] = ()) -> bool:
    """Full verification of a bundle against the statement the keywords give,
    the one its prover took: every arm's t-values are recomputed from the
    stored responses and the single challenge is re-derived from the whole
    transcript. With the verifier's `own_keys` (its issuer key pair, its
    Paillier key pair) the engine works mod their primes, to the same verdict.
    A bundle that does not conform to PresentationBundle or proves another
    statement, a definition the registry does not know, a malformed response
    or a group element with no inverse gives False; any other exception is a
    bug and propagates."""
    if not conforms(bundle, PresentationBundle):
        return False
    # the bundle's own statement, its link arms in attribute order as the prover builds them
    pres = bundle.presentation
    shown = (pres.defn_id, bundle.commitment_source, set(pres.disclosed), [p.attr for p in bundle.link_proofs],
             [(p.attr, p.key_id) for p in bundle.enc_proofs], [(p.attr, p.threshold) for p in bundle.predicate_proofs])
    if shown != (defn_id, commitment_source, set(disclose), sorted(link),
                 [(attr, key.key_id()) for attr, key in encrypt], [(attr, t) for attr, t in predicates]):
        return False
    try:
        return _verify_bundle(registry, bundle, expected_nonce, [key for _, key in encrypt], expected_prev,
                              _factored(own_keys))
    except (RegistryError, ValueError):
        return False


def _factored(own_keys: Sequence[OwnKeys]) -> dict[int, Crt]:
    """Modulus -> its factors, for the verifier's own key pairs."""
    return {crt[0][0] * crt[1][0]: crt for crt in (k.crt for k in own_keys)}


def _verify_bundle(registry: Registry, bundle: PresentationBundle, expected_nonce: bytes,
                   encryption_keys: Sequence[EncryptionKey], expected_prev: bytes | None,
                   factored: Mapping[int, Crt]) -> bool:
    pres = bundle.presentation
    if expected_prev is not None and bundle.prev_digest != expected_prev:
        return False
    definition = fetch_definition(registry, pres.defn_id)
    names = fetch_schema(registry, definition.schema_id).attribute_names
    profile = definition.profile()

    if pres.hidden_names[:1] != (LINK_NAME,):
        return False
    hidden_attrs = set(pres.hidden_names[1:])
    if LINK_NAME in pres.disclosed or hidden_attrs | set(pres.disclosed) != set(names):
        return False
    if hidden_attrs & set(pres.disclosed):
        return False
    if set(pres.m_hats) != set(pres.hidden_names):
        return False

    c = bundle.challenge
    if not well_formed(c, profile.challenge_bits):
        return False
    # response range checks (loose soundness bounds)
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
    # A' enters with a positive exponent only, so no inversion refuses a non-unit
    n = definition.public_key.n
    if not 1 < pres.a_prime < n or math.gcd(pres.a_prime, n) != 1:
        return False

    ck = commitment_key_for(fetch_definition(registry, bundle.commitment_source))
    arms = {"core": [(_core_arm(definition, profile, names, pres.a_prime, pres.hidden_names, pres.disclosed),
                      {"@e": pres.e_hat, "@v": pres.v_hat, **pres.m_hats})], "links": [], "encs": [], "preds": []}
    r_hat_bound = 1 << (_link_blind_bits(profile, ck) + 2)
    for p in bundle.link_proofs:
        if p.attr not in hidden_attrs or not 0 <= p.r_hat < r_hat_bound:
            return False
        arms["links"].append((_link_arm(ck, p.attr, p.commitment), {"m": pres.m_hats[p.attr], "r": p.r_hat}))
    for p, key in zip(bundle.enc_proofs, encryption_keys):
        if p.attr not in pres.hidden_names or p.ciphertext.scheme != _scheme(key) \
                or not _encryption_in_range(profile, key, p):
            return False
        arms["encs"].append((_encryption_arm(p.attr, key, p.ciphertext.parts),
                             {"m": pres.m_hats[p.attr], "r": p.r_hat}))
    for p in bundle.predicate_proofs:
        hats = _predicate_responses(profile, ck, p)
        if p.attr not in hidden_attrs or hats is None:
            return False
        arms["preds"].append((_predicate_arm(ck, p.attr, p.threshold, p.squares),
                              {"m": pres.m_hats[p.attr], **hats}))

    # every equation of the bundle in one evaluation, then each arm's t-values in place of its exponents
    found = iter(evaluate([(eq, exps) for group in arms.values() for arm, exps in group for eq in arm.eqs],
                          c, factored))
    arms = {kind: [(arm, arm.layout([next(found) for _ in arm.eqs])) for arm, _ in group]
            for kind, group in arms.items()}
    ((core, t_core),) = arms.pop("core")
    return _bundle_challenge(profile, core, t_core, expected_nonce, bundle.commitment_source,
                             bundle.prev_digest, arms) == c


def verify_equality(registry: Registry, bundle_a: PresentationBundle, bundle_b: PresentationBundle,
                    attr: str, nonce: bytes, statement_a: Mapping, statement_b: Mapping,
                    own_keys: Sequence[OwnKeys] = ()) -> bool:
    """True iff both bundles carry a link arm for `attr` against one
    commitment, under one commitment key, bundle_b chains onto bundle_a, and
    each bundle verifies under `nonce` against its statement, given as the
    keywords of `verify_bundle`, with the verifier's `own_keys`. The linkage
    is checked first, so a splice costs no proof work. Binding of the
    commitment then forces the hidden values equal."""
    if not (conforms(bundle_a, PresentationBundle) and conforms(bundle_b, PresentationBundle)):
        return False
    arm_a, arm_b = (next((p for p in bundle.link_proofs if p.attr == attr), None) for bundle in (bundle_a, bundle_b))
    digest_a = bundle_digest(bundle_a)
    return (arm_a is not None and arm_b is not None
            and arm_a.commitment == arm_b.commitment
            and bundle_a.commitment_source == bundle_b.commitment_source
            and bundle_b.prev_digest == digest_a
            and verify_bundle(registry, bundle_a, nonce, own_keys=own_keys, **statement_a)
            and verify_bundle(registry, bundle_b, nonce, expected_prev=digest_a, own_keys=own_keys,
                              **statement_b))
