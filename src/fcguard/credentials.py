"""Schema and credential-definition lifecycle, blinded link-secret issuance,
and the holder-side wallet.

Issuance follows the blinded-request flow: the holder commits to its link
secret under the issuer's bases, proves knowledge of the opening, and the
issuer signs the commitment into the reserved slot without ever seeing the
secret. The holder then completes the blinding exponent and verifies both
the signature and the issuer's correctness proof before storing anything.

Both proofs run on the `crypto.sigma` engine: the request's opening proof
(`prove_opening`), and the issuer's proof the holder checks with
`cl.check_issued_signature`.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path

from .crypto.cl import (
    ClIssuerKeyPair,
    ClPublicKey,
    ClSignature,
    SignatureProof,
    check_issued_signature,
    sign_with_proof,
)
from .crypto.commitment import OpeningProof, prove_opening, verify_opening
from .crypto.encoding import encode_attribute
from .errors import SchemaMismatchError, VerificationError, WalletError
from .ledger import Registry
from .params import Profile, get_profile
from .serialize import conforms, dumps, loads, serializable

# Slot 0 of every credential holds the blinded link secret.
LINK_SLOT = 0

PLATFORM_ATTRIBUTES = ("name", "birthday", "ssn")
BANK_ATTRIBUTES = ("bank_name", "bank_account", "ssn")

_ROLE_ATTRIBUTES = {"platform": PLATFORM_ATTRIBUTES, "bank": BANK_ATTRIBUTES}


@serializable("schema")
@dataclass(frozen=True)
class Schema:
    schema_id: str
    issuer_role: str  # "platform" | "bank"
    attribute_names: tuple[str, ...]

    def __post_init__(self) -> None:
        expected = _ROLE_ATTRIBUTES.get(self.issuer_role)
        if expected is None:
            raise SchemaMismatchError(f"unknown issuer role {self.issuer_role!r}")
        if self.attribute_names != expected:
            raise SchemaMismatchError(
                f"{self.issuer_role} schema attributes must be exactly {list(expected)}")


@serializable("credential-definition")
@dataclass(frozen=True)
class CredentialDefinition:
    defn_id: str
    schema_id: str
    public_key: ClPublicKey
    profile_name: str

    @property
    def slot_count(self) -> int:
        return self.public_key.slot_count

    def profile(self) -> Profile:
        return get_profile(self.profile_name)


@dataclass(frozen=True)
class LinkSecret:
    """Holder-local secret binding all of a holder's credentials together.
    It must never leave the holder except inside a commitment."""

    value: int

    @classmethod
    def generate(cls, profile: Profile, rng: random.Random) -> "LinkSecret":
        return cls(value=rng.getrandbits(profile.attr_bits - 1) | 1)


@serializable("credential-request")
@dataclass(frozen=True)
class CredentialRequest:
    defn_id: str
    nonce: bytes
    blinded: int  # S^v' * R_0^(link secret) mod n
    proof: OpeningProof

    def to_fields(self) -> dict:
        return {
            "blinded": self.blinded,
            "challenge": self.proof.challenge,
            "defn_id": self.defn_id,
            "nonce": self.nonce,
            "s_m": self.proof.s_m,
            "s_r": self.proof.s_r,
        }

    @classmethod
    def from_fields(cls, fields: dict) -> "CredentialRequest":
        return cls(defn_id=fields["defn_id"], nonce=fields["nonce"], blinded=fields["blinded"],
                   proof=OpeningProof(challenge=fields["challenge"], s_m=fields["s_m"], s_r=fields["s_r"]))


@serializable("credential")
@dataclass(frozen=True)
class Credential:
    defn_id: str
    attributes: dict[str, int]  # schema attribute name -> encoded integer
    signature: ClSignature
    signature_proof: SignatureProof


SCHEMA_KIND = "schema"
DEFINITION_KIND = "credential-definition"


def publish_definition(registry: Registry, issuer_keys: ClIssuerKeyPair, schema: Schema,
                       defn_id: str, profile: Profile) -> tuple[Schema, CredentialDefinition]:
    if issuer_keys.public.slot_count != len(schema.attribute_names) + 1:
        raise SchemaMismatchError("issuer key must have one slot per attribute plus the link slot")
    definition = CredentialDefinition(defn_id=defn_id, schema_id=schema.schema_id,
                                      public_key=issuer_keys.public, profile_name=profile.name)
    registry.put(schema.schema_id, SCHEMA_KIND, dumps(schema))
    registry.put(defn_id, DEFINITION_KIND, dumps(definition))
    return schema, definition


def fetch_schema(registry: Registry, schema_id: str) -> Schema:
    return loads(registry.get(schema_id, SCHEMA_KIND).payload)


def fetch_definition(registry: Registry, defn_id: str) -> CredentialDefinition:
    return loads(registry.get(defn_id, DEFINITION_KIND).payload)


def create_credential_request(link_secret: LinkSecret, definition: CredentialDefinition,
                              nonce: bytes, rng: random.Random) -> tuple[CredentialRequest, int]:
    """Blind the link secret under the definition's bases. Returns the request
    and the holder's private blinding share v', which completes the signature
    once the credential arrives."""
    profile = definition.profile()
    pk = definition.public_key
    v_prime = rng.getrandbits(pk.n.bit_length() + profile.stat_bits)
    blinded, proof = prove_opening(
        pk.n, pk.r_bases[LINK_SLOT], pk.s, link_secret.value, v_prime,
        label="credential-request", nonce=nonce + definition.defn_id.encode(),
        profile=profile, rng=rng)
    return CredentialRequest(defn_id=definition.defn_id, nonce=nonce, blinded=blinded, proof=proof), v_prime


def verify_credential_request(definition: CredentialDefinition, request: CredentialRequest,
                              issuer_keys: ClIssuerKeyPair | None = None) -> bool:
    """The request's opening proof; the issuer, passing its own key pair,
    evaluates it mod p and mod q. False for a request that does not conform
    to CredentialRequest."""
    if not conforms(request, CredentialRequest):
        return False
    pk = definition.public_key
    return verify_opening(
        pk.n, pk.r_bases[LINK_SLOT], pk.s, request.blinded, request.proof,
        label="credential-request", nonce=request.nonce + definition.defn_id.encode(),
        profile=definition.profile(), crt=issuer_keys.crt if issuer_keys is not None else None,
    )


def issue_credential(issuer_keys: ClIssuerKeyPair, definition: CredentialDefinition, schema: Schema,
                     request: CredentialRequest, attribute_values: dict[str, str | int],
                     rng: random.Random) -> Credential:
    if request.defn_id != definition.defn_id:
        raise VerificationError("request targets a different credential definition")
    if not verify_credential_request(definition, request, issuer_keys):
        raise VerificationError("invalid credential request proof")
    if set(attribute_values) != set(schema.attribute_names):
        raise SchemaMismatchError(
            f"attributes must be exactly {list(schema.attribute_names)}, got {sorted(attribute_values)}")
    encoded = {name: encode_attribute(attribute_values[name]) for name in schema.attribute_names}
    ordered = [encoded[name] for name in schema.attribute_names]
    signature, proof = sign_with_proof(
        issuer_keys, ordered, definition.profile(), rng,
        nonce=request.nonce, hidden_commitment=request.blinded,
    )
    return Credential(defn_id=definition.defn_id, attributes=encoded,
                      signature=signature, signature_proof=proof)


def holder_finalize_credential(definition: CredentialDefinition, schema: Schema,
                               credential: Credential, link_secret: LinkSecret,
                               v_prime: int, request_nonce: bytes) -> Credential:
    """Complete the blinding exponent and verify signature plus issuer proof
    (`check_issued_signature`). Raises VerificationError on any failure, a
    credential that does not conform to Credential or whose attribute names
    are not the schema's among them; the credential is not stored."""
    if not conforms(credential, Credential):
        raise VerificationError("credential malformed")
    if credential.attributes.keys() != set(schema.attribute_names):
        raise VerificationError("credential attributes are not the schema's")
    sig = credential.signature
    full = ClSignature(a=sig.a, e=sig.e, v=sig.v + v_prime)
    slots = [link_secret.value] + [credential.attributes[name] for name in schema.attribute_names]
    check_issued_signature(definition.public_key, slots, full, credential.signature_proof,
                           request_nonce, definition.profile())
    return Credential(defn_id=credential.defn_id, attributes=dict(credential.attributes),
                      signature=full, signature_proof=credential.signature_proof)


class Wallet:
    """Single-holder credential store: one link secret, credentials keyed by
    definition id. Persistence is an encrypted-at-rest canonical envelope."""

    def __init__(self, link_secret: LinkSecret):
        self.link_secret = link_secret
        self._credentials: dict[str, Credential] = {}

    @classmethod
    def create(cls, profile: Profile, rng: random.Random) -> "Wallet":
        return cls(LinkSecret.generate(profile, rng))

    def store(self, credential: Credential) -> None:
        self._credentials[credential.defn_id] = credential

    def get(self, defn_id: str) -> Credential:
        try:
            return self._credentials[defn_id]
        except KeyError:
            raise WalletError(f"no credential for definition {defn_id!r}") from None

    def __contains__(self, defn_id: str) -> bool:
        return defn_id in self._credentials

    def __len__(self) -> int:
        return len(self._credentials)

    def credentials(self) -> list[Credential]:
        return list(self._credentials.values())

    def save(self, path: str | Path, passphrase: str) -> None:
        payload = dumps({
            "credentials": [self._credentials[k] for k in sorted(self._credentials)],
            "link_secret": self.link_secret.value,
        })
        Path(path).write_bytes(_seal(passphrase, payload))

    @classmethod
    def load(cls, path: str | Path, passphrase: str) -> "Wallet":
        payload = loads(_unseal(passphrase, Path(path).read_bytes()))
        wallet = cls(LinkSecret(value=payload["link_secret"]))
        for cred in payload["credentials"]:
            wallet.store(cred)
        return wallet


def _derive_keys(passphrase: str, salt: bytes) -> tuple[bytes, bytes]:
    key = hashlib.scrypt(passphrase.encode("utf-8"), salt=salt, n=1 << 14, r=8, p=1, dklen=64)
    return key[:32], key[32:]


def _keystream(key: bytes, length: int) -> bytes:
    out = bytearray()
    counter = 0
    while len(out) < length:
        out += hashlib.sha256(key + counter.to_bytes(8, "big")).digest()
        counter += 1
    return bytes(out[:length])


def _seal(passphrase: str, data: bytes) -> bytes:
    salt = os.urandom(16)
    enc_key, mac_key = _derive_keys(passphrase, salt)
    ct = bytes(a ^ b for a, b in zip(data, _keystream(enc_key, len(data))))
    tag = hmac.new(mac_key, salt + ct, hashlib.sha256).hexdigest()
    return json.dumps({"ct": ct.hex(), "salt": salt.hex(), "tag": tag}, sort_keys=True).encode()


def _unseal(passphrase: str, blob: bytes) -> bytes:
    try:
        obj = json.loads(blob)
        salt, ct, tag = bytes.fromhex(obj["salt"]), bytes.fromhex(obj["ct"]), obj["tag"]
    except (ValueError, KeyError, TypeError) as exc:
        raise WalletError("wallet file corrupt") from exc
    enc_key, mac_key = _derive_keys(passphrase, salt)
    expected = hmac.new(mac_key, salt + ct, hashlib.sha256).hexdigest()
    if not hmac.compare_digest(tag, expected):
        raise WalletError("wallet passphrase wrong or file tampered")
    return bytes(a ^ b for a, b in zip(ct, _keystream(enc_key, len(ct))))
