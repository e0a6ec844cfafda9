"""Privacy-preserving fiat-to-cryptocurrency exchange: anonymous-credential
issuance, unlinkable presentations with selective disclosure, verifiable
encryption toward designated parties, a deterministic five-party exchange
simulator with lawful de-anonymization auditing, and a plaintext baseline
with a benchmark harness."""

from .credentials import (
    BANK_ATTRIBUTES,
    PLATFORM_ATTRIBUTES,
    Credential,
    CredentialDefinition,
    CredentialRequest,
    LinkSecret,
    Schema,
    Wallet,
    create_credential_request,
    holder_finalize_credential,
    issue_credential,
    publish_definition,
)
from .crypto import (
    Ciphertext,
    ClIssuerKeyPair,
    ClPublicKey,
    ClSignature,
    CommitmentKey,
    ElGamalKeyPair,
    PaillierKeyPair,
    Transcript,
    cl_keygen,
    cl_sign,
    cl_verify,
    commit,
    encode_attribute,
    open_verify,
    transcript_challenge,
)
from .errors import FcGuardError
from .ledger import Chain, Registry
from .params import PAPER, TOY, Profile, get_profile
from .presentations import (
    Presentation,
    PresentationBundle,
    ProofSession,
    create_presentation,
    verify_bundle,
    verify_equality,
)
from .scenario import load_scenario, random_scenario, run_scenario

__version__ = "0.1.0"

__all__ = [
    "BANK_ATTRIBUTES",
    "PLATFORM_ATTRIBUTES",
    "Chain",
    "Ciphertext",
    "ClIssuerKeyPair",
    "ClPublicKey",
    "ClSignature",
    "CommitmentKey",
    "Credential",
    "CredentialDefinition",
    "CredentialRequest",
    "ElGamalKeyPair",
    "FcGuardError",
    "LinkSecret",
    "PAPER",
    "PaillierKeyPair",
    "Presentation",
    "PresentationBundle",
    "Profile",
    "ProofSession",
    "Registry",
    "Schema",
    "TOY",
    "Transcript",
    "Wallet",
    "cl_keygen",
    "cl_sign",
    "cl_verify",
    "commit",
    "create_credential_request",
    "create_presentation",
    "encode_attribute",
    "get_profile",
    "holder_finalize_credential",
    "issue_credential",
    "load_scenario",
    "open_verify",
    "publish_definition",
    "random_scenario",
    "run_scenario",
    "transcript_challenge",
    "verify_bundle",
    "verify_equality",
]
