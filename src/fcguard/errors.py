"""Exception types shared across the package."""


class FcGuardError(Exception):
    """Base class for all library errors."""


class ParameterError(FcGuardError):
    """Unknown profile or structurally invalid parameters."""


class PrimeGenerationError(FcGuardError):
    """Prime search exhausted its iteration budget (RNG or profile misconfiguration)."""


class EncodingRangeError(FcGuardError):
    """Integer exceeds the attribute or plaintext bound."""


class DecryptionError(FcGuardError):
    """Ciphertext could not be decrypted; for exponential ElGamal this means the
    plaintext fell outside the discrete-log bound and signals protocol misuse."""


class ProofRefusedError(FcGuardError):
    """Prover-side refusal: the statement is false for the prover's own witnesses."""


class SchemaMismatchError(FcGuardError):
    """Attribute values do not conform to the credential schema."""


class VerificationError(FcGuardError):
    """A proof or credential failed verification in a context that must abort."""


class RegistryError(FcGuardError):
    """Duplicate id on publish, or unknown id on lookup."""


class LedgerError(FcGuardError):
    """Rejected chain transaction (non-positive amount or insufficient balance)."""


class ProtocolError(FcGuardError):
    """Party state machine misuse, such as an out-of-order exchange step."""


class WalletError(FcGuardError):
    """Wallet file corrupt or passphrase wrong."""


class ScenarioError(FcGuardError):
    """Malformed scenario file."""


class WireError(FcGuardError):
    """Envelope bytes that do not decode to a well-typed value: invalid JSON,
    an unknown tag, a missing or extra field, or a field of the wrong type."""
