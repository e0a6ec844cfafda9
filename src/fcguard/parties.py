"""Party state machines and the protocol flows: registration, the three-step
exchange, auditing, and the plaintext baseline used as negative control and
benchmark comparison.

The privacy-preserving mode never lets the platform see an SSN or bank
account number after registration: identity rides in an unlinkable
presentation, the bank account travels encrypted under the bank's key, and
the auditing authority gets an escrowed SSN ciphertext it only opens when a
user fails to self-report.
"""

from __future__ import annotations

import datetime
import random
from dataclasses import dataclass, field

from .credentials import (
    BANK_ATTRIBUTES,
    PLATFORM_ATTRIBUTES,
    Credential,
    CredentialDefinition,
    Schema,
    Wallet,
    create_credential_request,
    holder_finalize_credential,
    issue_credential,
    publish_definition,
)
from .crypto.ciphertext import Ciphertext
from .crypto.cl import ClIssuerKeyPair
from .crypto.elgamal import ElGamalKeyPair, ElGamalPublicKey, elgamal_decrypt
from .crypto.encoding import encode_attribute
from .crypto.paillier import PaillierKeyPair, PaillierPublicKey, paillier_decrypt
from .errors import FcGuardError, ProofRefusedError, ProtocolError
from .ledger import Chain, Registry
from .netsim import Network, SimClock
from .params import Profile
from .presentations import PresentationBundle, ProofSession, bundle_digest, verify_bundle, verify_equality
from .serialize import conforms, serializable

PHASE_REGISTRATION = "registration"
PHASE_EXCHANGE = "exchange"
PHASE_AUDIT = "audit"

ORDER_STATES = ("created", "identity-verified", "bank-verified", "fiat-settled",
                "crypto-sent", "complete", "failed")


@dataclass(frozen=True)
class PiiRecord:
    name: str
    birthday: int  # YYYYMMDD
    ssn: int

    def __post_init__(self) -> None:
        if not 1 <= self.ssn <= 999_999_999:
            raise ProtocolError("SSN must be a 9-digit integer")
        y, m, d = self.birthday // 10000, self.birthday // 100 % 100, self.birthday % 100
        try:
            datetime.date(y, m, d)
        except ValueError as exc:
            raise ProtocolError(f"birthday {self.birthday} is not a valid calendar date") from exc

    def as_payload(self) -> dict:
        return {"birthday": self.birthday, "name": self.name, "ssn": self.ssn}


class ExchangeOrder:
    """Platform-side order state; transitions are logged and must follow the
    declared sequence with no skipping."""

    def __init__(self, order_id: str, asset: str, crypto_amount: int, fiat_due: int,
                 rate: tuple[int, int], nonce: bytes, addresses: tuple[str, ...]):
        self.order_id = order_id
        self.asset = asset
        self.crypto_amount = crypto_amount
        self.fiat_due = fiat_due
        self.rate = rate
        self.nonce = nonce
        self.addresses = addresses
        self.state = "created"
        self.failure_cause: str | None = None
        self.transitions: list[tuple[str, str, int]] = []

    def advance(self, new_state: str, time_ms: int) -> None:
        if self.state in ("complete", "failed"):
            raise ProtocolError(f"order {self.order_id} is terminal")
        expected = ORDER_STATES[ORDER_STATES.index(self.state) + 1]
        if new_state != expected:
            raise ProtocolError(
                f"order {self.order_id}: cannot go {self.state!r} -> {new_state!r}")
        self.transitions.append((self.state, new_state, time_ms))
        self.state = new_state

    def fail(self, cause: str, time_ms: int) -> None:
        if self.state in ("complete", "failed"):
            raise ProtocolError(f"order {self.order_id} is terminal")
        self.transitions.append((self.state, "failed", time_ms))
        self.state = "failed"
        self.failure_cause = cause


@serializable("exchange-record")
@dataclass(frozen=True)
class ExchangeRecord:
    """Audit record handed to the authority: fiat metadata plus the escrowed
    SSN ciphertext; crypto addresses and transfer details are redacted by
    construction (the type has no fields for them)."""

    order_id: str
    fiat_amount: int
    timestamp_ms: int
    enc_ssn: Ciphertext


@dataclass
class PendingTransfer:
    release_ms: int
    seq: int
    pool_address: str
    user_address: str
    amount: int
    order_id: str


class AddressPool:
    """Rotating pool of platform crypto addresses plus the delayed-transfer
    queue. A (pool address, user address) pair must never recur across
    rotation epochs."""

    def __init__(self, size: int, rotation_epoch: int):
        self.size = size
        self.rotation_epoch = rotation_epoch
        self.orders_seen = 0
        self.pairs: dict[tuple[str, str], int] = {}
        self.pending: list[PendingTransfer] = []
        self._seq = 0

    @property
    def epoch(self) -> int:
        return self.orders_seen // self.rotation_epoch if self.rotation_epoch > 0 else 0

    def note_order(self) -> None:
        self.orders_seen += 1

    def addresses(self) -> list[str]:
        return [f"pool:{self.epoch}:{i}" for i in range(self.size)]

    def pick(self, rng: random.Random, user_address: str) -> str:
        pool_address = rng.choice(self.addresses())
        key = (pool_address, user_address)
        known = self.pairs.get(key)
        if known is not None and known != self.epoch:
            raise ProtocolError("address pair reused across rotation epochs")
        self.pairs[key] = self.epoch
        return pool_address

    def enqueue(self, release_ms: int, pool_address: str, user_address: str,
                amount: int, order_id: str) -> None:
        self._seq += 1
        self.pending.append(PendingTransfer(release_ms=release_ms, seq=self._seq,
                                            pool_address=pool_address, user_address=user_address,
                                            amount=amount, order_id=order_id))


@dataclass
class SsaDirectory:
    """Stubbed identity oracle seeded with the registry of valid PII."""

    records: set[tuple[str, int, int]] = field(default_factory=set)

    def seed(self, pii: PiiRecord) -> None:
        self.records.add((pii.name, pii.birthday, pii.ssn))

    def verify(self, name: str, birthday: int, ssn: int) -> bool:
        return (name, birthday, ssn) in self.records


@dataclass
class BankAccount:
    owner_ssn: int
    balance: int  # fiat minor units
    owner_party: str | None = None  # side-channel target for MFA


class Bank:
    def __init__(self, name: str, issuer_keys: ClIssuerKeyPair, enc_keys: PaillierKeyPair,
                 rng: random.Random):
        self.name = name
        self.party_id = "bank:" + name
        self.issuer_keys = issuer_keys
        self.enc_keys = enc_keys
        self.rng = rng
        self.schema_id = f"schema:bank:{name}"
        self.defn_id = f"defn:bank:{name}"
        self.accounts: dict[int, BankAccount] = {}
        self.mfa_pending: dict[str, tuple[str, int]] = {}  # order id -> (code, account)

    @property
    def public_enc_key(self):
        return self.enc_keys.public

    def open_account(self, number: int, owner_ssn: int, balance: int,
                     owner_party: str | None = None) -> None:
        self.accounts[number] = BankAccount(owner_ssn=owner_ssn, balance=balance,
                                            owner_party=owner_party)

    def fiat_total(self) -> int:
        return sum(acct.balance for acct in self.accounts.values())


class Platform:
    def __init__(self, issuer_keys: ClIssuerKeyPair, rng: random.Random,
                 pool_size: int, rotation_epoch: int, bank_account: int):
        self.party_id = "platform"
        self.issuer_keys = issuer_keys
        self.rng = rng
        self.schema_id = "schema:platform"
        self.defn_id = "defn:platform"
        self.bank_account = bank_account
        self.treasury_address = "platform:treasury"
        self.pool = AddressPool(size=pool_size, rotation_epoch=rotation_epoch)
        self.registrations: list[dict] = []  # registration is non-anonymous
        self.orders: dict[str, ExchangeOrder] = {}
        self.pending_enc_ssn: dict[str, Ciphertext] = {}
        self.pending_bundle1: dict[str, tuple[PresentationBundle, dict]] = {}  # order id -> (bundle 1, statement)
        self.order_bank: dict[str, str] = {}  # order id -> bank party id
        self.bank_directory: dict[int, Bank] = {}  # encoded bank name -> bank
        self.baseline_users: dict[str, dict] = {}  # baseline mode identity store
        self._order_counter = 0
        self._user_counter = 0

    def new_order_id(self) -> str:
        self._order_counter += 1
        return f"order-{self._order_counter:04d}"

    def new_user_id(self) -> str:
        self._user_counter += 1
        return f"uid-{self._user_counter:04d}"


class AuditingAuthority:
    def __init__(self, enc_keys: ElGamalKeyPair):
        self.party_id = "authority"
        self.enc_keys = enc_keys
        self.records: list[ExchangeRecord] = []
        self.baseline_records: list[dict] = []
        self.reports: list[dict] = []
        self.decrypt_count = 0

    @property
    def public_enc_key(self):
        return self.enc_keys.public

    def decrypt_ssn(self, ct: Ciphertext) -> int:
        self.decrypt_count += 1
        return elgamal_decrypt(self.enc_keys, ct)


class User:
    def __init__(self, index: int, pii: PiiRecord, bank_account: int, profile: Profile,
                 rng: random.Random, self_report: bool = True):
        self.index = index
        self.party_id = f"user:{index}"
        self.pii = pii
        self.bank_account = bank_account
        self.rng = rng
        self.wallet = Wallet.create(profile, rng)
        self.self_report = self_report
        self.user_id: str | None = None  # baseline identity
        self.mfa_inbox: list[tuple[str, str]] = []  # (order id, code)

    def answer_mfa(self, order_id: str) -> str:
        for oid, code in reversed(self.mfa_inbox):
            if oid == order_id:
                return code
        return ""


class Attacker:
    """Adversary without the user's MFA side channel; replays stolen bundles."""

    party_id = "attacker"

    def answer_mfa(self, order_id: str) -> str:
        return "000000"


@dataclass
class SimContext:
    clock: SimClock
    net: Network
    registry: Registry
    chain: Chain
    profile: Profile
    rng: random.Random
    platform: Platform
    bank: Bank
    ssa: SsaDirectory
    authority: AuditingAuthority
    users: list[User]
    rate: tuple[int, int]  # fiat minor units per crypto minor unit (num, den)
    delay_max_ms: int
    current_date: int  # YYYYMMDD used by age predicates
    platform_defn: CredentialDefinition | None = None
    platform_schema: Schema | None = None
    bank_defn: CredentialDefinition | None = None
    bank_schema: Schema | None = None

    def fiat_quote(self, crypto_amount: int) -> int:
        num, den = self.rate
        return crypto_amount * num // den

    def fiat_total(self) -> int:
        return self.bank.fiat_total()


@dataclass
class ExchangeSession:
    """Holder-side handle across the exchange steps."""

    order_id: str
    nonce: bytes
    session: ProofSession
    bundle1: PresentationBundle | None = None
    bundle2: PresentationBundle | None = None


def ssa_verify(ctx: SimContext, requester_id: str, pii_payload: dict) -> bool:
    ctx.net.send(requester_id, "ssa", "ssa-verify", {"pii": pii_payload}, PHASE_REGISTRATION)
    ok = ctx.ssa.verify(pii_payload.get("name", ""), pii_payload.get("birthday", -1),
                        pii_payload.get("ssn", -1))
    ctx.net.send("ssa", requester_id, "ssa-verify-result", {"ok": ok}, PHASE_REGISTRATION)
    return ok


def publish_issuer_definitions(ctx: SimContext) -> None:
    """Genesis step: both issuers publish schema and credential definition."""
    platform_schema = Schema(schema_id=ctx.platform.schema_id, issuer_role="platform",
                             attribute_names=PLATFORM_ATTRIBUTES)
    _, platform_defn = publish_definition(ctx.registry, ctx.platform.issuer_keys, platform_schema,
                                          ctx.platform.defn_id, ctx.profile)
    bank_schema = Schema(schema_id=ctx.bank.schema_id, issuer_role="bank",
                         attribute_names=BANK_ATTRIBUTES)
    _, bank_defn = publish_definition(ctx.registry, ctx.bank.issuer_keys, bank_schema,
                                      ctx.bank.defn_id, ctx.profile)
    ctx.platform_schema, ctx.platform_defn = platform_schema, platform_defn
    ctx.bank_schema, ctx.bank_defn = bank_schema, bank_defn
    ctx.platform.bank_directory[encode_attribute(ctx.bank.name)] = ctx.bank


def _issue_over_channel(ctx: SimContext, user: User, issuer_id: str,
                        issuer_keys: ClIssuerKeyPair, definition: CredentialDefinition,
                        schema: Schema, attribute_values: dict, issuer_rng: random.Random) -> Credential:
    nonce = issuer_rng.getrandbits(128).to_bytes(16, "big")
    ctx.net.send(issuer_id, user.party_id, "issuance-nonce",
                 {"defn_id": definition.defn_id, "nonce": nonce}, PHASE_REGISTRATION)
    request, v_prime = create_credential_request(user.wallet.link_secret, definition, nonce, user.rng)
    ctx.net.send(user.party_id, issuer_id, "credential-request", {"request": request},
                 PHASE_REGISTRATION)
    credential = issue_credential(issuer_keys, definition, schema, request,
                                  attribute_values, issuer_rng)
    ctx.net.send(issuer_id, user.party_id, "credential", {"credential": credential},
                 PHASE_REGISTRATION)
    finalized = holder_finalize_credential(definition, schema, credential,
                                           user.wallet.link_secret, v_prime, nonce)
    user.wallet.store(finalized)
    return finalized


def register_user(ctx: SimContext, user: User) -> Credential:
    """Non-anonymous registration: PII to the platform, SSA check, then
    blinded credential issuance of the platform credential."""
    ctx.net.send(user.party_id, "platform", "register-request",
                 {"pii": user.pii.as_payload()}, PHASE_REGISTRATION)
    if not ssa_verify(ctx, "platform", user.pii.as_payload()):
        ctx.net.send("platform", user.party_id, "register-rejected", {"ok": False},
                     PHASE_REGISTRATION)
        raise ProtocolError("registration failed: SSA rejected the PII")
    ctx.platform.registrations.append({"pii": user.pii.as_payload(),
                                       "time_ms": ctx.clock.now_ms})
    values = {"name": user.pii.name, "birthday": user.pii.birthday, "ssn": user.pii.ssn}
    return _issue_over_channel(ctx, user, "platform", ctx.platform.issuer_keys,
                               ctx.platform_defn, ctx.platform_schema, values, ctx.platform.rng)


def bank_preissue(ctx: SimContext, user: User) -> Credential:
    """The bank pre-issues its customer credential over the same blinded flow."""
    values = {"bank_name": ctx.bank.name, "bank_account": user.bank_account,
              "ssn": user.pii.ssn}
    return _issue_over_channel(ctx, user, ctx.bank.party_id, ctx.bank.issuer_keys,
                               ctx.bank_defn, ctx.bank_schema, values, ctx.bank.rng)


@dataclass(frozen=True)
class OrderParams:
    asset: str
    crypto_amount: int
    addresses: tuple[str, ...]
    age_threshold_years: int | None = None  # platform-side requirement, if any


def open_order(ctx: SimContext, requester_id: str, params: OrderParams) -> ExchangeOrder:
    """Exchange request and quote; the platform issues the order id and the
    presentation nonce that binds the whole session."""
    ctx.net.send(requester_id, "platform", "exchange-request",
                 {"addresses": list(params.addresses), "amount": params.crypto_amount,
                  "asset": params.asset}, PHASE_EXCHANGE)
    platform = ctx.platform
    order = ExchangeOrder(
        order_id=platform.new_order_id(), asset=params.asset,
        crypto_amount=params.crypto_amount, fiat_due=ctx.fiat_quote(params.crypto_amount),
        rate=ctx.rate, nonce=platform.rng.getrandbits(128).to_bytes(16, "big"),
        addresses=params.addresses)
    platform.orders[order.order_id] = order
    platform.pool.note_order()
    ctx.net.send("platform", requester_id, "order-quote",
                 {"age_threshold_years": params.age_threshold_years,
                  "fiat_due": order.fiat_due, "nonce": order.nonce,
                  "order_id": order.order_id, "rate": list(ctx.rate)}, PHASE_EXCHANGE)
    return order


def _age_threshold(current_date: int, years: int) -> int:
    return current_date - years * 10000


def identity_statement(platform_defn_id: str, authority_key: ElGamalPublicKey,
                       age_threshold: int | None = None) -> dict:
    """What step 1 asks of bundle 1, as the keywords of `build_bundle` and
    `verify_bundle`: a presentation under the platform's definition that
    discloses nothing, links the SSN into the session commitment, encrypts
    it to the authority and, when the platform asks for an age, shows the
    birthday is at most `age_threshold`."""
    return {"defn_id": platform_defn_id, "commitment_source": platform_defn_id, "disclose": (),
            "link": ("ssn",), "encrypt": (("ssn", authority_key),),
            "predicates": () if age_threshold is None else (("birthday", age_threshold),)}


def bank_statement(platform_defn_id: str, bank_defn_id: str, bank_key: PaillierPublicKey) -> dict:
    """What step 2 asks of bundle 2: a presentation under the bank's
    definition that discloses only the bank's name, links the SSN into the
    commitment of bundle 1 and encrypts the account number to the bank."""
    return {"defn_id": bank_defn_id, "commitment_source": platform_defn_id, "disclose": ("bank_name",),
            "link": ("ssn",), "encrypt": (("bank_account", bank_key),), "predicates": ()}


def _reject(ctx: SimContext, order: ExchangeOrder, sender: str, receiver: str,
            mtype: str, cause: str) -> None:
    """Tell the counterpart why the order stops, and fail it for that cause."""
    ctx.net.send(sender, receiver, mtype, {"cause": cause, "order_id": order.order_id},
                 PHASE_EXCHANGE)
    order.fail(cause, ctx.clock.now_ms)


def exchange_step1_identity(ctx: SimContext, user: User, params: OrderParams,
                            actor=None, credential_defn_id: str | None = None,
                            ) -> tuple[ExchangeOrder, ExchangeSession]:
    """Identity verification: the platform asks for `identity_statement`,
    with the age threshold the order quote names, and the user rebuilds it
    from the quote and presents its platform credential to prove it. With
    `credential_defn_id` the user presents that credential instead. The
    platform verifies the bundle against its own statement, so a bundle
    under another definition, or with any arm more, fewer or different, is
    refused before any proof work."""
    actor = actor or user
    order = open_order(ctx, actor.party_id, params)
    threshold = None if params.age_threshold_years is None \
        else _age_threshold(ctx.current_date, params.age_threshold_years)
    statement = identity_statement(ctx.platform_defn.defn_id, ctx.authority.public_enc_key, threshold)
    # the holder's copy, rebuilt from the quote; under another credential when told to present one
    held = {**statement, "defn_id": credential_defn_id or statement["defn_id"]}
    session = ProofSession(ctx.registry, order.nonce, user.rng, commitment_source=statement["commitment_source"])
    handle = ExchangeSession(order_id=order.order_id, nonce=order.nonce, session=session)
    try:
        bundle1 = session.build_bundle(user.wallet.get(held["defn_id"]), user.wallet.link_secret, **held)
    except FcGuardError:
        _reject(ctx, order, actor.party_id, "platform", "step1-abort", "identity")
        return order, handle
    handle.bundle1 = bundle1
    ctx.net.send(actor.party_id, "platform", "step1-bundle",
                 {"bundle": bundle1, "order_id": order.order_id}, PHASE_EXCHANGE)

    if not verify_bundle(ctx.registry, bundle1, order.nonce, expected_prev=b"",
                         own_keys=(ctx.platform.issuer_keys,), **statement):
        _reject(ctx, order, "platform", actor.party_id, "step1-rejected", "identity")
        return order, handle
    (enc,) = bundle1.enc_proofs
    ctx.platform.pending_enc_ssn[order.order_id] = enc.ciphertext
    ctx.platform.pending_bundle1[order.order_id] = (bundle1, statement)
    order.advance("identity-verified", ctx.clock.now_ms)
    ctx.net.send("platform", actor.party_id, "step1-accepted",
                 {"order_id": order.order_id}, PHASE_EXCHANGE)
    return order, handle


def exchange_step2_bank(ctx: SimContext, user: User, order: ExchangeOrder,
                        handle: ExchangeSession, actor=None) -> None:
    """Bank account verification: the user proves `bank_statement` for its
    bank over its bank credential, chained onto bundle 1. The platform looks
    the bank up by the disclosed name, verifies bundle 2 against that bank's
    statement and the SSN equality against step 1, and forwards it; the
    bank verifies it against the same statement, decrypts the account
    number and runs MFA."""
    actor = actor or user
    if order.state != "identity-verified":
        raise ProtocolError("step 2 requires an identity-verified order")
    bundle1, statement1 = ctx.platform.pending_bundle1.pop(order.order_id)
    source = ctx.platform_defn.defn_id
    held = bank_statement(source, ctx.bank.defn_id, ctx.bank.public_enc_key)
    try:
        bundle2 = handle.session.build_bundle(user.wallet.get(held["defn_id"]), user.wallet.link_secret, **held)
    except FcGuardError as exc:
        # the prover's own credentials disagree, or it holds no bank credential:
        # abort before anything is sent
        cause = "equality" if isinstance(exc, ProofRefusedError) else "bank-presentation"
        _reject(ctx, order, actor.party_id, "platform", "step2-abort", cause)
        return
    handle.bundle2 = bundle2
    ctx.net.send(actor.party_id, "platform", "step2-bundle",
                 {"bundle": bundle2, "order_id": order.order_id}, PHASE_EXCHANGE)

    platform = ctx.platform
    bank = platform.bank_directory.get(bundle2.presentation.disclosed.get("bank_name")) \
        if conforms(bundle2, PresentationBundle) else None
    statement = bank_statement(source, bank.defn_id, bank.public_enc_key) if bank is not None else None
    # the platform's n is also the link-commitment modulus
    own = (platform.issuer_keys,)
    if statement is None or not verify_bundle(ctx.registry, bundle2, order.nonce, own_keys=own,
                                              expected_prev=bundle_digest(bundle1), **statement):
        _reject(ctx, order, "platform", actor.party_id, "step2-rejected", "bank-presentation")
        return
    if not verify_equality(ctx.registry, bundle1, bundle2, "ssn", order.nonce, statement1, statement, own_keys=own):
        _reject(ctx, order, "platform", actor.party_id, "step2-rejected", "equality")
        return
    platform.order_bank[order.order_id] = bank.party_id
    (enc,) = bundle2.enc_proofs

    # M_pb: platform account, the bank presentation, and the account ciphertext
    ctx.net.send("platform", bank.party_id, "fiat-request",
                 {"amount": order.fiat_due, "bundle": bundle2,
                  "ciphertext": enc.ciphertext, "order_id": order.order_id,
                  "platform_account": platform.bank_account}, PHASE_EXCHANGE)

    verified = verify_bundle(ctx.registry, bundle2, order.nonce, own_keys=(bank.issuer_keys, bank.enc_keys),
                             **statement)
    account_number = paillier_decrypt(bank.enc_keys, enc.ciphertext) if verified else None
    account = bank.accounts.get(account_number)
    if account is None:
        _reject(ctx, order, bank.party_id, "platform", "fiat-rejected", "bank-verify")
        return

    # MFA over the user side channel tied to the account owner
    code = f"{bank.rng.randrange(10**6):06d}"
    bank.mfa_pending[order.order_id] = (code, account_number)
    ctx.net.send(bank.party_id, account.owner_party or "unknown", "mfa-code",
                 {"code": code, "order_id": order.order_id}, PHASE_EXCHANGE)
    if account.owner_party == user.party_id:
        user.mfa_inbox.append((order.order_id, code))  # only the real owner gets the code
    answer = actor.answer_mfa(order.order_id)
    ctx.net.send(actor.party_id, bank.party_id, "mfa-answer",
                 {"answer": answer, "order_id": order.order_id}, PHASE_EXCHANGE)
    if answer != code:
        del bank.mfa_pending[order.order_id]
        _reject(ctx, order, bank.party_id, "platform", "fiat-rejected", "mfa")
        return
    ctx.net.send(bank.party_id, "platform", "bank-user-verified",
                 {"order_id": order.order_id}, PHASE_EXCHANGE)
    order.advance("bank-verified", ctx.clock.now_ms)


def exchange_step3_transfer(ctx: SimContext, user: User, order: ExchangeOrder,
                            actor=None) -> None:
    """Fiat settlement and the delayed, pool-routed crypto transfers."""
    actor = actor or user
    if order.state != "bank-verified":
        raise ProtocolError("step 3 requires a bank-verified order")
    bank = ctx.bank
    platform = ctx.platform
    code_entry = bank.mfa_pending.pop(order.order_id, None)
    if code_entry is None:
        raise ProtocolError("no verified bank session for this order")
    _, account_number = code_entry
    account = bank.accounts[account_number]
    if account.balance < order.fiat_due:
        _reject(ctx, order, bank.party_id, "platform", "fiat-rejected", "funds")
        return
    account.balance -= order.fiat_due
    bank.accounts[platform.bank_account].balance += order.fiat_due
    receipt = {"amount": order.fiat_due, "order_id": order.order_id, "status": "settled"}
    ctx.net.send(bank.party_id, "platform", "receipt", receipt, PHASE_EXCHANGE)
    ctx.net.send(bank.party_id, account.owner_party or actor.party_id, "receipt",
                 receipt, PHASE_EXCHANGE)
    order.advance("fiat-settled", ctx.clock.now_ms)

    # split the crypto amount across the user's addresses with random delays
    parts = _split_amount(order.crypto_amount, len(order.addresses), platform.rng)
    for user_address, part in zip(order.addresses, parts):
        if part == 0:
            continue
        pool_address = platform.pool.pick(platform.rng, user_address)
        delay = platform.rng.randrange(0, ctx.delay_max_ms + 1)
        platform.pool.enqueue(ctx.clock.now_ms + delay, pool_address, user_address,
                              part, order.order_id)


def _split_amount(amount: int, parts: int, rng: random.Random) -> list[int]:
    """Random composition of `amount` into `parts` non-negative integers
    summing exactly to amount: the gaps between `parts - 1` independent
    uniform cuts in [0, amount], sorted. It is not uniform over compositions;
    for amount 2 and 3 parts, (0, 1, 1) comes with probability 2/9 and
    (0, 0, 2) with 1/9."""
    if parts <= 1:
        return [amount]
    cuts = sorted(rng.randrange(0, amount + 1) for _ in range(parts - 1))
    bounds = [0] + cuts + [amount]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


def drain_transfers(ctx: SimContext, notify=None) -> None:
    """Advance the clock through the pending-transfer queue, executing each
    release on the chain; orders whose parts all landed become crypto-sent,
    then complete after the completion notification round-trip."""
    platform = ctx.platform
    pending = sorted(platform.pool.pending, key=lambda p: (p.release_ms, p.seq))
    platform.pool.pending = []
    released_orders = []
    for item in pending:
        ctx.clock.advance_to(item.release_ms)
        ctx.chain.submit(platform.treasury_address, item.pool_address, item.amount,
                         ctx.clock.now_ms)
        ctx.chain.submit(item.pool_address, item.user_address, item.amount, ctx.clock.now_ms)
        if item.order_id not in released_orders:
            released_orders.append(item.order_id)
    for order_id in released_orders:
        order = platform.orders[order_id]
        if order.state != "fiat-settled":
            continue
        order.advance("crypto-sent", ctx.clock.now_ms)
        counterpart = (notify or {}).get(order_id)
        target = counterpart.party_id if counterpart is not None else "user:unknown"
        ctx.net.send("platform", target, "order-complete",
                     {"order_id": order_id}, PHASE_EXCHANGE)
        ctx.net.send(target, "platform", "order-complete-ack",
                     {"order_id": order_id}, PHASE_EXCHANGE)
        order.advance("complete", ctx.clock.now_ms)


def platform_report(ctx: SimContext, order: ExchangeOrder) -> ExchangeRecord:
    if order.state not in ("fiat-settled", "crypto-sent", "complete"):
        raise ProtocolError("audit record requires a settled order")
    record = ExchangeRecord(order_id=order.order_id, fiat_amount=order.fiat_due,
                            timestamp_ms=ctx.clock.now_ms,
                            enc_ssn=ctx.platform.pending_enc_ssn[order.order_id])
    ctx.net.send("platform", "authority", "exchange-record", {"record": record}, PHASE_AUDIT)
    ctx.authority.records.append(record)
    return record


def user_self_report(ctx: SimContext, user: User, order: ExchangeOrder) -> None:
    report = {"fiat_amount": order.fiat_due, "order_id": order.order_id}
    ctx.net.send(user.party_id, "authority", "self-report", report, PHASE_AUDIT)
    ctx.authority.reports.append(report)


def audit(ctx: SimContext) -> dict[str, tuple[str, int | None]]:
    """Per-record outcome: matched self-reports stay encrypted; unmatched
    records get decrypted and de-anonymized."""
    authority = ctx.authority
    reported = {(r["order_id"], r["fiat_amount"]) for r in authority.reports}
    outcomes: dict[str, tuple[str, int | None]] = {}
    for record in authority.records:
        if (record.order_id, record.fiat_amount) in reported:
            outcomes[record.order_id] = ("compliant", None)
        else:
            outcomes[record.order_id] = ("deanonymized", authority.decrypt_ssn(record.enc_ssn))
    return outcomes


# ---------------------------------------------------------------------------
# plaintext baseline mode


def baseline_register(ctx: SimContext, user: User) -> str:
    ctx.net.send(user.party_id, "platform", "register-request",
                 {"pii": user.pii.as_payload()}, PHASE_REGISTRATION)
    if not ssa_verify(ctx, "platform", user.pii.as_payload()):
        raise ProtocolError("registration failed: SSA rejected the PII")
    user_id = ctx.platform.new_user_id()
    ctx.platform.baseline_users[user_id] = {"pii": user.pii.as_payload(),
                                            "bank_account": None, "addresses": []}
    ctx.net.send("platform", user.party_id, "user-id", {"user_id": user_id},
                 PHASE_REGISTRATION)
    user.user_id = user_id
    return user_id


def baseline_identity(ctx: SimContext, user: User, order: ExchangeOrder,
                      params: OrderParams) -> None:
    """Plaintext identity check: user id lookup, account and addresses stored."""
    ctx.net.send(user.party_id, "platform", "baseline-identity",
                 {"bank_account": user.bank_account, "order_id": order.order_id,
                  "user_id": user.user_id}, PHASE_EXCHANGE)
    store = ctx.platform.baseline_users.get(user.user_id or "")
    if store is None:
        _reject(ctx, order, "platform", user.party_id, "baseline-identity-rejected", "identity")
        return
    store["bank_account"] = user.bank_account
    store["addresses"] = list(params.addresses)
    order.advance("identity-verified", ctx.clock.now_ms)


def baseline_bank(ctx: SimContext, user: User, order: ExchangeOrder) -> None:
    """Plaintext bank interaction: the account number travels in the clear."""
    ctx.net.send("platform", ctx.bank.party_id, "fiat-request",
                 {"amount": order.fiat_due, "order_id": order.order_id,
                  "platform_account": ctx.platform.bank_account,
                  "user_account": user.bank_account}, PHASE_EXCHANGE)
    if ctx.bank.accounts.get(user.bank_account) is None:
        _reject(ctx, order, ctx.bank.party_id, "platform", "fiat-rejected", "bank-verify")
        return
    order.advance("bank-verified", ctx.clock.now_ms)


def baseline_settle(ctx: SimContext, user: User, order: ExchangeOrder) -> None:
    bank = ctx.bank
    account = bank.accounts[user.bank_account]
    if account.balance < order.fiat_due:
        _reject(ctx, order, bank.party_id, "platform", "fiat-rejected", "funds")
        return
    account.balance -= order.fiat_due
    bank.accounts[ctx.platform.bank_account].balance += order.fiat_due
    receipt = {"amount": order.fiat_due, "order_id": order.order_id, "status": "settled"}
    ctx.net.send(bank.party_id, "platform", "receipt", receipt, PHASE_EXCHANGE)
    ctx.net.send(bank.party_id, user.party_id, "receipt", receipt, PHASE_EXCHANGE)
    order.advance("fiat-settled", ctx.clock.now_ms)


def baseline_crypto(ctx: SimContext, user: User, order: ExchangeOrder,
                    params: OrderParams) -> None:
    """Single direct transfer from the platform treasury; no pool, no delays."""
    ctx.chain.submit(ctx.platform.treasury_address, params.addresses[0],
                     order.crypto_amount, ctx.clock.now_ms)
    order.advance("crypto-sent", ctx.clock.now_ms)
    ctx.net.send("platform", user.party_id, "order-complete",
                 {"order_id": order.order_id}, PHASE_EXCHANGE)
    ctx.net.send(user.party_id, "platform", "order-complete-ack",
                 {"order_id": order.order_id}, PHASE_EXCHANGE)
    order.advance("complete", ctx.clock.now_ms)


def baseline_report(ctx: SimContext, user: User, order: ExchangeOrder) -> None:
    record = {"fiat_amount": order.fiat_due, "order_id": order.order_id,
              "ssn": user.pii.ssn, "timestamp_ms": ctx.clock.now_ms}
    ctx.net.send("platform", "authority", "exchange-record", {"record": record}, PHASE_AUDIT)
    ctx.authority.baseline_records.append(record)
