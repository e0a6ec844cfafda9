"""Scenario files and the simulation runner.

A scenario is a plain JSON document: party roster with seeded PII and bank
balances, the order list with adversary and self-report toggles, the RNG
seed, and the named assertions to evaluate after the run. Identical
(scenario, seed) inputs produce byte-identical event logs.
"""

from __future__ import annotations

import copy
import datetime
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from .crypto.elgamal import elgamal_keygen
from .crypto.encoding import ATTRIBUTE_BOUND
from .errors import ProtocolError, ScenarioError
from .keycache import bank_paillier_keys, fill_missing, issuer_keys
from .ledger import Chain, Registry
from .netsim import Network, SimClock
from .params import PROFILES, get_profile
from .parties import (
    Attacker,
    AuditingAuthority,
    Bank,
    ExchangeOrder,
    OrderParams,
    PiiRecord,
    Platform,
    SimContext,
    SsaDirectory,
    User,
    audit,
    bank_preissue,
    baseline_bank,
    baseline_crypto,
    baseline_identity,
    baseline_register,
    baseline_report,
    baseline_settle,
    drain_transfers,
    exchange_step1_identity,
    exchange_step2_bank,
    exchange_step3_transfer,
    open_order,
    platform_report,
    publish_issuer_definitions,
    register_user,
    user_self_report,
)
from .serialize import canonical_int_hex

PLATFORM_BANK_ACCOUNT = 999_000_001

# The protocol phases of the paper's evaluation, as `ScenarioResult.step_s`
# keys them.
PHASES = ("registration", "identity_verification", "bank_interaction",
          "bank_transfer", "crypto_transfer", "audit")


def load_scenario(path: str | Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # a directory, an unreadable or non-UTF-8 file
        raise ScenarioError(f"{path}: cannot read scenario file: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ScenarioError(f"{path}: scenario must be a JSON object")
    return cfg


# ---------------------------------------------------------------------------
# the scenario format: per level, key -> (check, default or REQUIRED, what the
# check requires). README's schema table is read off these tables.

REQUIRED = object()


def _int_in(least: int, below: int | None = None):
    """An int that is not a bool, in [least, below)."""
    return lambda v: (isinstance(v, int) and not isinstance(v, bool) and v >= least
                      and (below is None or v < below))


def _or_null(check):
    return lambda v: v is None or check(v)


def _one_of(*choices: str):
    return lambda v: isinstance(v, str) and v in choices


def _is_bool(v: object) -> bool:
    return isinstance(v, bool)


def _is_text(v: object) -> bool:
    return isinstance(v, str) and v.isprintable()


def _is_date(v: object) -> bool:
    """A YYYYMMDD integer that names a real calendar date."""
    if not _int_in(0)(v):
        return False
    try:
        datetime.date(v // 10000, v // 100 % 100, v % 100)
    except (OverflowError, ValueError):
        return False
    return True


SCENARIO_FIELDS = {
    "seed": (_int_in(0), 1, "an integer of at least 0"),  # names key-cache files
    "profile": (_one_of(*PROFILES), "toy", " or ".join(PROFILES)),
    "mode": (_one_of("fcguard", "baseline"), "fcguard", "fcguard or baseline"),
    "users": (lambda v: isinstance(v, list) and v != [], REQUIRED, "a non-empty list of users"),
    "orders": (lambda v: isinstance(v, list), [], "a list of orders"),
    "assertions": (lambda v: isinstance(v, list) and all(isinstance(n, str) and n in ASSERTIONS for n in v),
                   [], "a list of assertion names"),
    "audit": (_is_bool, True, "true or false"),
    "bank_name": (_is_text, "Bank of A", "a printable string"),
    "current_date": (_is_date, 20250101, "a YYYYMMDD calendar date"),
    "delay_max_ms": (_int_in(0), 600_000, "an integer of at least 0"),
    "pool_size": (_int_in(1, 1001), 4, "an integer from 1 to 1000"),
    "rate": (lambda v: isinstance(v, list) and len(v) == 2 and all(_int_in(1)(x) for x in v),
             [1, 1], "a [numerator, denominator] pair of integers of at least 1"),
    "rotation_epoch": (_int_in(0), 10, "an integer of at least 0"),
    "treasury_crypto": (_or_null(_int_in(0)), None,
                        "null or an integer of at least the sum of the orders' crypto_amount"),
}
USER_FIELDS = {
    "name": (_is_text, REQUIRED, "a printable string"),
    "birthday": (_is_date, REQUIRED, "a YYYYMMDD calendar date"),
    "ssn": (_int_in(1, 1_000_000_000), REQUIRED, "an integer from 1 to 999999999"),
    "bank_account": (_int_in(0, ATTRIBUTE_BOUND), REQUIRED, "an integer from 0 to 2^252 - 1"),
    "balance": (_int_in(0), REQUIRED, "an integer of at least 0"),
    "self_report": (_is_bool, True, "true or false"),
    "seed_ssa": (_is_bool, True, "true or false"),
}
ORDER_FIELDS = {
    # checked against the users list after the walk
    "user": (None, REQUIRED, "an index into users"),
    "crypto_amount": (_int_in(1), REQUIRED, "an integer of at least 1"),
    "asset": (_is_text, "BTC", "a printable string"),
    "address_count": (_int_in(1, 101), 1, "an integer from 1 to 100"),
    "age_check_years": (_or_null(_int_in(0)), None, "null or an integer of at least 0"),
    "attack": (_or_null(_one_of("replay")), None, "null or replay"),
    "self_report": (_or_null(_is_bool), None, "null (the user's self_report), true or false"),
}


def _fields(where: str, entry: object, spec: dict) -> dict:
    """A new dict of entry's fields with every default filled in; refuses
    unknown keys, missing required keys and values that fail their check."""
    if not isinstance(entry, dict):
        raise ScenarioError(f"{where} must be an object")
    unknown = sorted(set(entry) - set(spec))
    if unknown:
        raise ScenarioError(f"{where} has unknown keys {unknown}; expected some of {sorted(spec)}")
    out = {}
    for key, (check, default, what) in spec.items():
        if key not in entry and default is REQUIRED:
            raise ScenarioError(f"{where} is missing required field {key!r}")
        value = entry[key] if key in entry else copy.copy(default)  # never share a default list
        if check is not None and not check(value):
            raise ScenarioError(f"{where} {key} must be {what}, got {value!r}")
        out[key] = value
    return out


def _validated(cfg: object) -> dict:
    """A copy of cfg with every default filled in, after the rules that span
    fields; raises ScenarioError naming the first field that breaks one."""
    cfg = _fields("scenario", cfg, SCENARIO_FIELDS)
    users = cfg["users"] = [_fields(f"users[{i}]", u, USER_FIELDS) for i, u in enumerate(cfg["users"])]
    taken = {PLATFORM_BANK_ACCOUNT}
    for i, user in enumerate(users):
        if user["bank_account"] in taken:
            raise ScenarioError(f"users[{i}] bank_account {user['bank_account']} is already taken "
                                "by another user or the platform")
        taken.add(user["bank_account"])
    orders = cfg["orders"] = [_fields(f"orders[{i}]", o, ORDER_FIELDS) for i, o in enumerate(cfg["orders"])]
    for i, order in enumerate(orders):
        if not _int_in(0, len(users))(order["user"]):
            raise ScenarioError(f"orders[{i}] has no valid user index, got {order['user']!r}")
        if order["self_report"] is None:
            order["self_report"] = users[order["user"]]["self_report"]
    declared = sum(o["crypto_amount"] for o in orders)
    if cfg["treasury_crypto"] is None:
        cfg["treasury_crypto"] = 2 * declared + 1000
    elif cfg["treasury_crypto"] < declared:
        raise ScenarioError(f"treasury_crypto must be null or an integer of at least {declared}, "
                            f"the sum of the orders' crypto_amount; got {cfg['treasury_crypto']!r}")
    return cfg


@dataclass
class OrderOutcome:
    order_id: str
    user_index: int
    state: str
    failure_cause: str | None
    attack: str | None
    self_report: bool
    addresses: tuple[str, ...]
    fiat_due: int
    crypto_amount: int


@dataclass
class ScenarioResult:
    cfg: dict  # the validated config, every default filled in
    ctx: SimContext
    orders: list[OrderOutcome]
    audit_outcomes: dict[str, tuple[str, int | None]]
    assertion_results: dict[str, tuple[bool, str]]
    registration_ok: dict[int, bool]
    # wall seconds per phase: one sample per registered user or per order
    # that reached the phase; a step made once for the whole run adds an
    # equal share to each order's sample. Never written to result.json.
    step_s: dict[str, list[float]]

    @property
    def passed(self) -> bool:
        return all(ok for ok, _ in self.assertion_results.values())

    def event_log_lines(self) -> list[str]:
        return self.ctx.net.event_log_lines()

    def final_state(self) -> dict:
        ctx = self.ctx
        return {
            "crypto_total": ctx.chain.total_supply(),
            "fiat_accounts": {str(num): acct.balance for num, acct in sorted(ctx.bank.accounts.items())},
            "fiat_total": ctx.fiat_total(),
            "orders": {o.order_id: {"failure_cause": o.failure_cause, "state": o.state}
                       for o in self.orders},
            "tx_count": len(ctx.chain.all_txs()),
        }


def build_context(cfg: dict, key_cache_dir: str | Path | None = None) -> tuple[SimContext, dict]:
    cfg = _validated(cfg)
    profile = get_profile(cfg["profile"])
    seed = cfg["seed"]

    slots = [("platform", 4), ("bank", 4)]
    made = fill_missing(profile, seed, slots, key_cache_dir) if key_cache_dir is not None else {}
    platform_keys, bank_keys = (made[slot] if slot in made else issuer_keys(profile, seed, *slot, key_cache_dir)
                                for slot in slots)
    bank_enc = bank_paillier_keys(profile, seed, key_cache_dir)
    authority_enc = elgamal_keygen(profile, random.Random(f"{seed}:elgamal:authority"))

    clock = SimClock()
    net = Network(clock)
    registry = Registry()
    chain = Chain()

    platform = Platform(issuer_keys=platform_keys, rng=random.Random(f"{seed}:platform"),
                        pool_size=cfg["pool_size"], rotation_epoch=cfg["rotation_epoch"],
                        bank_account=PLATFORM_BANK_ACCOUNT)
    bank = Bank(name=cfg["bank_name"], issuer_keys=bank_keys, enc_keys=bank_enc,
                rng=random.Random(f"{seed}:bank"))
    ssa = SsaDirectory()
    authority = AuditingAuthority(enc_keys=authority_enc)

    users = []
    for i, ucfg in enumerate(cfg["users"]):
        pii = PiiRecord(name=ucfg["name"], birthday=ucfg["birthday"], ssn=ucfg["ssn"])
        user = User(index=i, pii=pii, bank_account=ucfg["bank_account"], profile=profile,
                    rng=random.Random(f"{seed}:user:{i}"), self_report=ucfg["self_report"])
        users.append(user)
        if ucfg["seed_ssa"]:
            ssa.seed(pii)
        bank.open_account(ucfg["bank_account"], pii.ssn, ucfg["balance"],
                          owner_party=user.party_id)
    bank.open_account(PLATFORM_BANK_ACCOUNT, 0, 0, owner_party="platform")

    chain.genesis({platform.treasury_address: cfg["treasury_crypto"]})

    ctx = SimContext(clock=clock, net=net, registry=registry, chain=chain, profile=profile,
                     rng=random.Random(f"{seed}:main"), platform=platform,
                     bank=bank, ssa=ssa, authority=authority, users=users,
                     rate=tuple(cfg["rate"]), delay_max_ms=cfg["delay_max_ms"],
                     current_date=cfg["current_date"])
    publish_issuer_definitions(ctx)
    return ctx, cfg


def _share(samples: list[float], seconds: float) -> None:
    """Add an equal share of a step made once for all of `samples`' orders."""
    samples[:] = [s + seconds / len(samples) for s in samples]


def run_scenario(cfg: dict, key_cache_dir: str | Path | None = None) -> ScenarioResult:
    ctx, cfg = build_context(cfg, key_cache_dir)
    mode = cfg["mode"]
    step_s: dict[str, list[float]] = {phase: [] for phase in PHASES}

    # Steps are named at the call, not held in a table, so that a wrapper put
    # on a module attribute sees every call; arguments stay positional.
    def timed(phase, step, *args, **kwargs):
        start = time.perf_counter()
        out = step(*args, **kwargs)
        step_s[phase].append(time.perf_counter() - start)
        return out

    registration_ok: dict[int, bool] = {}
    for user in ctx.users:
        try:
            if mode == "fcguard":
                timed("registration", register_user, ctx, user)
                bank_preissue(ctx, user)
            else:
                timed("registration", baseline_register, ctx, user)
            registration_ok[user.index] = True
        except ProtocolError:
            registration_ok[user.index] = False

    attacker = Attacker()
    runs: list[tuple[dict, User, ExchangeOrder]] = []  # (order config, user, order)
    for idx, ocfg in enumerate(cfg["orders"]):
        user = ctx.users[ocfg["user"]]
        if not registration_ok[user.index]:
            continue
        addresses = tuple(f"{user.party_id}:o{idx}:a{k}" for k in range(ocfg["address_count"]))
        params = OrderParams(asset=ocfg["asset"], crypto_amount=ocfg["crypto_amount"],
                             addresses=addresses, age_threshold_years=ocfg["age_check_years"])
        actor = attacker if ocfg["attack"] == "replay" else None

        if mode == "baseline":
            order = open_order(ctx, user.party_id, params)
            timed("identity_verification", baseline_identity, ctx, user, order, params)
            if order.state == "identity-verified":
                timed("bank_interaction", baseline_bank, ctx, user, order)
            if order.state == "bank-verified":
                timed("bank_transfer", baseline_settle, ctx, user, order)
            if order.state == "fiat-settled":
                timed("crypto_transfer", baseline_crypto, ctx, user, order, params)
        else:
            order, handle = timed("identity_verification", exchange_step1_identity,
                                  ctx, user, params, actor=actor)
            if order.state == "identity-verified":
                timed("bank_interaction", exchange_step2_bank, ctx, user, order, handle, actor=actor)
            if order.state == "bank-verified":
                timed("bank_transfer", exchange_step3_transfer, ctx, user, order, actor=actor)
        runs.append((ocfg, user, order))

    if mode == "fcguard":
        step_s["crypto_transfer"] = [0.0] * sum(order.state == "fiat-settled" for _, _, order in runs)
        start = time.perf_counter()
        drain_transfers(ctx, {order.order_id: user for _, user, order in runs})
        _share(step_s["crypto_transfer"], time.perf_counter() - start)

    audit_outcomes: dict[str, tuple[str, int | None]] = {}
    if cfg["audit"]:
        for ocfg, user, order in runs:
            if order.state not in ("fiat-settled", "crypto-sent", "complete"):
                continue
            if mode == "fcguard":
                timed("audit", platform_report, ctx, order)
            else:
                timed("audit", baseline_report, ctx, user, order)
            if ocfg["self_report"]:
                user_self_report(ctx, user, order)
        if mode == "fcguard":
            start = time.perf_counter()
            audit_outcomes = audit(ctx)
            _share(step_s["audit"], time.perf_counter() - start)

    outcomes = [OrderOutcome(
        order_id=order.order_id, user_index=user.index, state=order.state,
        failure_cause=order.failure_cause, attack=ocfg["attack"], self_report=ocfg["self_report"],
        addresses=order.addresses, fiat_due=order.fiat_due, crypto_amount=order.crypto_amount)
        for ocfg, user, order in runs]
    result = ScenarioResult(cfg=cfg, ctx=ctx, orders=outcomes, audit_outcomes=audit_outcomes,
                            assertion_results={}, registration_ok=registration_ok, step_s=step_s)
    for name in cfg["assertions"]:
        result.assertion_results[name] = ASSERTIONS[name](result)
    return result


# ---------------------------------------------------------------------------
# named assertions


def _user_secrets(result: ScenarioResult) -> list[tuple[str, int]]:
    secrets = []
    for user in result.ctx.users:
        secrets.append((f"user {user.index} ssn", user.pii.ssn))
        secrets.append((f"user {user.index} bank account", user.bank_account))
    return secrets


def platform_taint_hits(result: ScenarioResult) -> list[str]:
    """Occurrences of any user SSN or bank-account canonical encoding in the
    platform's exchange- and audit-phase received bytes."""
    tape = result.ctx.net.received_bytes("platform", phases=("exchange", "audit"))
    hits = []
    for label, value in _user_secrets(result):
        if tape.count(canonical_int_hex(value).encode("ascii")):
            hits.append(label)
    return hits


def bank_taint_hits(result: ScenarioResult) -> list[str]:
    """User crypto addresses appearing anywhere in the bank's received bytes."""
    tape = result.ctx.net.received_bytes(result.ctx.bank.party_id)
    hits = []
    for outcome in result.orders:
        for address in outcome.addresses:
            if tape.count(address.encode("ascii")):
                hits.append(address)
    return hits


def _assert_orders_complete(result: ScenarioResult) -> tuple[bool, str]:
    bad = [o.order_id for o in result.orders if o.attack is None and o.state != "complete"]
    return (not bad, "all honest orders complete" if not bad else f"incomplete: {bad}")


def _assert_conservation(result: ScenarioResult) -> tuple[bool, str]:
    """Final totals against the declared inputs: the users' balances (the
    platform's account opens at 0) and the treasury's genesis allocation."""
    fiat_in = sum(u["balance"] for u in result.cfg["users"])
    crypto_in = result.cfg["treasury_crypto"]
    fiat_out, crypto_out = result.ctx.fiat_total(), result.ctx.chain.total_supply()
    return (fiat_out == fiat_in and crypto_out == crypto_in,
            f"fiat {fiat_in}->{fiat_out}, crypto {crypto_in}->{crypto_out}")


def _assert_platform_blindness(result: ScenarioResult) -> tuple[bool, str]:
    hits = platform_taint_hits(result)
    return (not hits, "no secret encodings on the platform tape" if not hits else f"leaked: {hits}")


def _assert_platform_sees_plaintext(result: ScenarioResult) -> tuple[bool, str]:
    hits = platform_taint_hits(result)
    return (bool(hits), f"control found {len(hits)} plaintext secrets" if hits else "control found nothing")


def _assert_bank_blindness(result: ScenarioResult) -> tuple[bool, str]:
    hits = bank_taint_hits(result)
    return (not hits, "no crypto addresses on the bank tape" if not hits else f"leaked: {hits}")


def _assert_replay_failed_mfa(result: ScenarioResult) -> tuple[bool, str]:
    attacks = [o for o in result.orders if o.attack == "replay"]
    if not attacks:
        return (False, "no replay orders in scenario")
    for o in attacks:
        if o.state != "failed" or o.failure_cause != "mfa":
            return (False, f"{o.order_id} ended {o.state}({o.failure_cause})")
        moved = [tx for tx in result.ctx.chain.all_txs() if tx.recipient in o.addresses]
        if moved:
            return (False, f"{o.order_id} moved crypto despite failing")
    return (True, f"{len(attacks)} replayed orders failed at mfa with no movement")


def _assert_failed_no_movement(result: ScenarioResult) -> tuple[bool, str]:
    for o in result.orders:
        if o.state != "failed":
            continue
        moved = [tx for tx in result.ctx.chain.all_txs() if tx.recipient in o.addresses]
        if moved:
            return (False, f"{o.order_id} failed but moved crypto")
    return (True, "failed orders moved nothing")


def _assert_audit_branches(result: ScenarioResult) -> tuple[bool, str]:
    ctx = result.ctx
    expected_decrypts = 0
    for o in result.orders:
        if o.state not in ("fiat-settled", "crypto-sent", "complete"):
            continue
        outcome = result.audit_outcomes.get(o.order_id)
        if outcome is None:
            return (False, f"{o.order_id} missing audit outcome")
        kind, ssn = outcome
        if o.self_report:
            if kind != "compliant":
                return (False, f"{o.order_id} reported but audited as {kind}")
        else:
            expected_decrypts += 1
            if kind != "deanonymized" or ssn != ctx.users[o.user_index].pii.ssn:
                return (False, f"{o.order_id} expected de-anonymization with the registered SSN")
    if ctx.authority.decrypt_count != expected_decrypts:
        return (False, f"decrypt count {ctx.authority.decrypt_count} != expected {expected_decrypts}")
    return (True, f"{expected_decrypts} de-anonymizations, rest compliant without decryption")


def _assert_address_hygiene(result: ScenarioResult) -> tuple[bool, str]:
    ctx = result.ctx
    owner: dict[str, str] = {}
    for o in result.orders:
        for address in o.addresses:
            if address in owner and owner[address] != o.order_id:
                return (False, f"address {address} used by two orders")
            owner[address] = o.order_id
    pool_senders = {tx.sender for tx in ctx.chain.all_txs() if tx.sender.startswith("pool:")}
    credited: dict[str, int] = {}
    for tx in ctx.chain.all_txs():
        if tx.recipient in owner:
            credited[owner[tx.recipient]] = credited.get(owner[tx.recipient], 0) + tx.amount
    for o in result.orders:
        if o.state == "complete" and result.cfg["mode"] == "fcguard":
            if credited.get(o.order_id, 0) != o.crypto_amount:
                return (False, f"{o.order_id} credited {credited.get(o.order_id, 0)} != {o.crypto_amount}")
    completed = [o for o in result.orders if o.state == "complete"]
    if result.cfg["mode"] == "fcguard" and len(completed) >= 2 and len(pool_senders) < 2:
        return (False, f"only {len(pool_senders)} pool addresses used")
    return (True, f"{len(owner)} unique user addresses, {len(pool_senders)} pool addresses")


def _assert_baseline_linkage(result: ScenarioResult) -> tuple[bool, str]:
    store = result.ctx.platform.baseline_users
    linked = [uid for uid, rec in store.items()
              if rec.get("bank_account") and rec.get("addresses") and rec["pii"].get("ssn")]
    return (bool(linked), f"platform links identity, account, and addresses for {len(linked)} users")


ASSERTIONS = {
    "orders_complete": _assert_orders_complete,
    "conservation": _assert_conservation,
    "platform_blindness": _assert_platform_blindness,
    "platform_sees_plaintext": _assert_platform_sees_plaintext,
    "bank_blindness": _assert_bank_blindness,
    "replay_failed_mfa": _assert_replay_failed_mfa,
    "failed_no_movement": _assert_failed_no_movement,
    "audit_branches": _assert_audit_branches,
    "address_hygiene": _assert_address_hygiene,
    "baseline_linkage": _assert_baseline_linkage,
}


def random_scenario(seed: int, mode: str = "fcguard", n_users: int = 2,
                    orders_per_user: int = 1, profile: str = "toy") -> dict:
    """Deterministic randomized scenario for the security suites."""
    gen = random.Random(f"scenario-gen:{seed}")
    users = []
    for i in range(n_users):
        users.append({
            "name": f"User {seed}-{i} " + "".join(gen.choice("abcdefghijklmnop") for _ in range(6)),
            "birthday": gen.randrange(1950, 2003) * 10000 + gen.randrange(1, 13) * 100 + gen.randrange(1, 29),
            "ssn": gen.randrange(100_000_000, 1_000_000_000),
            "bank_account": gen.randrange(10_000_000_000_000_000, 100_000_000_000_000_000),
            "balance": gen.randrange(5_000, 50_000),
            "self_report": bool(gen.getrandbits(1)),
        })
    orders = []
    for i in range(n_users):
        for _ in range(orders_per_user):
            orders.append({
                "user": i,
                "asset": "BTC",
                "crypto_amount": gen.randrange(100, 2_000),
                "address_count": gen.randrange(1, 4),
                "self_report": bool(gen.getrandbits(1)),
            })
    return {
        "seed": seed,
        "profile": profile,
        "mode": mode,
        "delay_max_ms": 60_000,
        "rotation_epoch": 3,
        "pool_size": 3,
        "users": users,
        "orders": orders,
        "audit": True,
        "assertions": ["conservation", "failed_no_movement"],
    }
