import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcguard import parties, presentations
from fcguard.credentials import Schema, publish_definition
from fcguard.crypto import sigma
from fcguard.crypto.cl import cl_keygen
from fcguard.errors import ProtocolError
from fcguard.params import TOY
from fcguard.parties import (
    Attacker,
    OrderParams,
    PiiRecord,
    audit,
    bank_preissue,
    drain_transfers,
    exchange_step1_identity,
    exchange_step2_bank,
    exchange_step3_transfer,
    platform_report,
    register_user,
    ssa_verify,
    user_self_report,
)
from fcguard.presentations import bundle_digest, verify_equality
from fcguard.scenario import build_context, run_scenario
from fcguard.security import _rearm, build_fixture
from fcguard.serialize import canonical_int_hex, dumps


def _base_cfg(**overrides):
    cfg = {
        "seed": 77,
        "profile": "toy",
        "mode": "fcguard",
        "delay_max_ms": 30_000,
        "users": [
            {"name": "Alice Example", "birthday": 19900101, "ssn": 123_456_789,
             "bank_account": 11_111_222_223_333_344, "balance": 1000},
            {"name": "Bob Example", "birthday": 19851115, "ssn": 987_654_321,
             "bank_account": 22_222_333_334_444_455, "balance": 50},
        ],
        "orders": [],
    }
    cfg.update(overrides)
    return cfg


@pytest.fixture()
def ctx():
    context, _ = build_context(_base_cfg())
    return context


def _onboard(context, user):
    register_user(context, user)
    bank_preissue(context, user)


def test_pii_record_validation():
    PiiRecord(name="x", birthday=19900101, ssn=1)
    with pytest.raises(ProtocolError):
        PiiRecord(name="x", birthday=19900101, ssn=0)
    with pytest.raises(ProtocolError):
        PiiRecord(name="x", birthday=19901301, ssn=5)  # month 13
    with pytest.raises(ProtocolError):
        PiiRecord(name="x", birthday=19900230, ssn=5)  # Feb 30


def test_ssa_verify_exact_match(ctx):
    alice = ctx.users[0]
    assert ssa_verify(ctx, "platform", alice.pii.as_payload())
    assert not ssa_verify(ctx, "platform", {"name": "Nobody", "birthday": 19900101,
                                            "ssn": 555_555_555})
    wrong_birthday = dict(alice.pii.as_payload())
    wrong_birthday["birthday"] = 19900102
    assert not ssa_verify(ctx, "platform", wrong_birthday)  # oracle: exact-match lookup


def test_registration_issues_platform_credential(ctx):
    alice = ctx.users[0]
    cred = register_user(ctx, alice)
    assert set(cred.attributes) == {"name", "birthday", "ssn"}
    assert cred.attributes["ssn"] == alice.pii.ssn
    assert ctx.platform_defn.defn_id in alice.wallet
    assert len(ctx.platform.registrations) == 1  # registration is non-anonymous


def test_registration_rejected_for_unseeded_pii():
    cfg = _base_cfg()
    cfg["users"][1]["seed_ssa"] = False
    context, _ = build_context(cfg)
    bob = context.users[1]
    with pytest.raises(ProtocolError):
        register_user(context, bob)
    assert len(bob.wallet) == 0


def test_register_twice_yields_fresh_signature(ctx):
    alice = ctx.users[0]
    first = register_user(ctx, alice)
    second = register_user(ctx, alice)
    # oracle: signature byte comparison
    assert dumps(first.signature) != dumps(second.signature)


def test_step1_honest_user_identity_verified(ctx):
    alice = ctx.users[0]
    _onboard(ctx, alice)
    order, handle = exchange_step1_identity(
        ctx, alice, OrderParams("BTC", 100, ("user:0:oX:a0",)))
    assert order.state == "identity-verified"
    assert order.order_id in ctx.platform.pending_enc_ssn
    assert handle.bundle1 is not None


def test_step1_rejects_foreign_platform_credential(ctx):
    alice = ctx.users[0]
    _onboard(ctx, alice)
    # a second exchange platform publishes its own definition in the shared
    # registry and issues alice a credential; presenting it here must fail
    import random

    other_keys = cl_keygen(4, TOY, random.Random("other-platform"))
    other_schema = Schema("schema:platform-2", "platform",
                          ("name", "birthday", "ssn"))
    _, other_defn = publish_definition(ctx.registry, other_keys, other_schema,
                                       "defn:platform-2", TOY)
    from fcguard.credentials import (
        create_credential_request,
        holder_finalize_credential,
        issue_credential,
    )

    rng = random.Random("other-issuance")
    nonce = b"other-nonce-0001"
    request, v_prime = create_credential_request(alice.wallet.link_secret, other_defn,
                                                 nonce, rng)
    cred = issue_credential(other_keys, other_defn, other_schema, request,
                            alice.pii.as_payload(), rng)
    alice.wallet.store(holder_finalize_credential(other_defn, other_schema, cred,
                                                  alice.wallet.link_secret, v_prime, nonce))
    order, _ = exchange_step1_identity(ctx, alice, OrderParams("BTC", 100, ("a1",)),
                                       credential_defn_id="defn:platform-2")
    assert order.state == "failed"
    assert order.failure_cause == "identity"
    _assert_rejection_sent(ctx, "step1-rejected", "identity", order)


def _assert_rejection_sent(context, mtype: str, cause: str, order) -> None:
    """The last `mtype` message carries the order's failure cause."""
    event = [e for e in context.net.events if e.mtype == mtype][-1]
    payload = {"cause": cause, "order_id": order.order_id}
    assert event.digest == hashlib.sha256(dumps(payload)).hexdigest()


def test_step1_age_predicate_rejects_underage():
    cfg = _base_cfg()
    cfg["users"][0]["birthday"] = 20200101  # oracle: 20200101 > 20070101
    context, _ = build_context(cfg)
    kid = context.users[0]
    _onboard(context, kid)
    order, _ = exchange_step1_identity(
        context, kid, OrderParams("BTC", 100, ("a0",), age_threshold_years=18))
    assert order.state == "failed" and order.failure_cause == "identity"
    _assert_rejection_sent(context, "step1-abort", "identity", order)  # the prover refuses


def test_step1_age_predicate_accepts_adult(ctx):
    alice = ctx.users[0]
    _onboard(ctx, alice)
    order, _ = exchange_step1_identity(
        ctx, alice, OrderParams("BTC", 100, ("a0",), age_threshold_years=18))
    assert order.state == "identity-verified"


def test_step2_honest_flow_bank_verified(ctx):
    alice = ctx.users[0]
    _onboard(ctx, alice)
    order, handle = exchange_step1_identity(ctx, alice, OrderParams("BTC", 100, ("a0",)))
    exchange_step2_bank(ctx, alice, order, handle)
    assert order.state == "bank-verified"
    # the bank resolved the real account from the ciphertext
    assert ctx.bank.mfa_pending[order.order_id][1] == alice.bank_account


def test_step2_equality_failure_for_mismatched_ssn(ctx):
    alice = ctx.users[0]
    _onboard(ctx, alice)
    # replace the bank credential with one carrying a different SSN
    other_vc = None
    from fcguard.credentials import (
        create_credential_request,
        holder_finalize_credential,
        issue_credential,
    )
    import random

    rng = random.Random("mismatch")
    nonce = b"mismatch-nonce-1"
    request, v_prime = create_credential_request(alice.wallet.link_secret, ctx.bank_defn,
                                                 nonce, rng)
    cred = issue_credential(ctx.bank.issuer_keys, ctx.bank_defn, ctx.bank_schema, request,
                            {"bank_name": ctx.bank.name, "bank_account": alice.bank_account,
                             "ssn": 123_456_780}, rng)
    other_vc = holder_finalize_credential(ctx.bank_defn, ctx.bank_schema, cred,
                                          alice.wallet.link_secret, v_prime, nonce)
    alice.wallet.store(other_vc)
    order, handle = exchange_step1_identity(ctx, alice, OrderParams("BTC", 100, ("a0",)))
    exchange_step2_bank(ctx, alice, order, handle)
    assert order.state == "failed" and order.failure_cause == "equality"
    _assert_rejection_sent(ctx, "step2-abort", "equality", order)


def _count_verifications(monkeypatch) -> list:
    """Wrap verify_bundle wherever the exchange reaches it; returns the list
    of bundles it is called on."""
    calls = []
    real = presentations.verify_bundle

    def counting(registry, bundle, *args, **kwargs):
        calls.append(bundle)
        return real(registry, bundle, *args, **kwargs)

    monkeypatch.setattr(parties, "verify_bundle", counting)
    monkeypatch.setattr(presentations, "verify_bundle", counting)
    return calls


def test_honest_order_verification_count(ctx, monkeypatch):
    # the platform verifies bundle 1 (step 1) and bundle 2 (step 2), both
    # again inside the equality check, and the bank verifies bundle 2: five
    alice = ctx.users[0]
    _onboard(ctx, alice)
    calls = _count_verifications(monkeypatch)
    order, handle = exchange_step1_identity(ctx, alice, OrderParams("BTC", 100, ("a0",)))
    exchange_step2_bank(ctx, alice, order, handle)
    assert order.state == "bank-verified"
    assert calls == [handle.bundle1, handle.bundle2, handle.bundle1, handle.bundle2, handle.bundle2]


def test_verify_equality_rejects_splices_without_verifying(monkeypatch):
    fx, other = build_fixture(), build_fixture(seed=1302, ssn=987_654_321)
    calls = _count_verifications(monkeypatch)
    b1, b2 = fx.bundle1, fx.bundle2

    def linked(bundle_a, bundle_b):
        return verify_equality(fx.registry, bundle_a, bundle_b, "ssn", fx.nonce, fx.enc_keys)

    # a foreign commitment on either side, bundle 2 chained elsewhere, a foreign bundle
    foreign = other.bundle1.link_proofs[0]
    assert not linked(_rearm(b1, "link_proofs", commitment=foreign.commitment), b2)
    assert not linked(b1, _rearm(b2, "link_proofs", commitment=foreign.commitment))
    assert not linked(b1, dataclasses.replace(b2, prev_digest=bundle_digest(other.bundle1)))
    assert not linked(b1, other.bundle2)
    assert not linked(other.bundle1, b2)
    assert calls == []  # the linkage is checked before any proof work
    # a foreign link response leaves the linkage intact; bundle verification refuses it
    spliced = _rearm(b2, "link_proofs", r_hat=other.bundle2.link_proofs[0].r_hat)
    assert not linked(b1, spliced)
    assert calls == [b1, spliced]
    calls.clear()
    assert linked(b1, b2)
    assert calls == [b1, b2]


@pytest.mark.parametrize("link_proofs", [None, (5,)], ids=["none", "int-arm"])
def test_verify_equality_refuses_malformed_link_arms(link_proofs):
    fx = build_fixture()
    bad = [dataclasses.replace(bundle, link_proofs=link_proofs) for bundle in (fx.bundle1, fx.bundle2)]
    for pair in ((bad[0], fx.bundle2), (fx.bundle1, bad[1])):
        assert not verify_equality(fx.registry, *pair, "ssn", fx.nonce, fx.enc_keys)


def test_step2_missing_bank_encryption_rejected_before_verification(ctx, monkeypatch):
    alice = ctx.users[0]
    _onboard(ctx, alice)
    order, handle = exchange_step1_identity(ctx, alice, OrderParams("BTC", 100, ("a0",)))
    build = handle.session.build_bundle
    monkeypatch.setattr(handle.session, "build_bundle",
                        lambda *args, **kwargs: build(*args, **{**kwargs, "encrypt": []}))
    calls = _count_verifications(monkeypatch)
    exchange_step2_bank(ctx, alice, order, handle)
    assert handle.bundle2.enc_proofs == ()
    assert order.state == "failed" and order.failure_cause == "bank-presentation"
    assert calls == []  # the arm shape is checked before any proof work
    types = [ev.mtype for ev in ctx.net.events]
    rejected = ctx.net.events[types.index("step2-bundle") + 1]
    assert rejected.mtype == "step2-rejected"
    cause = {"cause": "bank-presentation", "order_id": order.order_id}
    assert rejected.digest == hashlib.sha256(dumps(cause)).hexdigest()


def test_step2_replay_attacker_fails_mfa(ctx):
    alice = ctx.users[0]
    _onboard(ctx, alice)
    attacker = Attacker()
    order, handle = exchange_step1_identity(ctx, alice, OrderParams("BTC", 100, ("a0",)),
                                            actor=attacker)
    assert order.state == "identity-verified"  # stolen bundle still verifies
    exchange_step2_bank(ctx, alice, order, handle, actor=attacker)
    assert order.state == "failed" and order.failure_cause == "mfa"
    # the one-time code went to the real account owner, not the attacker
    assert any(oid == order.order_id for oid, _ in alice.mfa_inbox)


def test_step3_moves_fiat_and_crypto(ctx):
    alice = ctx.users[0]
    _onboard(ctx, alice)
    params = OrderParams("BTC", 250, ("u0:a0", "u0:a1", "u0:a2"))
    order, handle = exchange_step1_identity(ctx, alice, params)
    exchange_step2_bank(ctx, alice, order, handle)
    exchange_step3_transfer(ctx, alice, order)
    assert order.state == "fiat-settled"
    # oracle: balance arithmetic, 1000 - 250 = 750
    assert ctx.bank.accounts[alice.bank_account].balance == 750
    assert ctx.bank.accounts[ctx.platform.bank_account].balance == 250
    drain_transfers(ctx, {order.order_id: alice})
    assert order.state == "complete"
    # oracle: ledger sum equals the full crypto amount
    credited = sum(tx.amount for tx in ctx.chain.all_txs() if tx.recipient in params.addresses)
    assert credited == 250
    # multi-address policy: at least 2 distinct (pool, user) pairs on the ledger
    pairs = {(tx.sender, tx.recipient) for tx in ctx.chain.all_txs()
             if tx.recipient in params.addresses}
    assert len(pairs) >= 2
    # delayed releases stay within [0, delay_max]
    settle = next(t for _, to, t in order.transitions if to == "fiat-settled")
    for tx in ctx.chain.all_txs():
        if tx.recipient in params.addresses:
            assert settle <= tx.timestamp_ms <= settle + ctx.delay_max_ms


def test_step3_insufficient_funds(ctx):
    bob = ctx.users[1]  # balance 50
    _onboard(ctx, bob)
    order, handle = exchange_step1_identity(ctx, bob, OrderParams("BTC", 100, ("b0",)))
    exchange_step2_bank(ctx, bob, order, handle)
    before = ctx.chain.total_supply()
    exchange_step3_transfer(ctx, bob, order)
    assert order.state == "failed" and order.failure_cause == "funds"
    assert ctx.bank.accounts[bob.bank_account].balance == 50
    assert ctx.chain.total_supply() == before
    assert not [tx for tx in ctx.chain.all_txs() if tx.recipient == "b0"]


def test_order_state_machine_rejects_skips(ctx):
    alice = ctx.users[0]
    _onboard(ctx, alice)
    order, handle = exchange_step1_identity(ctx, alice, OrderParams("BTC", 10, ("a0",)))
    with pytest.raises(ProtocolError):
        exchange_step3_transfer(ctx, alice, order)  # skipping bank verification
    with pytest.raises(ProtocolError):
        order.advance("complete", 0)
    # transitions recorded in order
    assert [t[1] for t in order.transitions] == ["identity-verified"]


# ("advance", None) asks for the state after the current one, so that runs
# reach "complete" as well as "failed"
_ORDER_CALLS = st.lists(st.one_of(st.tuples(st.just("advance"), st.none() | st.sampled_from(parties.ORDER_STATES)),
                                  st.tuples(st.just("fail"), st.sampled_from(["identity", "mfa", "funds"]))),
                        max_size=12)


@settings(max_examples=60, deadline=None)
@given(_ORDER_CALLS)
def test_order_steps_along_the_declared_states_or_fails(calls):
    states = parties.ORDER_STATES
    order = parties.ExchangeOrder("order-0001", "BTC", 10, 5, (1, 2), b"n", ("a0",))
    for time_ms, (kind, arg) in enumerate(calls):
        before = (order.state, list(order.transitions), order.failure_cause)
        terminal = order.state in ("complete", "failed")
        if arg is None:
            arg = states[min(states.index(order.state) + 1, len(states) - 1)]
        try:
            order.advance(arg, time_ms) if kind == "advance" else order.fail(arg, time_ms)
        except ProtocolError:
            # a refused call changes nothing
            assert (order.state, order.transitions, order.failure_cause) == before
            continue
        assert not terminal  # a terminal order refuses every call
        if kind == "advance":
            assert states.index(order.state) == states.index(before[0]) + 1
            assert order.failure_cause is None
        else:
            assert (order.state, order.failure_cause) == ("failed", arg)
        assert order.transitions == before[1] + [(before[0], order.state, time_ms)]


def test_platform_report_redaction(ctx):
    alice = ctx.users[0]
    _onboard(ctx, alice)
    params = OrderParams("BTC", 100, ("addr-x", "addr-y"))
    order, handle = exchange_step1_identity(ctx, alice, params)
    exchange_step2_bank(ctx, alice, order, handle)
    exchange_step3_transfer(ctx, alice, order)
    record = platform_report(ctx, order)
    assert record.fiat_amount == order.fiat_due  # oracle: field equality
    blob = dumps(record)
    assert canonical_int_hex(alice.pii.ssn).encode() not in blob
    for address in params.addresses:
        assert address.encode() not in blob


def test_audit_compliant_branch_no_decryption(ctx):
    alice = ctx.users[0]
    _onboard(ctx, alice)
    order, handle = exchange_step1_identity(ctx, alice, OrderParams("BTC", 100, ("r0",)))
    exchange_step2_bank(ctx, alice, order, handle)
    exchange_step3_transfer(ctx, alice, order)
    platform_report(ctx, order)
    user_self_report(ctx, alice, order)
    outcomes = audit(ctx)
    assert outcomes[order.order_id] == ("compliant", None)
    assert ctx.authority.decrypt_count == 0


def test_audit_deanonymizes_missing_report(ctx):
    alice = ctx.users[0]
    _onboard(ctx, alice)
    order, handle = exchange_step1_identity(ctx, alice, OrderParams("BTC", 100, ("r1",)))
    exchange_step2_bank(ctx, alice, order, handle)
    exchange_step3_transfer(ctx, alice, order)
    platform_report(ctx, order)
    outcomes = audit(ctx)
    kind, ssn = outcomes[order.order_id]
    assert kind == "deanonymized"
    assert ssn == alice.pii.ssn  # oracle: decryption matches the seeded SSN
    assert ctx.authority.decrypt_count == 1


def test_audit_empty_record_set(ctx):
    assert audit(ctx) == {}


def test_platform_never_sees_plaintext_secrets_in_exchange(ctx):
    alice = ctx.users[0]
    _onboard(ctx, alice)
    order, handle = exchange_step1_identity(ctx, alice, OrderParams("BTC", 100, ("t0",)))
    exchange_step2_bank(ctx, alice, order, handle)
    exchange_step3_transfer(ctx, alice, order)
    tape = ctx.net.received_bytes("platform", phases=("exchange", "audit"))
    assert canonical_int_hex(alice.pii.ssn).encode() not in tape
    assert canonical_int_hex(alice.bank_account).encode() not in tape


def test_bank_never_sees_crypto_addresses(ctx):
    alice = ctx.users[0]
    _onboard(ctx, alice)
    params = OrderParams("BTC", 100, ("secret-addr-1", "secret-addr-2"))
    order, handle = exchange_step1_identity(ctx, alice, params)
    exchange_step2_bank(ctx, alice, order, handle)
    exchange_step3_transfer(ctx, alice, order)
    drain_transfers(ctx, {order.order_id: alice})
    tape = ctx.net.received_bytes(ctx.bank.party_id)
    for address in params.addresses:
        assert address.encode() not in tape


def test_baseline_stores_linkage_and_fcguard_does_not():
    order_spec = [{"user": 0, "crypto_amount": 200, "address_count": 2}]
    fc = run_scenario(_base_cfg(orders=order_spec,
                                assertions=["orders_complete", "platform_blindness"]))
    bl_cfg = _base_cfg(orders=order_spec, mode="baseline",
                       assertions=["orders_complete", "platform_sees_plaintext",
                                   "baseline_linkage"])
    bl = run_scenario(bl_cfg)
    assert fc.passed and bl.passed
    # control: baseline links SSN to crypto addresses in the platform store
    store = bl.ctx.platform.baseline_users
    assert any(rec["pii"]["ssn"] and rec["addresses"] for rec in store.values())
    assert not fc.ctx.platform.baseline_users


def test_both_modes_reach_identical_final_money_state():
    # oracle: cross-mode state diff on balances and ledger totals
    order_spec = [{"user": 0, "crypto_amount": 200, "address_count": 2},
                  {"user": 1, "crypto_amount": 30, "address_count": 1}]
    fc = run_scenario(_base_cfg(orders=order_spec, assertions=["orders_complete"]))
    bl = run_scenario(_base_cfg(orders=order_spec, mode="baseline",
                                assertions=["orders_complete"]))
    assert fc.passed and bl.passed
    fc_state = fc.final_state()
    bl_state = bl.final_state()
    assert fc_state["fiat_accounts"] == bl_state["fiat_accounts"]
    assert fc_state["crypto_total"] == bl_state["crypto_total"]
    # per-user credited crypto equal across modes
    for result in (fc, bl):
        for outcome in result.orders:
            credited = sum(tx.amount for tx in result.ctx.chain.all_txs()
                           if tx.recipient in outcome.addresses)
            assert credited == outcome.crypto_amount


def test_link_secret_confined_across_full_run():
    # the holder's link secret never appears in any bytes the holder emits
    result = run_scenario(_base_cfg(orders=[{"user": 0, "crypto_amount": 150,
                                             "address_count": 2}],
                                    assertions=["orders_complete"]))
    assert result.passed
    for user in result.ctx.users:
        sent = result.ctx.net.sent_bytes(user.party_id)
        needle = canonical_int_hex(user.wallet.link_secret.value).encode()
        assert needle not in sent


def test_chain_is_publicly_readable_for_bank_inference():
    # any party can read the chain; the bank can observe the platform pool's
    # outgoing recipients, which is exactly what the obfuscation mitigates
    result = run_scenario(_base_cfg(orders=[{"user": 0, "crypto_amount": 150,
                                             "address_count": 3}],
                                    assertions=["orders_complete"]))
    chain = result.ctx.chain
    pool_txs = [tx for tx in chain.all_txs() if tx.sender.startswith("pool:")]
    assert pool_txs
    observed = {tx.recipient for addr in {t.sender for t in pool_txs}
                for tx in chain.query(addr) if tx.sender == addr}
    outcome = result.orders[0]
    assert observed == {a for a in outcome.addresses
                        if any(tx.recipient == a for tx in chain.all_txs())}


def test_key_holders_evaluate_no_equation_over_their_own_modulus(ctx, monkeypatch):
    """Each verification's equations, by modulus: the platform passes its
    issuer key pair (its n is also the link-commitment modulus) and the bank
    its issuer and Paillier key pairs, and each of their equations over those
    moduli runs mod the primes."""
    alice = ctx.users[0]
    _onboard(ctx, alice)
    platform_n, bank = ctx.platform.issuer_keys.public.n, ctx.bank
    names = {platform_n: "platform n", bank.issuer_keys.public.n: "bank n",
             bank.enc_keys.public.n_squared: "paillier n^2", ctx.authority.public_enc_key.p: "elgamal p"}
    evaluated = []
    real = sigma.multi_powmod_many

    def spy(products):
        evaluated.extend(("plain", names[mod]) if isinstance(mod, int) else ("crt", names[mod[0][0] * mod[1][0]])
                         for _, mod in products)
        return real(products)

    monkeypatch.setattr(sigma, "multi_powmod_many", spy)
    calls = []

    def recorded(fn):
        def wrapper(*args, **kwargs):
            evaluated.clear()
            result = fn(*args, **kwargs)
            own = sorted(names[k.crt[0][0] * k.crt[1][0]] for k in kwargs["own_keys"])
            calls.append((fn.__name__, own, sorted(evaluated), result))
            return result
        return wrapper

    monkeypatch.setattr(parties, "verify_bundle", recorded(parties.verify_bundle))
    monkeypatch.setattr(parties, "verify_equality", recorded(parties.verify_equality))
    order, handle = exchange_step1_identity(ctx, alice, OrderParams("BTC", 100, ("a0",)))
    exchange_step2_bank(ctx, alice, order, handle)
    assert order.state == "bank-verified"
    platform, bank_keys = ["platform n"], ["bank n", "paillier n^2"]
    bundle1 = [("crt", "platform n")] * 2 + [("plain", "elgamal p")] * 2  # core, link; ElGamal c1, c2
    bundle2_platform = [("crt", "platform n"), ("plain", "bank n"), ("plain", "paillier n^2")]
    assert calls == [
        ("verify_bundle", platform, sorted(bundle1), True),  # step 1, platform
        ("verify_bundle", platform, sorted(bundle2_platform), True),  # step 2, platform
        ("verify_equality", platform, sorted(bundle1 + bundle2_platform), True),
        ("verify_bundle", bank_keys, sorted([("crt", "bank n"), ("crt", "paillier n^2"),
                                             ("plain", "platform n")]), True),  # the bank
    ]


def _baseline_order(context, user, register=True):
    if register:
        parties.baseline_register(context, user)
    params = OrderParams("BTC", 100, ("a0",))
    return parties.open_order(context, user.party_id, params), params


def test_baseline_identity_failure_is_sent_with_its_cause():
    context, _ = build_context(_base_cfg(mode="baseline"))
    alice = context.users[0]
    order, params = _baseline_order(context, alice, register=False)  # no user id to look up
    parties.baseline_identity(context, alice, order, params)
    assert order.state == "failed" and order.failure_cause == "identity"
    _assert_rejection_sent(context, "baseline-identity-rejected", "identity", order)
    assert context.net.events[-1].mtype == "baseline-identity-rejected"


def test_baseline_bank_failure_is_sent_with_its_cause():
    context, _ = build_context(_base_cfg(mode="baseline"))
    alice = context.users[0]
    order, params = _baseline_order(context, alice)
    alice.bank_account = 99  # an account the bank does not hold
    parties.baseline_identity(context, alice, order, params)
    parties.baseline_bank(context, alice, order)
    assert order.state == "failed" and order.failure_cause == "bank-verify"
    _assert_rejection_sent(context, "fiat-rejected", "bank-verify", order)
    assert context.net.events[-1].mtype == "fiat-rejected"


@settings(derandomize=True)
@given(amount=st.integers(min_value=0, max_value=10**12), parts=st.integers(min_value=1, max_value=12),
       seed=st.integers(min_value=0, max_value=2**32))
def test_split_amount_is_a_composition(amount, parts, seed):
    split = parties._split_amount(amount, parts, random.Random(seed))
    assert len(split) == parts and min(split) >= 0 and sum(split) == amount
    if parts == 1:
        assert split == [amount]
