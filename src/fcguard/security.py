"""Security property suite: taint and blindness scans, unlinkability,
the tamper/mutation matrix, conservation, audit branches, replay protection,
and address hygiene. Each property reports one pass/fail line; the same
checks back the acceptance tests."""

from __future__ import annotations

import dataclasses
import random
import typing
from dataclasses import dataclass

from .credentials import (
    BANK_ATTRIBUTES,
    PLATFORM_ATTRIBUTES,
    Credential,
    CredentialRequest,
    Schema,
    Wallet,
    create_credential_request,
    holder_finalize_credential,
    issue_credential,
    publish_definition,
    verify_credential_request,
)
from .crypto.ciphertext import Ciphertext
from .crypto.cl import cl_verify, cl_keygen
from .crypto.commitment import CommitmentKey, commit, open_verify
from .crypto.elgamal import elgamal_encrypt, elgamal_keygen
from .crypto.paillier import paillier_encrypt, paillier_keygen
from .errors import VerificationError
from .ledger import Registry
from .params import TOY, Profile
from .presentations import (
    EncryptionSpec,
    PredicateSpec,
    PresentationBundle,
    ProofSession,
    bundle_digest,
    commitment_key_for,
    verify_bundle,
    verify_equality,
)
from .scenario import bank_taint_hits, platform_taint_hits, random_scenario, run_scenario


@dataclass
class PropertyResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


def presentation_randomized_fields(bundle: PresentationBundle) -> set[int]:
    """Every field of a bundle that fresh proof randomness should make unique:
    the randomized signature value, the challenge, and all responses."""
    pres = bundle.presentation
    values = {pres.a_prime, pres.e_hat, pres.v_hat, bundle.challenge}
    values.update(pres.m_hats.values())
    for arm in bundle.link_proofs:
        values.add(arm.r_hat)
    for arm in bundle.enc_proofs:
        values.add(arm.r_hat)
        values.update(arm.ciphertext.parts)
    for arm in bundle.predicate_proofs:
        values.update(arm.squares + arm.u_hats + arm.r_hats + (arm.rho_hat,))
    return values


@dataclass
class _Fixture:
    """Toy-profile environment with two issuers, two credentials sharing an
    SSN, and a full two-bundle session, used by the mutation matrix."""

    registry: Registry
    profile: Profile
    wallet: Wallet
    platform_defn: object
    platform_schema: Schema
    bank_defn: object
    bank_schema: Schema
    platform_keys: object
    bank_keys: object
    vc_pu: object
    vc_pu_nonce: bytes  # the nonce vc_pu was issued under
    vc_bu: object
    nonce: bytes
    bundle1: PresentationBundle
    bundle2: PresentationBundle
    enc_keys: dict
    aa_keys: object
    bank_enc: object
    rng: random.Random


def build_fixture(seed: int = 1301, ssn: int = 123_456_789) -> _Fixture:
    rng = random.Random(f"security-fixture:{seed}")
    profile = TOY
    registry = Registry()
    platform_keys = cl_keygen(4, profile, rng)
    bank_keys = cl_keygen(4, profile, rng)
    p_schema = Schema(f"schema:platform:{seed}", "platform", PLATFORM_ATTRIBUTES)
    b_schema = Schema(f"schema:bank:{seed}", "bank", BANK_ATTRIBUTES)
    _, p_defn = publish_definition(registry, platform_keys, p_schema, f"defn:platform:{seed}", profile)
    _, b_defn = publish_definition(registry, bank_keys, b_schema, f"defn:bank:{seed}", profile)
    wallet = Wallet.create(profile, rng)

    def issue(defn, schema, keys, values):
        nonce = rng.getrandbits(128).to_bytes(16, "big")
        request, v_prime = create_credential_request(wallet.link_secret, defn, nonce, rng)
        cred = issue_credential(keys, defn, schema, request, values, rng)
        return holder_finalize_credential(defn, schema, cred, wallet.link_secret, v_prime, nonce), nonce

    vc_pu, vc_pu_nonce = issue(p_defn, p_schema, platform_keys,
                               {"name": "Holder", "birthday": 19900101, "ssn": ssn})
    vc_bu, _ = issue(b_defn, b_schema, bank_keys,
                     {"bank_name": "Bank of A", "bank_account": 12_345_678_901_234_567, "ssn": ssn})
    wallet.store(vc_pu)
    wallet.store(vc_bu)

    aa_keys = elgamal_keygen(profile, rng)
    bank_enc = paillier_keygen(profile, rng)
    nonce = rng.getrandbits(128).to_bytes(16, "big")
    session = ProofSession(registry, nonce, rng, commitment_source=p_defn.defn_id)
    bundle1 = session.build_bundle(
        p_defn, p_schema, vc_pu, wallet.link_secret, disclose=(), link={"ssn": "ssn"},
        encrypt=[EncryptionSpec("ssn", aa_keys.public)],
        predicates=[PredicateSpec("birthday", 20070101)])
    bundle2 = session.build_bundle(
        b_defn, b_schema, vc_bu, wallet.link_secret, disclose=("bank_name",),
        link={"ssn": "ssn"}, encrypt=[EncryptionSpec("bank_account", bank_enc.public)])
    enc_keys = {aa_keys.public.key_id(): aa_keys.public,
                bank_enc.public.key_id(): bank_enc.public}
    return _Fixture(registry=registry, profile=profile, wallet=wallet,
                    platform_defn=p_defn, platform_schema=p_schema,
                    bank_defn=b_defn, bank_schema=b_schema, platform_keys=platform_keys,
                    bank_keys=bank_keys, vc_pu=vc_pu, vc_pu_nonce=vc_pu_nonce, vc_bu=vc_bu,
                    nonce=nonce, bundle1=bundle1, bundle2=bundle2, enc_keys=enc_keys, aa_keys=aa_keys,
                    bank_enc=bank_enc, rng=rng)


def holder_accepts(fx: _Fixture, credential: Credential) -> bool:
    """Whether the holder's issuance check passes `credential` as the
    fixture's platform credential: its v is complete, so v' is 0."""
    try:
        holder_finalize_credential(fx.platform_defn, fx.platform_schema, credential,
                                   fx.wallet.link_secret, 0, fx.vc_pu_nonce)
    except VerificationError:
        return False
    return True


def _rearm(bundle: PresentationBundle, kind: str, **fields) -> PresentationBundle:
    """`bundle` with `fields` replaced in its one arm of `kind`, such as
    "link_proofs"."""
    (arm,) = getattr(bundle, kind)
    return dataclasses.replace(bundle, **{kind: (dataclasses.replace(arm, **fields),)})


def _chained(bundle1: PresentationBundle,
             bundle2: PresentationBundle) -> tuple[PresentationBundle, PresentationBundle]:
    """The pair with bundle 2 chained onto bundle 1 as it stands."""
    return bundle1, dataclasses.replace(bundle2, prev_digest=bundle_digest(bundle1))


def leaf_mutations(value, tp, target: str):
    """Every single-field tamper of `value`, an object of type `tp`, as
    (case name, mutated object): at each position (the root, each dataclass
    field, tuple element and dict value, walked by the annotations as
    `serialize.conforms` walks them) each value of the wrong type, and at
    each int leaf the value + 1. The name is the path, as in
    `vp2:enc_proofs[0].r_hat+1` or `vp1:challenge = None`."""
    for path, leaf, leaf_tp, rebuild in _positions(value, tp, "", lambda new: new):
        name = f"{target}:{path}" if path else target
        if leaf_tp is int:
            yield f"{name}+1", rebuild(leaf + 1)
        for wrong in _wrong_values(leaf_tp):
            yield f"{name} = {wrong!r}", rebuild(wrong)


def _positions(value, tp, path: str, rebuild):
    """(path, value, type, rebuild) for `value` and, recursively, every field
    of a dataclass, element of a tuple and value of a dict below it;
    `rebuild` maps a replacement at that position to the whole object."""
    yield path, value, tp, rebuild
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        for f in dataclasses.fields(tp):
            yield from _positions(getattr(value, f.name), hints[f.name], f"{path}.{f.name}".lstrip("."),
                                  lambda new, f=f: rebuild(dataclasses.replace(value, **{f.name: new})))
    elif origin is tuple:
        for i, item in enumerate(value):
            yield from _positions(item, args[0], f"{path}[{i}]",
                                  lambda new, i=i: rebuild((*value[:i], new, *value[i + 1:])))
    elif origin is dict:
        for key, item in value.items():
            yield from _positions(item, args[1], f"{path}[{key!r}]",
                                  lambda new, key=key: rebuild({**value, key: new}))


def _wrong_values(tp) -> list:
    """Values of the wrong type for a position annotated `tp`: None, a str, a
    list (but not at a tuple, which a list may stand for), True for an int,
    and an int for a str, bytes, tuple, dict or dataclass."""
    wrong = [None]
    if tp is not str:
        wrong.append("x")
    if typing.get_origin(tp) is not tuple:
        wrong.append(["x"])
    wrong.append(True if tp is int else 1)
    return wrong


def mutation_targets(fx: _Fixture, with_keys: bool = False) -> dict[str, tuple]:
    """The four objects the tamper matrix mutates, each as (honest object,
    type, accepts): bundle 1 and bundle 2, each checked alone and in the
    equality check with the other fixture bundle, a credential request and
    the platform credential, checked as the holder checks it. With
    `with_keys`, verifiers pass their own key pairs: the platform's for
    bundle 1, the request proof and the equality checks, and all three for
    bundle 2, so every one of its equations is evaluated mod the primes."""
    registry, nonce, enc_keys = fx.registry, fx.nonce, fx.enc_keys
    own2 = (fx.platform_keys, fx.bank_keys, fx.bank_enc) if with_keys else ()
    own1 = own2[:1]
    prev = bundle_digest(fx.bundle1)
    request, _ = create_credential_request(fx.wallet.link_secret, fx.platform_defn,
                                           b"matrix-nonce", fx.rng)

    def equality(bundle1, bundle2) -> bool:
        return verify_equality(registry, bundle1, bundle2, "ssn", nonce, enc_keys, own_keys=own1)

    return {
        "vp1": (fx.bundle1, PresentationBundle, lambda b: (
            verify_bundle(registry, b, nonce, enc_keys, expected_prev=b"", own_keys=own1)
            or equality(b, fx.bundle2))),
        "vp2": (fx.bundle2, PresentationBundle, lambda b: (
            verify_bundle(registry, b, nonce, enc_keys, expected_prev=prev, own_keys=own2)
            or equality(fx.bundle1, b))),
        "request": (request, CredentialRequest, lambda r: verify_credential_request(
            fx.platform_defn, r, fx.platform_keys if with_keys else None)),
        "credential": (fx.vc_pu, Credential, lambda cred: holder_accepts(fx, cred)),
    }


def mutation_cases(fx: _Fixture | None = None, with_keys: bool = False) -> list[tuple[str, bool]]:
    """Enumerated tamper matrix. Each entry is (case name, accepted); a sound
    system accepts none of them. `leaf_mutations` gives every single-field
    tamper of the four `mutation_targets`, verified with their own keys under
    `with_keys`; the named cases after them have no single-leaf form."""
    fx = fx or build_fixture()
    targets = mutation_targets(fx, with_keys)
    cases = [(name, accepts(bad)) for target, (honest, tp, accepts) in targets.items()
             for name, bad in leaf_mutations(honest, tp, target)]

    # the CL signature with e + 2, which stays odd, and with the link-secret
    # slot shifted, which no credential field holds
    slots = [fx.wallet.link_secret.value] + [fx.vc_pu.attributes[n] for n in PLATFORM_ATTRIBUTES]
    sig, pk = fx.vc_pu.signature, fx.platform_defn.public_key
    cases.append(("cl-sig:e+2", cl_verify(pk, slots, dataclasses.replace(sig, e=sig.e + 2))))
    cases.append(("cl-sig:attr-link+1", cl_verify(pk, [slots[0] + 1, *slots[1:]], sig)))

    # integer commitment opening
    ck = CommitmentKey.derive(pk.n, pk.s, label="matrix")
    c_obj, r = commit(ck, 777, rng=fx.rng, profile=fx.profile)
    cases.append(("commitment:m+1", open_verify(ck, c_obj, 778, r)))
    cases.append(("commitment:r+1", open_verify(ck, c_obj, 777, r + 1)))

    # Values sharing a factor with a modulus: the platform's n for the
    # request, bundle 1's A', both link commitments and T_0; the bank's n for
    # bundle 2's A'; and the only non-unit mod the ElGamal prime p, 0, written
    # as p. Then ciphertext swaps, the Paillier arm's integer response out of
    # [0, 2^(|n| + 2 stat + challenge + 1)), T_0 shifted by R, T_0 and T_1
    # swapped, and the predicate arm with three squares or five responses.
    vp1, vp2, request = fx.bundle1, fx.bundle2, targets["request"][0]
    c1, c2 = vp1.enc_proofs[0].ciphertext.parts
    eg_p, platform_p, platform_q = fx.aa_keys.public.p, fx.platform_keys.p, fx.platform_keys.q
    pred = vp1.predicate_proofs[0]
    t0, t1, *rest = pred.squares
    ckey = commitment_key_for(fx.platform_defn)
    r_hat_bound = 1 << (fx.bank_enc.public.n.bit_length() + 2 * fx.profile.stat_bits
                        + fx.profile.challenge_bits + 1)
    named = [
        ("cred-request:blinded-non-unit", "request", dataclasses.replace(request, blinded=platform_p)),
        ("vp1:a_prime-non-unit", "vp1", dataclasses.replace(
            vp1, presentation=dataclasses.replace(vp1.presentation, a_prime=platform_p))),
        ("vp2:a_prime-non-unit", "vp2", dataclasses.replace(
            vp2, presentation=dataclasses.replace(vp2.presentation, a_prime=fx.bank_keys.q))),
        ("vp1:link-commitment-non-unit", "vp1", _rearm(vp1, "link_proofs", commitment=platform_q)),
        ("vp2:link-commitment-non-unit", "vp2", _rearm(vp2, "link_proofs", commitment=platform_q)),
        ("verenc-eg:c1-non-unit", "vp1", _rearm(vp1, "enc_proofs", ciphertext=Ciphertext("elgamal", (eg_p, c2)))),
        ("verenc-eg:c2-non-unit", "vp1", _rearm(vp1, "enc_proofs", ciphertext=Ciphertext("elgamal", (c1, eg_p)))),
        ("verenc-eg:ciphertext-swap", "vp1", _rearm(
            vp1, "enc_proofs", ciphertext=elgamal_encrypt(fx.aa_keys.public, 999, rng=fx.rng))),
        ("verenc-paillier:c-non-unit-p", "vp2", _rearm(
            vp2, "enc_proofs", ciphertext=Ciphertext("paillier", (fx.bank_enc.p,)))),
        ("verenc-paillier:c-non-unit-p2", "vp2", _rearm(
            vp2, "enc_proofs", ciphertext=Ciphertext("paillier", (fx.bank_enc.p ** 2,)))),
        ("verenc-paillier:r_hat-negative", "vp2", _rearm(vp2, "enc_proofs", r_hat=-vp2.enc_proofs[0].r_hat)),
        ("verenc-paillier:r_hat-at-bound", "vp2", _rearm(vp2, "enc_proofs", r_hat=r_hat_bound)),
        ("verenc-paillier:ciphertext-swap", "vp2", _rearm(
            vp2, "enc_proofs", ciphertext=paillier_encrypt(fx.bank_enc.public, 42, rng=fx.rng))),
        ("predicate:T0-shift", "vp1", _rearm(
            vp1, "predicate_proofs", squares=(t0 * ckey.r_base % ckey.n, t1, *rest))),
        ("predicate:T-swap", "vp1", _rearm(vp1, "predicate_proofs", squares=(t1, t0, *rest))),
        ("predicate:T0-non-unit", "vp1", _rearm(vp1, "predicate_proofs", squares=(platform_p, t1, *rest))),
        ("predicate:squares-three", "vp1", _rearm(vp1, "predicate_proofs", squares=pred.squares[:3])),
        ("predicate:u_hats-five", "vp1", _rearm(vp1, "predicate_proofs", u_hats=pred.u_hats + (0,))),
    ]
    cases += [(name, targets[target][2](bad)) for name, target, bad in named]

    registry, nonce, enc_keys = fx.registry, fx.nonce, fx.enc_keys
    own2 = (fx.platform_keys, fx.bank_keys, fx.bank_enc) if with_keys else ()
    own1 = own2[:1]
    cases.append(("vp1:nonce-swap", verify_bundle(
        registry, vp1, b"some-other-nonce", enc_keys, expected_prev=b"", own_keys=own1)))
    cases.append(("vp2:prev-digest-tamper", verify_bundle(
        registry, vp2, nonce, enc_keys, expected_prev=b"wrong", own_keys=own2)))

    def equality(bundle1, bundle2) -> bool:
        return verify_equality(registry, bundle1, bundle2, "ssn", nonce, enc_keys, own_keys=own1)

    # equality splices across sessions with different SSNs: the other session's
    # commitment in both link arms, or one link response, with bundle 2
    # chained onto the spliced bundle 1 so that only the proofs can refuse
    other = build_fixture(seed=1302, ssn=987_654_321)
    foreign = other.bundle1.link_proofs[0]
    cases.append(("equality:foreign-commitment", equality(*_chained(
        _rearm(vp1, "link_proofs", commitment=foreign.commitment),
        _rearm(vp2, "link_proofs", commitment=foreign.commitment)))))
    cases.append(("equality:foreign-r_hat_a", equality(*_chained(
        _rearm(vp1, "link_proofs", r_hat=foreign.r_hat), vp2))))
    cases.append(("equality:foreign-r_hat_b", equality(
        vp1, _rearm(vp2, "link_proofs", r_hat=other.bundle2.link_proofs[0].r_hat))))
    cases.append(("equality:foreign-bundle2", equality(vp1, other.bundle2)))
    cases.append(("equality:foreign-bundle1", equality(other.bundle1, vp2)))
    return cases


def splice_harness(trials: int = 50, seed: int = 77, with_keys: bool = False) -> tuple[int, int]:
    """Random splices across two unequal-SSN sessions: one to three link-arm
    fields from the other session, maybe a whole foreign bundle, maybe bundle
    2 chained onto the spliced bundle 1; returns (trials, rejected). With
    `with_keys` the verifying platform passes its own key pair."""
    fx_a = build_fixture(seed=seed, ssn=111_111_111)
    fx_b = build_fixture(seed=seed + 1, ssn=222_222_222)
    rng = random.Random(f"splice:{seed}")
    donors = (fx_b.bundle1, fx_b.bundle2)
    slots = [(i, name) for i in range(2) for name in ("commitment", "r_hat")]
    rejected = 0
    for _ in range(trials):
        pair = [fx_a.bundle1, fx_a.bundle2]
        for i, name in rng.sample(slots, k=rng.randrange(1, 4)):
            pair[i] = _rearm(pair[i], "link_proofs", **{name: getattr(donors[i].link_proofs[0], name)})
        if rng.getrandbits(1):
            i = rng.randrange(2)
            pair[i] = donors[i]
        if rng.getrandbits(1):
            pair = _chained(*pair)
        ok = verify_equality(fx_a.registry, *pair, "ssn", fx_a.nonce, fx_a.enc_keys,
                             own_keys=(fx_a.platform_keys,) if with_keys else ())
        if not ok:
            rejected += 1
    return trials, rejected


# ---------------------------------------------------------------------------
# suite driver


def check_platform_blindness(seed: int, scenario_count: int = 20,
                             control_mode: str = "fcguard") -> PropertyResult:
    """Zero SSN or account encodings on the platform's exchange and audit
    tapes across randomized scenarios, with the plaintext baseline as the
    positive control that the scan actually bites."""
    leaks = []
    for i in range(scenario_count):
        result = run_scenario(random_scenario(seed + i, mode=control_mode))
        leaks.extend(platform_taint_hits(result))
    control = run_scenario(random_scenario(seed + 990, mode="baseline"))
    control_hits = platform_taint_hits(control)
    if control_mode == "baseline":
        # negative-control run: the property is expected to FAIL loudly
        return PropertyResult("platform-blindness", not leaks,
                              f"{len(leaks)} secret encodings on the baseline tape")
    ok = not leaks and bool(control_hits)
    detail = (f"0 leaks across {scenario_count} scenarios; baseline control caught "
              f"{len(control_hits)}") if ok else f"leaks={leaks}, control={len(control_hits)}"
    return PropertyResult("platform-blindness", ok, detail)


def check_bank_blindness(seed: int, scenario_count: int = 20) -> PropertyResult:
    leaks = []
    for i in range(scenario_count):
        result = run_scenario(random_scenario(seed + i))
        leaks.extend(bank_taint_hits(result))
    ok = not leaks
    return PropertyResult("bank-blindness", ok,
                          f"0 crypto addresses on the bank tape across {scenario_count} scenarios"
                          if ok else f"leaked addresses: {leaks}")


def check_unlinkability(seed: int, presentations: int = 100) -> PropertyResult:
    fx = build_fixture(seed=seed)
    rng = random.Random(f"unlink:{seed}")
    seen: dict[int, int] = {}
    for i in range(presentations):
        nonce = rng.getrandbits(128).to_bytes(16, "big")
        session = ProofSession(fx.registry, nonce, rng, commitment_source=fx.platform_defn.defn_id)
        bundle = session.build_bundle(fx.platform_defn, fx.platform_schema, fx.vc_pu,
                                      fx.wallet.link_secret, disclose=(),
                                      link={"ssn": "ssn"},
                                      encrypt=[EncryptionSpec("ssn", fx.aa_keys.public)],
                                      predicates=[PredicateSpec("birthday", 20070101)])  # 18 on 2025-01-01
        if not verify_bundle(fx.registry, bundle, nonce, fx.enc_keys):
            return PropertyResult("unlinkability", False, f"presentation {i} failed verification")
        for value in presentation_randomized_fields(bundle):
            if value in seen:
                return PropertyResult("unlinkability", False,
                                      f"presentations {seen[value]} and {i} share a field value")
            seen[value] = i
    cts = {elgamal_encrypt(fx.aa_keys.public, 123_456_789, rng=rng).parts
           for _ in range(presentations)}
    if len(cts) != presentations:
        return PropertyResult("unlinkability", False, "repeated SSN ciphertexts")
    return PropertyResult("unlinkability", True,
                          f"{presentations} presentations pairwise-distinct; "
                          f"{presentations} SSN ciphertexts pairwise-distinct")


def check_tamper_matrix(min_cases: int = 50) -> PropertyResult:
    cases = mutation_cases()
    accepted = [name for name, ok in cases if ok]
    trials, rejected = splice_harness()
    count = len(cases) + trials
    ok = not accepted and rejected == trials and count >= min_cases
    detail = (f"{count} tamper cases (incl. {trials} random splices), 0 false accepts"
              if ok else f"accepted: {accepted}; splices rejected {rejected}/{trials}")
    return PropertyResult("tamper-matrix", ok, detail)


def check_conservation(seed: int, scenario_count: int = 10) -> PropertyResult:
    for i in range(scenario_count):
        result = run_scenario(random_scenario(seed + i))
        ok, detail = result.assertion_results.get("conservation", (False, "missing"))
        if not ok:
            return PropertyResult("conservation", False, f"scenario {i}: {detail}")
    return PropertyResult("conservation", True,
                          f"fiat and crypto totals conserved across {scenario_count} scenarios")


def check_audit_branches(seed: int, users: int = 10) -> PropertyResult:
    cfg = random_scenario(seed, n_users=users, orders_per_user=1)
    for i, order in enumerate(cfg["orders"]):
        order["self_report"] = i % 2 == 0
    cfg["assertions"] = ["audit_branches", "conservation"]
    result = run_scenario(cfg)
    ok, detail = result.assertion_results["audit_branches"]
    reported = sum(1 for o in cfg["orders"] if o["self_report"])
    expected_decrypts = len(cfg["orders"]) - reported
    ok = ok and result.ctx.authority.decrypt_count == expected_decrypts
    return PropertyResult("audit-branches", ok,
                          f"{users} users: {reported} compliant without decryption, "
                          f"{expected_decrypts} de-anonymized" if ok else detail)


def check_replay_protection(seed: int) -> PropertyResult:
    cfg = random_scenario(seed, n_users=1)
    cfg["orders"] = [{"user": 0, "crypto_amount": 300, "address_count": 2, "attack": "replay"}]
    cfg["assertions"] = ["replay_failed_mfa", "conservation", "failed_no_movement"]
    result = run_scenario(cfg)
    bad = [name for name, (ok, _) in result.assertion_results.items() if not ok]
    ok = not bad
    return PropertyResult("replay-protection", ok,
                          "stolen bundle failed at mfa with no money movement"
                          if ok else f"failed checks: {bad}")


def check_address_hygiene(seed: int) -> PropertyResult:
    cfg = random_scenario(seed, n_users=4, orders_per_user=5)
    cfg["rotation_epoch"] = 5
    cfg["pool_size"] = 3
    for order in cfg["orders"]:
        order["address_count"] = 3
    cfg["assertions"] = ["address_hygiene", "orders_complete", "conservation"]
    for user in cfg["users"]:
        user["balance"] = 10_000_000
    result = run_scenario(cfg)
    bad = [name for name, (ok, _) in result.assertion_results.items() if not ok]
    if not release_delays_in_window(result):
        bad.append("release-window")
    detail = result.assertion_results["address_hygiene"][1]
    return PropertyResult("address-hygiene", not bad,
                          detail + "; releases inside [0, D]" if not bad else f"failed checks: {bad}")


def release_delays_in_window(result) -> bool:
    """Every chain transfer crediting an order lands within [0, delay_max]
    simulated milliseconds of that order's fiat settlement."""
    ctx = result.ctx
    owner = {}
    for outcome in result.orders:
        for address in outcome.addresses:
            owner[address] = outcome.order_id
    settle_time = {}
    for order_id, order in ctx.platform.orders.items():
        for frm, to, t in order.transitions:
            if to == "fiat-settled":
                settle_time[order_id] = t
    for tx in ctx.chain.all_txs():
        order_id = owner.get(tx.recipient)
        if order_id is None or order_id not in settle_time:
            continue
        delay = tx.timestamp_ms - settle_time[order_id]
        if not 0 <= delay <= ctx.delay_max_ms:
            return False
    return True


def run_security_suite(seed: int = 9000, scenario_count: int = 20,
                       negative_control: bool = False) -> list[PropertyResult]:
    control_mode = "baseline" if negative_control else "fcguard"
    results = [
        check_platform_blindness(seed, scenario_count, control_mode=control_mode),
        check_bank_blindness(seed + 100, scenario_count),
        check_unlinkability(seed + 200),
        check_tamper_matrix(),
        check_conservation(seed + 300),
        check_audit_branches(seed + 400),
        check_replay_protection(seed + 500),
        check_address_hygiene(seed + 600),
    ]
    return results
