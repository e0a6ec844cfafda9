"""Security property suite: taint and blindness scans, unlinkability,
the tamper/mutation matrix, conservation, audit branches, replay protection,
and address hygiene. Each property reports one pass/fail line; the same
checks back the acceptance tests."""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

from .credentials import (
    BANK_ATTRIBUTES,
    PLATFORM_ATTRIBUTES,
    Credential,
    Schema,
    Wallet,
    create_credential_request,
    holder_finalize_credential,
    issue_credential,
    publish_definition,
    verify_credential_request,
)
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


def _relink(bundle: PresentationBundle, **fields) -> PresentationBundle:
    """`bundle` with `fields` replaced in its one link arm."""
    (arm,) = bundle.link_proofs
    return dataclasses.replace(bundle, link_proofs=(dataclasses.replace(arm, **fields),))


def _chained(bundle1: PresentationBundle,
             bundle2: PresentationBundle) -> tuple[PresentationBundle, PresentationBundle]:
    """The pair with bundle 2 chained onto bundle 1 as it stands."""
    return bundle1, dataclasses.replace(bundle2, prev_digest=bundle_digest(bundle1))


def mutation_cases(fx: _Fixture | None = None, with_keys: bool = False) -> list[tuple[str, bool]]:
    """Enumerated tamper matrix. Each entry is (case name, accepted); a sound
    system accepts none of them. With `with_keys`, verifiers pass their own
    key pairs: the platform's for bundle 1, the request proof and the
    equality checks, and all three for bundle 2, so every one of its
    equations is evaluated mod the primes."""
    fx = fx or build_fixture()
    registry, nonce, enc_keys = fx.registry, fx.nonce, fx.enc_keys
    own1 = (fx.platform_keys,) if with_keys else ()
    own2 = (fx.platform_keys, fx.bank_keys, fx.bank_enc) if with_keys else ()
    cases: list[tuple[str, bool]] = []

    def verify1(bundle) -> bool:
        return verify_bundle(registry, bundle, nonce, enc_keys, expected_prev=b"", own_keys=own1)

    def verify2(bundle) -> bool:
        return verify_bundle(registry, bundle, nonce, enc_keys,
                             expected_prev=bundle_digest(fx.bundle1), own_keys=own2)

    def equality(bundle1, bundle2) -> bool:
        return verify_equality(registry, bundle1, bundle2, "ssn", nonce, enc_keys, own_keys=own1)

    # CL signature field and attribute mutations
    slots = [fx.wallet.link_secret.value] + [fx.vc_pu.attributes[n] for n in PLATFORM_ATTRIBUTES]
    sig = fx.vc_pu.signature
    pk = fx.platform_defn.public_key
    cases.append(("cl-sig:a+1", cl_verify(pk, slots, dataclasses.replace(sig, a=sig.a + 1))))
    cases.append(("cl-sig:e+2", cl_verify(pk, slots, dataclasses.replace(sig, e=sig.e + 2))))
    cases.append(("cl-sig:v+1", cl_verify(pk, slots, dataclasses.replace(sig, v=sig.v + 1))))
    for i, name in enumerate(["link"] + list(PLATFORM_ATTRIBUTES)):
        mutated = list(slots)
        mutated[i] += 1
        cases.append((f"cl-sig:attr-{name}+1", cl_verify(pk, mutated, sig)))

    # issuer signature-correctness proof, under the nonce it was issued with
    proof = fx.vc_pu.signature_proof
    for field_name in ("challenge", "s_e"):
        bad = dataclasses.replace(proof, **{field_name: getattr(proof, field_name) + 1})
        cases.append((f"sig-proof:{field_name}+1",
                      holder_accepts(fx, dataclasses.replace(fx.vc_pu, signature_proof=bad))))

    # integer commitment opening
    ck = CommitmentKey.derive(pk.n, pk.s, label="matrix")
    c_obj, r = commit(ck, 777, rng=fx.rng, profile=fx.profile)
    cases.append(("commitment:m+1", open_verify(ck, c_obj, 778, r)))
    cases.append(("commitment:r+1", open_verify(ck, c_obj, 777, r + 1)))

    # credential request proof
    request, _ = create_credential_request(fx.wallet.link_secret, fx.platform_defn,
                                           b"matrix-nonce", fx.rng)
    issuer = fx.platform_keys if with_keys else None
    cases.append(("cred-request:blinded+1", verify_credential_request(
        fx.platform_defn, dataclasses.replace(request, blinded=request.blinded + 1), issuer)))
    cases.append(("cred-request:blinded-non-unit", verify_credential_request(
        fx.platform_defn, dataclasses.replace(request, blinded=fx.platform_keys.p), issuer)))
    for field_name in ("challenge", "s_m", "s_r"):
        bad_proof = dataclasses.replace(request.proof,
                                        **{field_name: getattr(request.proof, field_name) + 1})
        cases.append((f"cred-request:{field_name}+1", verify_credential_request(
            fx.platform_defn, dataclasses.replace(request, proof=bad_proof), issuer)))

    # presentation responses, both bundles
    for tag, bundle, checker in (("vp1", fx.bundle1, verify1), ("vp2", fx.bundle2, verify2)):
        pres = bundle.presentation
        for field_name in ("a_prime", "e_hat", "v_hat"):
            bad = dataclasses.replace(pres, **{field_name: getattr(pres, field_name) + 1})
            cases.append((f"{tag}:{field_name}+1", checker(dataclasses.replace(bundle, presentation=bad))))
        cases.append((f"{tag}:challenge+1", checker(dataclasses.replace(bundle, challenge=bundle.challenge + 1))))
        for attr in pres.m_hats:
            hats = dict(pres.m_hats)
            hats[attr] += 1
            bad = dataclasses.replace(pres, m_hats=hats)
            cases.append((f"{tag}:m_hat[{attr}]+1",
                          checker(dataclasses.replace(bundle, presentation=bad))))
    # A' sharing a factor with n, in bundle 1 under the platform's n and bundle 2 under the bank's
    for tag, bundle, checker, prime in (("vp1", fx.bundle1, verify1, fx.platform_keys.p),
                                        ("vp2", fx.bundle2, verify2, fx.bank_keys.q)):
        bad = dataclasses.replace(bundle.presentation, a_prime=prime)
        cases.append((f"{tag}:a_prime-non-unit", checker(dataclasses.replace(bundle, presentation=bad))))
    cases.append(("vp1:nonce-swap", verify_bundle(
        registry, fx.bundle1, b"some-other-nonce", enc_keys, expected_prev=b"", own_keys=own1)))
    cases.append(("vp2:prev-digest-tamper", verify_bundle(
        registry, fx.bundle2, nonce, enc_keys, expected_prev=b"wrong", own_keys=own2)))
    disclosed = dict(fx.bundle2.presentation.disclosed)
    disclosed["bank_name"] += 1
    bad_pres = dataclasses.replace(fx.bundle2.presentation, disclosed=disclosed)
    cases.append(("vp2:disclosed+1", verify2(dataclasses.replace(fx.bundle2, presentation=bad_pres))))

    # link arms
    for tag, bundle, checker in (("vp1", fx.bundle1, verify1), ("vp2", fx.bundle2, verify2)):
        arm = bundle.link_proofs[0]
        for field_name in ("commitment", "r_hat"):
            bad_arm = dataclasses.replace(arm, **{field_name: getattr(arm, field_name) + 1})
            cases.append((f"{tag}:link-{field_name}+1",
                          checker(dataclasses.replace(bundle, link_proofs=(bad_arm,)))))
        # the commitment modulus is the platform's n
        bad_arm = dataclasses.replace(arm, commitment=fx.platform_keys.q)
        cases.append((f"{tag}:link-commitment-non-unit",
                      checker(dataclasses.replace(bundle, link_proofs=(bad_arm,)))))

    # verifiable-encryption arms
    arm = fx.bundle1.enc_proofs[0]
    for idx, label in ((0, "c1"), (1, "c2")):
        parts = list(arm.ciphertext.parts)
        parts[idx] += 1
        bad_arm = dataclasses.replace(arm, ciphertext=dataclasses.replace(
            arm.ciphertext, parts=tuple(parts)))
        cases.append((f"verenc-eg:{label}+1",
                      verify1(dataclasses.replace(fx.bundle1, enc_proofs=(bad_arm,)))))
    cases.append(("verenc-eg:r_hat+1", verify1(dataclasses.replace(
        fx.bundle1, enc_proofs=(dataclasses.replace(arm, r_hat=arm.r_hat + 1),)))))
    # the only non-unit mod the ElGamal prime p is 0, here written as p itself
    for idx, label in ((0, "c1"), (1, "c2")):
        parts = list(arm.ciphertext.parts)
        parts[idx] = fx.aa_keys.public.p
        bad_arm = dataclasses.replace(arm, ciphertext=dataclasses.replace(
            arm.ciphertext, parts=tuple(parts)))
        cases.append((f"verenc-eg:{label}-non-unit",
                      verify1(dataclasses.replace(fx.bundle1, enc_proofs=(bad_arm,)))))
    other_ct = elgamal_encrypt(fx.aa_keys.public, 999, rng=fx.rng)
    cases.append(("verenc-eg:ciphertext-swap", verify1(dataclasses.replace(
        fx.bundle1, enc_proofs=(dataclasses.replace(arm, ciphertext=other_ct),)))))

    parm = fx.bundle2.enc_proofs[0]
    bad_ct = dataclasses.replace(parm.ciphertext, parts=(parm.ciphertext.parts[0] + 1,))
    cases.append(("verenc-paillier:c+1", verify2(dataclasses.replace(
        fx.bundle2, enc_proofs=(dataclasses.replace(parm, ciphertext=bad_ct),)))))
    for label, ct in (("c-non-unit-p", fx.bank_enc.p), ("c-non-unit-p2", fx.bank_enc.p ** 2)):
        bad_ct = dataclasses.replace(parm.ciphertext, parts=(ct,))
        cases.append((f"verenc-paillier:{label}", verify2(dataclasses.replace(
            fx.bundle2, enc_proofs=(dataclasses.replace(parm, ciphertext=bad_ct),)))))
    # the integer response lies in [0, 2^(|n| + 2 stat + challenge + 1))
    r_hat_bound = 1 << (fx.bank_enc.public.n.bit_length() + 2 * fx.profile.stat_bits
                        + fx.profile.challenge_bits + 1)
    for label, r_hat in (("r_hat+1", parm.r_hat + 1), ("r_hat-negative", -parm.r_hat),
                         ("r_hat-at-bound", r_hat_bound)):
        cases.append((f"verenc-paillier:{label}", verify2(dataclasses.replace(
            fx.bundle2, enc_proofs=(dataclasses.replace(parm, r_hat=r_hat),)))))
    other_pct = paillier_encrypt(fx.bank_enc.public, 42, rng=fx.rng)
    cases.append(("verenc-paillier:ciphertext-swap", verify2(dataclasses.replace(
        fx.bundle2, enc_proofs=(dataclasses.replace(parm, ciphertext=other_pct),)))))

    # predicate arms: T_0 shifted by R or sharing a factor with the platform's
    # n, T_0 and T_1 swapped, each kind of response moved, and malformed fields
    pred = fx.bundle1.predicate_proofs[0]
    ckey = commitment_key_for(fx.platform_defn)
    t0, t1, *rest = pred.squares
    bad_preds = {"T0-shift": {"squares": (t0 * ckey.r_base % ckey.n, t1, *rest)},
                 "T-swap": {"squares": (t1, t0, *rest)},
                 "T0-non-unit": {"squares": (fx.platform_keys.p, t1, *rest)},
                 "threshold+1": {"threshold": pred.threshold + 1},
                 "rho_hat+1": {"rho_hat": pred.rho_hat + 1},
                 "u_hats[0]+1": {"u_hats": (pred.u_hats[0] + 1, *pred.u_hats[1:])},
                 "r_hats[0]+1": {"r_hats": (pred.r_hats[0] + 1, *pred.r_hats[1:])},
                 "squares-three": {"squares": pred.squares[:3]},
                 "u_hats-five": {"u_hats": pred.u_hats + (0,)},
                 "r_hats-int": {"r_hats": pred.r_hats[0]},
                 "u_hats[0]-str": {"u_hats": ("1", *pred.u_hats[1:])},
                 "rho_hat-str": {"rho_hat": str(pred.rho_hat)}}
    for label, fields in bad_preds.items():
        cases.append((f"predicate:{label}", verify1(dataclasses.replace(
            fx.bundle1, predicate_proofs=(dataclasses.replace(pred, **fields),)))))

    # equality splices across sessions with different SSNs: the other session's
    # commitment in both link arms, or one link response, with bundle 2
    # chained onto the spliced bundle 1 so that only the proofs can refuse
    other = build_fixture(seed=1302, ssn=987_654_321)
    foreign = other.bundle1.link_proofs[0]
    cases.append(("equality:foreign-commitment", equality(*_chained(
        _relink(fx.bundle1, commitment=foreign.commitment), _relink(fx.bundle2, commitment=foreign.commitment)))))
    cases.append(("equality:foreign-r_hat_a", equality(*_chained(
        _relink(fx.bundle1, r_hat=foreign.r_hat), fx.bundle2))))
    cases.append(("equality:foreign-r_hat_b", equality(
        fx.bundle1, _relink(fx.bundle2, r_hat=other.bundle2.link_proofs[0].r_hat))))
    cases.append(("equality:foreign-bundle2", equality(fx.bundle1, other.bundle2)))
    cases.append(("equality:foreign-bundle1", equality(other.bundle1, fx.bundle2)))

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
            pair[i] = _relink(pair[i], **{name: getattr(donors[i].link_proofs[0], name)})
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
