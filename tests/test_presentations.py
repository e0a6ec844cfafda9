import dataclasses
import random

import pytest

from fcguard import presentations
from fcguard.crypto import primes, sigma
from fcguard.crypto.ciphertext import Ciphertext
from fcguard.crypto.elgamal import elgamal_decrypt
from fcguard.crypto.paillier import paillier_decrypt, paillier_hs
from fcguard.errors import ProofRefusedError, SchemaMismatchError
from fcguard.presentations import (
    LINK_NAME,
    PresentationBundle,
    ProofSession,
    bundle_digest,
    create_presentation,
    verify_bundle,
    verify_equality,
)
from fcguard.security import build_fixture, leaf_mutations
from fcguard.serialize import canonical_int_hex, dumps


def _session(env, nonce=None):
    nonce = nonce or env.fresh_nonce()
    return nonce, ProofSession(env.registry, nonce, env.rng,
                               commitment_source=env.platform_defn.defn_id)


def _alone(env, **fields):
    """The statement of a standalone bundle over the platform credential."""
    return {"defn_id": env.platform_defn.defn_id, "commitment_source": env.platform_defn.defn_id, **fields}


def _aged(env, threshold):
    return _alone(env, predicates=(("birthday", threshold),))


def _exchange_bundles(env, nonce=None):
    nonce, session = _session(env, nonce)
    b1 = session.build_bundle(env.vc_pu, env.wallet.link_secret, **env.statement1)
    b2 = session.build_bundle(env.vc_bu, env.wallet.link_secret, **env.statement2)
    return nonce, b1, b2


def test_bank_presentation_discloses_only_bank_name(toy_env):
    nonce, _, b2 = _exchange_bundles(toy_env)
    assert set(b2.presentation.disclosed) == {"bank_name"}
    assert b2.presentation.disclosed["bank_name"] == toy_env.vc_bu.attributes["bank_name"]
    hidden = set(b2.presentation.hidden_names)
    assert hidden == {LINK_NAME, "bank_account", "ssn"}


def test_disclose_all_degenerate_case(toy_env):
    nonce = toy_env.fresh_nonce()
    bundle = create_presentation(toy_env.registry, toy_env.vc_pu, toy_env.wallet.link_secret,
                                 disclose=("name", "birthday", "ssn"), nonce=nonce,
                                 rng=toy_env.rng)
    assert bundle.presentation.disclosed == toy_env.vc_pu.attributes
    assert bundle.presentation.hidden_names == (LINK_NAME,)
    assert verify_bundle(toy_env.registry, bundle, nonce, **_alone(toy_env, disclose=("name", "birthday", "ssn")))


def test_honest_presentation_verifies(toy_env):
    nonce = toy_env.fresh_nonce()
    bundle = create_presentation(toy_env.registry, toy_env.vc_pu, toy_env.wallet.link_secret,
                                 disclose=(), nonce=nonce, rng=toy_env.rng)
    assert verify_bundle(toy_env.registry, bundle, nonce, **_alone(toy_env))


def test_replay_under_new_nonce_fails(toy_env):
    nonce = toy_env.fresh_nonce()
    bundle = create_presentation(toy_env.registry, toy_env.vc_pu, toy_env.wallet.link_secret,
                                 disclose=(), nonce=nonce, rng=toy_env.rng)
    assert not verify_bundle(toy_env.registry, bundle, toy_env.fresh_nonce(), **_alone(toy_env))


def test_unknown_disclosure_attribute_rejected(toy_env):
    with pytest.raises(SchemaMismatchError):
        create_presentation(toy_env.registry, toy_env.vc_pu, toy_env.wallet.link_secret,
                            disclose=("nickname",), nonce=b"n", rng=toy_env.rng)


def test_exhaustive_single_field_mutation_rejected(toy_env):
    # oracle: every int leaf of the bundle shifted by one, all must fail
    nonce, b1, _ = _exchange_bundles(toy_env)
    assert verify_bundle(toy_env.registry, b1, nonce, **toy_env.statement1)
    shifted = [bad for name, bad in leaf_mutations(b1, PresentationBundle, "b1") if " = " not in name]
    # A', e-hat, v-hat, four m-hats, the link arm's two, the ElGamal arm's three and the challenge
    assert len(shifted) == 3 + 4 + 2 + 3 + 1
    for bad in shifted:
        assert not verify_bundle(toy_env.registry, bad, nonce, **toy_env.statement1)


def test_two_presentations_share_no_randomized_values(toy_env):
    # oracle: pairwise field intersection over 100 trials
    from fcguard.security import presentation_randomized_fields

    seen = {}
    for i in range(100):
        nonce = toy_env.fresh_nonce()
        bundle = create_presentation(toy_env.registry, toy_env.vc_pu,
                                     toy_env.wallet.link_secret, disclose=(),
                                     nonce=nonce, rng=toy_env.rng)
        for value in presentation_randomized_fields(bundle):
            assert value not in seen, f"presentations {seen[value]} and {i} collide"
            seen[value] = i


def test_hidden_values_absent_from_serialized_bytes(toy_env):
    # taint scan across 100 random credentials
    rng = random.Random("hiding")
    for i in range(100):
        ssn = rng.randrange(100_000_000, 1_000_000_000)
        birthday = rng.randrange(1940, 2005) * 10000 + 101
        cred = toy_env.issue(toy_env.platform_defn, toy_env.platform_schema,
                             toy_env.platform_keys,
                             {"name": f"P{i}", "birthday": birthday, "ssn": ssn})
        nonce = toy_env.fresh_nonce()
        bundle = create_presentation(toy_env.registry, cred, toy_env.wallet.link_secret,
                                     disclose=(), nonce=nonce, rng=toy_env.rng)
        blob = dumps(bundle)
        for secret in (ssn, birthday, cred.attributes["name"],
                       toy_env.wallet.link_secret.value):
            assert canonical_int_hex(secret).encode() not in blob
        assert verify_bundle(toy_env.registry, bundle, nonce, **_alone(toy_env))


def test_equality_honest_sessions_always_verify(toy_env):
    # completeness over 100 honest equal-SSN sessions
    for _ in range(100):
        nonce, b1, b2 = _exchange_bundles(toy_env)
        assert verify_equality(toy_env.registry, b1, b2, "ssn", nonce, toy_env.statement1, toy_env.statement2)


def test_equality_refused_for_different_ssns(toy_env):
    # second credential carries a different SSN; the session refuses to link it
    other = toy_env.issue(toy_env.bank_defn, toy_env.bank_schema, toy_env.bank_keys,
                          {"bank_name": "Bank of A", "bank_account": toy_env.account,
                           "ssn": 123_456_780})
    nonce, session = _session(toy_env)
    session.build_bundle(toy_env.vc_pu, toy_env.wallet.link_secret, **toy_env.statement1)
    with pytest.raises(ProofRefusedError):
        session.build_bundle(other, toy_env.wallet.link_secret, **toy_env.statement2)


def test_equality_splice_harness():
    from fcguard.security import splice_harness

    trials, rejected = splice_harness(trials=50)
    assert trials == 50
    assert rejected == 50


def test_verifiable_encryption_paillier_bank_account(toy_env):
    # oracle: direct Paillier decryption with the bank's private key
    nonce, _, b2 = _exchange_bundles(toy_env)
    arm = b2.enc_proofs[0]
    assert arm.ciphertext.scheme == "paillier"
    assert paillier_decrypt(toy_env.bank_enc, arm.ciphertext) == 12_345_678_901_234_567


def test_verifiable_encryption_elgamal_ssn(toy_env):
    # oracle: baby-step/giant-step decryption with the authority's key
    nonce, b1, _ = _exchange_bundles(toy_env)
    arm = b1.enc_proofs[0]
    assert arm.ciphertext.scheme == "elgamal"
    assert elgamal_decrypt(toy_env.aa_keys, arm.ciphertext) == 123_456_789


def test_verifiable_encryption_fresh_ciphertexts(toy_env):
    seen = set()
    for _ in range(20):
        _, b1, _ = _exchange_bundles(toy_env)
        seen.add(b1.enc_proofs[0].ciphertext.parts)
    assert len(seen) == 20


def test_verifiable_encryption_swapped_ciphertext_rejected(toy_env):
    from fcguard.crypto.elgamal import elgamal_encrypt

    nonce, b1, _ = _exchange_bundles(toy_env)
    arm = b1.enc_proofs[0]
    decoy = elgamal_encrypt(toy_env.aa_keys.public, 999_999_999, rng=toy_env.rng)
    bad = dataclasses.replace(b1, enc_proofs=(dataclasses.replace(arm, ciphertext=decoy),))
    assert not verify_bundle(toy_env.registry, bad, nonce, **toy_env.statement1)


def test_verifiable_encryption_requires_hidden_attribute(toy_env):
    nonce, session = _session(toy_env)
    with pytest.raises(ProofRefusedError):
        session.build_bundle(toy_env.vc_bu, toy_env.wallet.link_secret,
                             **{**toy_env.statement2, "encrypt": (("bank_name", toy_env.bank_enc.public),)})


def test_predicate_eligible_birthday(toy_env):
    # birthday 19900101, threshold for age >= 18 on 2025-01-01 is 20070101
    nonce, session = _session(toy_env)
    bundle = session.build_bundle(toy_env.vc_pu, toy_env.wallet.link_secret, **_aged(toy_env, 20070101))
    assert verify_bundle(toy_env.registry, bundle, nonce, **_aged(toy_env, 20070101))


def test_predicate_refused_for_underage(toy_env):
    young = toy_env.issue(toy_env.platform_defn, toy_env.platform_schema, toy_env.platform_keys,
                          {"name": "Kid", "birthday": 20200101, "ssn": 999_000_111})
    nonce, session = _session(toy_env)
    with pytest.raises(ProofRefusedError):
        session.build_bundle(young, toy_env.wallet.link_secret, **_aged(toy_env, 20070101))


def test_predicate_boundary_inclusive(toy_env):
    # oracle: integer comparison against threshold 20070101
    boundary = toy_env.issue(toy_env.platform_defn, toy_env.platform_schema,
                             toy_env.platform_keys,
                             {"name": "Edge", "birthday": 20070101, "ssn": 999_000_222})
    nonce, session = _session(toy_env)
    bundle = session.build_bundle(boundary, toy_env.wallet.link_secret, **_aged(toy_env, 20070101))
    assert 20070101 <= 20070101  # the oracle: inclusive comparison
    assert verify_bundle(toy_env.registry, bundle, nonce, **_aged(toy_env, 20070101))


def test_predicate_agrees_with_brute_force_over_corpus(toy_env):
    # 8 birthdays x 8 thresholds compared against direct integer comparison
    birthdays = [19391231, 19600115, 19750630, 19891123, 20000229, 20070101,
                 20101010, 20211231]
    thresholds = [19500101, 19700101, 19850615, 19891123, 20011231, 20070101,
                  20150101, 20250101]
    creds = {}
    for b in birthdays:
        creds[b] = toy_env.issue(toy_env.platform_defn, toy_env.platform_schema,
                                 toy_env.platform_keys,
                                 {"name": f"B{b}", "birthday": b, "ssn": 100_000_000 + b % 997})
    for b in birthdays:
        for t in thresholds:
            nonce, session = _session(toy_env)
            expected = b <= t
            if not expected:
                with pytest.raises(ProofRefusedError):
                    session.build_bundle(creds[b], toy_env.wallet.link_secret, **_aged(toy_env, t))
                continue
            bundle = session.build_bundle(creds[b], toy_env.wallet.link_secret, **_aged(toy_env, t))
            assert verify_bundle(toy_env.registry, bundle, nonce, **_aged(toy_env, t)) == expected


def test_predicate_out_of_range_thresholds_and_responses_are_refused(toy_env, monkeypatch):
    # the largest threshold proves; one past either end of the range, even
    # when the verifier asks for it, or a response outside its bound, is
    # refused before any equation
    nonce, session = _session(toy_env)
    top = presentations.PRED_RANGE[-1]
    bundle = session.build_bundle(toy_env.vc_pu, toy_env.wallet.link_secret, **_aged(toy_env, top))
    assert verify_bundle(toy_env.registry, bundle, nonce, **_aged(toy_env, top))
    pred = bundle.predicate_proofs[0]
    ck = presentations.commitment_key_for(toy_env.platform_defn)
    bits = presentations._predicate_blind_bits(toy_env.profile, ck)
    bad = [{"threshold": -1}, {"threshold": top + 1}, {"rho_hat": 1 << (bits["rho"] + 2)},
           {"rho_hat": -(1 << (bits["rho"] + 2))}]
    for field_name, key in (("u_hats", "u0"), ("r_hats", "r0")):
        rest = getattr(pred, field_name)[1:]
        bad += [{field_name: (-1, *rest)}, {field_name: (1 << (bits[key] + 2), *rest)}]
    for threshold in (-1, top + 1):
        with pytest.raises(ProofRefusedError):
            _session(toy_env)[1].build_bundle(toy_env.vc_pu, toy_env.wallet.link_secret, **_aged(toy_env, threshold))
    evaluated = []
    monkeypatch.setattr(sigma.Eq, "product", lambda *args: evaluated.append(args))
    for fields in bad:
        tampered = dataclasses.replace(bundle, predicate_proofs=(dataclasses.replace(pred, **fields),))
        assert not verify_bundle(toy_env.registry, tampered, nonce, **_aged(toy_env, fields.get("threshold", top)))
    assert evaluated == []


def test_session_chains_bundles(toy_env):
    nonce, b1, b2 = _exchange_bundles(toy_env)
    assert b1.prev_digest == b""
    assert b2.prev_digest == bundle_digest(b1)
    assert verify_bundle(toy_env.registry, b2, nonce, expected_prev=bundle_digest(b1), **toy_env.statement2)
    assert not verify_bundle(toy_env.registry, b2, nonce, expected_prev=b"wrong", **toy_env.statement2)


def test_foreign_definition_not_resolvable(toy_env):
    # a presentation minted under another system's definitions fails here
    from tests.conftest import ToyEnv

    other = ToyEnv(seed="other-env", ssn=222_333_444)
    nonce = other.fresh_nonce()
    foreign = create_presentation(other.registry, other.vc_pu, other.wallet.link_secret,
                                  disclose=(), nonce=nonce, rng=other.rng)
    assert not verify_bundle(toy_env.registry, foreign, nonce, **_alone(toy_env))


def test_verify_handles_garbage_gracefully(toy_env):
    nonce, b1, _ = _exchange_bundles(toy_env)
    pres = dataclasses.replace(b1.presentation, hidden_names=("ssn",))
    assert not verify_bundle(toy_env.registry, dataclasses.replace(b1, presentation=pres),
                             nonce, **toy_env.statement1)
    pres = dataclasses.replace(b1.presentation, m_hats={})
    assert not verify_bundle(toy_env.registry, dataclasses.replace(b1, presentation=pres),
                             nonce, **toy_env.statement1)


def test_oversized_link_response_grows_no_fixed_base_table(toy_env):
    nonce, b1, _ = _exchange_bundles(toy_env)
    assert verify_bundle(toy_env.registry, b1, nonce, **toy_env.statement1)
    before = {key: len(table) for key, table in primes._FIXED_TABLES.items()}
    arm = dataclasses.replace(b1.link_proofs[0], r_hat=(1 << 1_000_000) - 1)
    tampered = dataclasses.replace(b1, link_proofs=(arm,) + b1.link_proofs[1:])
    assert not verify_bundle(toy_env.registry, tampered, nonce, **toy_env.statement1)
    assert {key: len(table) for key, table in primes._FIXED_TABLES.items()} == before


def test_verify_rejects_unknown_definition(toy_env):
    # the verifier asks for the definition the bundle names, so only the registry can refuse
    nonce, b1, _ = _exchange_bundles(toy_env)
    pres = dataclasses.replace(b1.presentation, defn_id="defn:nowhere")
    assert not verify_bundle(toy_env.registry, dataclasses.replace(b1, presentation=pres),
                             nonce, **{**toy_env.statement1, "defn_id": "defn:nowhere"})
    assert not verify_bundle(toy_env.registry, dataclasses.replace(b1, commitment_source="defn:nowhere"),
                             nonce, **{**toy_env.statement1, "commitment_source": "defn:nowhere"})


def test_verify_rejects_paillier_ciphertext_sharing_a_factor(toy_env):
    # c = p has no inverse mod n^2, so c^-challenge cannot be formed
    nonce, b1, b2 = _exchange_bundles(toy_env)
    arm = b2.enc_proofs[0]
    bad = dataclasses.replace(arm, ciphertext=dataclasses.replace(arm.ciphertext,
                                                                  parts=(toy_env.bank_enc.p,)))
    assert not verify_bundle(toy_env.registry, dataclasses.replace(b2, enc_proofs=(bad,)), nonce,
                             expected_prev=bundle_digest(b1), **toy_env.statement2)


def test_verify_lets_an_unexpected_error_propagate(toy_env, monkeypatch):
    nonce, b1, _ = _exchange_bundles(toy_env)

    def broken(definition):
        raise RuntimeError("bug inside verification")

    monkeypatch.setattr(presentations, "commitment_key_for", broken)
    with pytest.raises(RuntimeError):
        verify_bundle(toy_env.registry, b1, nonce, **toy_env.statement1)


def test_own_keys_leave_every_t_value_unchanged(monkeypatch):
    # every arm kind, honest and tampered, including exponents past lambda, a
    # negative v_hat and a link response at the top of its range
    fx = build_fixture()
    seen = []
    real = presentations._bundle_challenge

    def recording(profile, core, t_core, nonce, source, prev, arms):
        seen.append((t_core, {kind: [ts for _, ts, *_ in group] for kind, group in arms.items()}))
        return real(profile, core, t_core, nonce, source, prev, arms)

    monkeypatch.setattr(presentations, "_bundle_challenge", recording)
    own = (fx.platform_keys, fx.bank_keys, fx.bank_enc)
    prev2 = bundle_digest(fx.bundle1)
    cases = [(fx.bundle1, b"", fx.statement1), (fx.bundle2, prev2, fx.statement2)]
    top = (1 << (presentations._link_blind_bits(fx.profile, presentations.commitment_key_for(fx.platform_defn))
                 + 2)) - 1
    for bundle, prev, statement in list(cases):
        pres = bundle.presentation
        hats = {name: value + (1 << 300) for name, value in pres.m_hats.items()}
        pres = dataclasses.replace(pres, v_hat=-pres.v_hat, e_hat=pres.e_hat + 1, m_hats=hats)
        link = dataclasses.replace(bundle.link_proofs[0], r_hat=top)
        enc = bundle.enc_proofs[0]
        enc = dataclasses.replace(enc, r_hat=(enc.r_hat * 3) % (1 << enc.r_hat.bit_length()))
        cases.append((dataclasses.replace(bundle, presentation=pres, link_proofs=(link,),
                                          enc_proofs=(enc,)), prev, statement))
    for bundle, prev, statement in cases:
        seen.clear()
        verdicts = [verify_bundle(fx.registry, bundle, fx.nonce, expected_prev=prev, own_keys=keys, **statement)
                    for keys in ((), own)]
        assert verdicts == [bundle in (fx.bundle1, fx.bundle2)] * 2
        assert len(seen) == 2 and seen[0] == seen[1]


def test_a_prime_sharing_a_factor_is_rejected_before_any_equation(toy_env, monkeypatch):
    nonce, b1, _ = _exchange_bundles(toy_env)
    keys = toy_env.platform_keys
    evaluated = []
    monkeypatch.setattr(sigma.Eq, "product", lambda *args: evaluated.append(args))
    for a_prime in (keys.p, keys.q * 5):
        pres = dataclasses.replace(b1.presentation, a_prime=a_prime)
        bad = dataclasses.replace(b1, presentation=pres)
        for own in ((), (keys,)):
            assert not verify_bundle(toy_env.registry, bad, nonce, own_keys=own, **toy_env.statement1)
    assert evaluated == []


def test_the_prover_raises_no_base_its_own_evaluation_gives(monkeypatch):
    # bundle 1 of the fixture: link, ElGamal and predicate arms. A' and the
    # square commitments T_i come out of the prover's one evaluation, so no
    # product of it may take them as bases.
    fx = build_fixture()
    evaluated = []
    real = sigma.multi_powmod_many

    def spy(products):
        products = [(list(terms), mod) for terms, mod in products]
        evaluated.append(products)
        return real(products)

    monkeypatch.setattr(sigma, "multi_powmod_many", spy)
    session = ProofSession(fx.registry, fx.nonce, random.Random(7), commitment_source=fx.platform_defn.defn_id)
    bundle = session.build_bundle(fx.vc_pu, fx.wallet.link_secret, **fx.statement1)
    bases = {base for products in evaluated for terms, _ in products for base, _, _ in terms}
    outputs = {bundle.presentation.a_prime, *bundle.predicate_proofs[0].squares}
    assert len(outputs) == 5 and not bases & outputs
    assert len(evaluated) == 1
    monkeypatch.undo()
    assert verify_bundle(fx.registry, bundle, fx.nonce, **fx.statement1)


def test_four_squares_is_deterministic_and_draws_nothing():
    state = random.getstate()
    no_three = [delta for a in range(13) for b in (0, 1, 12345, ((1 << 27) // 4**a - 7) // 8)
                if (delta := 4**a * (8 * b + 7)) < 1 << 27]
    for delta in [*range(1 << 16), (1 << 27) - 1, *no_three]:
        squares = presentations._four_squares(delta)
        assert len(squares) == 4 and sum(u * u for u in squares) == delta
        assert all(0 <= u < 1 << presentations.SQUARE_BITS for u in squares)
    for delta in no_three:  # not a sum of three squares
        assert all(presentations._four_squares(delta))
    assert presentations._four_squares(0) == (0, 0, 0, 0)
    assert random.getstate() == state


def test_two_answers_on_one_predicate_commitment_give_back_its_witness(monkeypatch):
    # one commitment, from two sessions on the same RNG state; the first
    # session's respond closure answers the second challenge as the second does
    fx = build_fixture()
    ck = presentations.commitment_key_for(fx.platform_defn)
    n, threshold = ck.n, 20070101
    challenges, responds = iter([(1 << 80) - 3, 12345]), []

    def forced(profile, core, t_core, nonce, source, prev, arms):
        responds.append(arms["preds"][0][2])
        return next(challenges)

    monkeypatch.setattr(presentations, "_bundle_challenge", forced)
    state, bundles = random.Random("extract").getstate(), []
    for _ in range(2):
        rng = random.Random()
        rng.setstate(state)
        session = ProofSession(fx.registry, fx.nonce, rng, commitment_source=fx.platform_defn.defn_id)
        bundles.append(session.build_bundle(fx.vc_pu, fx.wallet.link_secret, defn_id=fx.platform_defn.defn_id,
                                            commitment_source=fx.platform_defn.defn_id,
                                            predicates=(("birthday", threshold),)))
    (p1,), (p2,) = (b.predicate_proofs for b in bundles)
    c1, c2 = (b.challenge for b in bundles)
    assert p1.squares == p2.squares and responds[0](c2) == p2

    def extract(z1, z2):
        witness, rest = divmod(z1 - z2, c1 - c2)
        assert rest == 0
        return witness

    m = extract(*(b.presentation.m_hats["birthday"] for b in bundles))
    us = [extract(a, b) for a, b in zip(p1.u_hats, p2.u_hats)]
    rs = [extract(a, b) for a, b in zip(p1.r_hats, p2.r_hats)]
    rho = extract(p1.rho_hat, p2.rho_hat)
    assert threshold - m == sum(u * u for u in us)
    for t, u, r in zip(p1.squares, us, rs):
        assert t == pow(ck.r_base, u, n) * pow(ck.s_base, r, n) % n
    product = pow(ck.r_base, m, n) * pow(ck.s_base, rho, n)
    for t, u in zip(p1.squares, us):
        product = product * pow(t, u, n) % n
    assert product == pow(ck.r_base, threshold, n)
    assert m == fx.vc_pu.attributes["birthday"]



@pytest.mark.parametrize("scheme", ["elgamal", "paillier"])
def test_two_answers_on_one_encryption_commitment_give_back_its_randomness(monkeypatch, scheme):
    # as above, for the one encryption arm of each fixture bundle: the
    # randomness comes back exactly over the integers, within its width,
    # and opens the ciphertext to the core arm's m
    fx = build_fixture()
    statement, credential, attr = {"elgamal": (fx.statement1, fx.vc_pu, "ssn"),
                                   "paillier": (fx.statement2, fx.vc_bu, "bank_account")}[scheme]
    ((_, key),) = statement["encrypt"]
    challenges, responds = iter([(1 << 80) - 3, 12345]), []

    def forced(profile, core, t_core, nonce, source, prev, arms):
        responds.append(arms["encs"][0][2])
        return next(challenges)

    monkeypatch.setattr(presentations, "_bundle_challenge", forced)
    state, bundles = random.Random("extract-enc").getstate(), []
    for _ in range(2):
        rng = random.Random()
        rng.setstate(state)
        session = ProofSession(fx.registry, fx.nonce, rng, commitment_source=fx.platform_defn.defn_id)
        bundles.append(session.build_bundle(credential, fx.wallet.link_secret, **statement))
    (p1,), (p2,) = (b.enc_proofs for b in bundles)
    c1, c2 = (b.challenge for b in bundles)
    assert p1.ciphertext == p2.ciphertext and responds[0](c2) == p2

    def extract(z1, z2):
        witness, rest = divmod(z1 - z2, c1 - c2)
        assert rest == 0
        return witness

    m = extract(*(b.presentation.m_hats[attr] for b in bundles))
    rho = extract(p1.r_hat, p2.r_hat)
    assert m == credential.attributes[attr]
    assert 0 <= rho < 1 << presentations._rho_bits(fx.profile, key)
    if scheme == "elgamal":
        assert p1.ciphertext.parts == (pow(key.g, rho, key.p), pow(key.g, m, key.p) * pow(key.h, rho, key.p) % key.p)
        assert elgamal_decrypt(fx.aa_keys, p1.ciphertext) == m
    else:
        n2 = key.n_squared
        assert p1.ciphertext.parts == ((1 + m * key.n) * pow(paillier_hs(key.n), rho, n2) % n2,)
        assert paillier_decrypt(fx.bank_enc, p1.ciphertext) == m


def _every_arm_bundle(env):
    nonce, session = _session(env)
    statement = _alone(env, disclose=("name",), link=("ssn",),
                       encrypt=(("ssn", env.aa_keys.public), ("ssn", env.bank_enc.public)),
                       predicates=(("birthday", 20070101),))
    bundle = session.build_bundle(env.vc_pu, env.wallet.link_secret, **statement)
    assert verify_bundle(env.registry, bundle, nonce, **statement)
    return nonce, bundle, statement


def _replace_arm(bundle, kind, index=0, **fields):
    arms = list(getattr(bundle, kind))
    arms[index] = dataclasses.replace(arms[index], **fields) if fields else 7
    return dataclasses.replace(bundle, **{kind: tuple(arms)})


@pytest.mark.parametrize("tamper", [
    lambda b: dataclasses.replace(b, presentation=dataclasses.replace(b.presentation, a_prime="x")),
    lambda b: dataclasses.replace(b, presentation=dataclasses.replace(
        b.presentation, disclosed={name: "x" for name in b.presentation.disclosed})),
    lambda b: _replace_arm(b, "link_proofs", commitment="x"),
    lambda b: _replace_arm(b, "enc_proofs", ciphertext=Ciphertext("elgamal", ("x", 2))),
    lambda b: _replace_arm(b, "enc_proofs", ciphertext=Ciphertext("elgamal", (2, "x"))),
    lambda b: _replace_arm(b, "enc_proofs", 1, ciphertext=Ciphertext("paillier", ("x",))),
    lambda b: dataclasses.replace(b, presentation=dataclasses.replace(b.presentation, m_hats=None)),
    lambda b: dataclasses.replace(b, presentation=dataclasses.replace(b.presentation, disclosed=None)),
    lambda b: dataclasses.replace(b, presentation=dataclasses.replace(b.presentation, hidden_names=5)),
    lambda b: dataclasses.replace(b, presentation=dataclasses.replace(b.presentation, hidden_names=None)),
    lambda b: dataclasses.replace(b, presentation=5),
    lambda b: 5,
    lambda b: dataclasses.replace(b, commitment_source=["x"]),
    lambda b: dataclasses.replace(b, presentation=dataclasses.replace(b.presentation, defn_id=["x"])),
], ids=["a_prime", "disclosed", "link-commitment", "elgamal-c1", "elgamal-c2", "paillier-c",
        "m_hats-none", "disclosed-none", "hidden_names-int", "hidden_names-none",
        "presentation-int", "bundle-int", "commitment_source-list", "defn_id-list"])
def test_statement_integers_of_the_wrong_type_are_refused(toy_env, tamper):
    nonce, bundle, statement = _every_arm_bundle(toy_env)
    assert not verify_bundle(toy_env.registry, tamper(bundle), nonce, **statement)


@pytest.mark.parametrize("kind, fields", [
    ("link_proofs", {}), ("enc_proofs", {}), ("predicate_proofs", {}),
    ("link_proofs", {"attr": ["ssn"]}), ("predicate_proofs", {"attr": ["birthday"]}),
    ("enc_proofs", {"key_id": ["k"]}),
], ids=["int-link", "int-enc", "int-predicate", "list-attr-link", "list-attr-predicate", "list-key_id-enc"])
def test_malformed_arm_shapes_are_refused(toy_env, kind, fields):
    # no fields: an int stands in place of the whole arm
    nonce, bundle, statement = _every_arm_bundle(toy_env)
    assert not verify_bundle(toy_env.registry, _replace_arm(bundle, kind, **fields), nonce, **statement)


@pytest.mark.parametrize("change", [
    lambda st, env: {"defn_id": "defn:bank"},
    lambda st, env: {"commitment_source": "defn:bank"},
    lambda st, env: {"disclose": ()},
    lambda st, env: {"disclose": ("name", "ssn")},
    lambda st, env: {"link": ()},
    lambda st, env: {"link": ("birthday", "ssn")},
    lambda st, env: {"encrypt": st["encrypt"][:1]},
    lambda st, env: {"encrypt": st["encrypt"][::-1]},
    lambda st, env: {"encrypt": (*st["encrypt"], ("bank_account", env.bank_enc.public))},
    lambda st, env: {"predicates": ()},
    lambda st, env: {"predicates": (("birthday", 20070102),)},
], ids=["defn_id", "commitment_source", "disclose-fewer", "disclose-more", "link-fewer", "link-more",
        "encrypt-fewer", "encrypt-reordered", "encrypt-more", "predicates-fewer", "predicates-threshold"])
def test_a_bundle_proving_another_statement_is_refused_before_any_exponentiation(toy_env, monkeypatch, change):
    # each field of the statement the verifier asks for differs in turn from the one the bundle proves
    nonce, bundle, statement = _every_arm_bundle(toy_env)
    evaluated = []
    monkeypatch.setattr(sigma, "multi_powmod_many", lambda products: evaluated.append(products))
    assert not verify_bundle(toy_env.registry, bundle, nonce, **{**statement, **change(statement, toy_env)})
    assert evaluated == []
