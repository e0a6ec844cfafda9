import contextlib
import dataclasses
import random

import pytest

from fcguard import presentations
from fcguard.credentials import create_credential_request, verify_credential_request
from fcguard.crypto import sigma
from fcguard.crypto.cl import _signature_eq, cl_keygen, sign_with_proof, verify_signature_proof
from fcguard.crypto.commitment import _opening_blind_bits, opening_eq
from fcguard.params import TOY
from fcguard.presentations import create_presentation, verify_bundle
from test_parallel_eval import _helper_forced

HELPER = pytest.mark.parametrize("helper", [False, True], ids=["helper-off", "helper-forced"])


def _helper(on):
    return _helper_forced() if on else contextlib.nullcontext()


@pytest.fixture(scope="module")
def keys():
    return cl_keygen(3, TOY, random.Random("sigma"))


def _both_sides(eq, blind, responses, c, factored):
    """The prover's t-value at its blindings and the verifier's at the
    responses times target^-c."""
    (prover,) = sigma.evaluate([(eq, blind)], 0, factored)
    (verifier,) = sigma.evaluate([(eq, responses)], c, factored)
    return prover, verifier


@HELPER
def test_opening_equation_gives_the_prover_s_t_value_at_the_responses(keys, helper):
    pk, rng = keys.public, random.Random("opening")
    m, r = rng.getrandbits(TOY.attr_bits), rng.getrandbits(pk.n.bit_length() + TOY.stat_bits)
    value = pow(pk.r_bases[0], m, pk.n) * pow(pk.s, r, pk.n) % pk.n
    eq = opening_eq(pk.n, pk.r_bases[0], pk.s, value)
    with _helper(helper):
        for _ in range(5):
            blind = {"m": rng.getrandbits(TOY.attr_bits + 160), "r": rng.getrandbits(pk.n.bit_length() + 240)}
            c = rng.getrandbits(TOY.challenge_bits)
            responses = {"m": blind["m"] + c * m, "r": blind["r"] + c * r}
            for factored in ({}, {pk.n: keys.crt}):
                prover, verifier = _both_sides(eq, blind, responses, c, factored)
                assert prover == verifier == pow(pk.r_bases[0], blind["m"], pk.n) * pow(pk.s, blind["r"], pk.n) % pk.n


@HELPER
def test_signature_equation_gives_the_prover_s_t_value_at_the_responses(keys, helper):
    pk, order, rng = keys.public, keys.group_order, random.Random("signature")
    with _helper(helper):
        for _ in range(5):
            sig, _ = sign_with_proof(keys, [1, 2], TOY, rng, nonce=b"sigma")
            q_value = pow(sig.a, sig.e, pk.n)
            eq = _signature_eq(pk.n, sig.a, q_value)
            r, c = rng.randrange(2, order), rng.getrandbits(TOY.challenge_bits)
            s_e = (r - c * pow(sig.e, -1, order)) % order
            for factored in ({}, {pk.n: keys.crt}):
                prover, verifier = _both_sides(eq, {"w": r}, {"w": s_e}, c, factored)
                assert prover == verifier == pow(q_value, r, pk.n)


def test_challenge_is_the_issuance_proofs_transcript():
    # the values the opening and signature proofs' own challenge functions
    # gave for these inputs before both moved onto the engine
    assert sigma.challenge("credential-request", b"nonce-1defn:x", (253 * 263, 5, 9, 1234, 5678),
                           TOY.challenge_bits) == 280750212442297208052998
    assert sigma.challenge("cl-signature-proof", b"nonce-2", (253 * 263, 777, 888, 999),
                           TOY.challenge_bits) == 395902741826651706878966


def _replace_proof(**fields):
    return lambda request: dataclasses.replace(request, proof=dataclasses.replace(request.proof, **fields))


def _replace_presentation(**fields):
    return lambda bundle: dataclasses.replace(bundle, presentation=dataclasses.replace(bundle.presentation, **fields))


REQUEST_TAMPERS = {"challenge-str": _replace_proof(challenge="x"), "s_m-none": _replace_proof(s_m=None),
                   "s_r-float": _replace_proof(s_r=1.5),
                   "blinded-str": lambda request: dataclasses.replace(request, blinded="zz"),
                   "request-none": lambda request: None,
                   "proof-none": lambda request: dataclasses.replace(request, proof=None),
                   "nonce-str": lambda request: dataclasses.replace(request, nonce="n")}
BUNDLE_TAMPERS = {"e_hat-str": _replace_presentation(e_hat="1"),
                  "link-r_hat-str": lambda bundle: dataclasses.replace(
                      bundle, link_proofs=(dataclasses.replace(bundle.link_proofs[0], r_hat="x"),))}


@pytest.mark.parametrize("name", [*REQUEST_TAMPERS, *BUNDLE_TAMPERS])
def test_a_malformed_proof_is_refused_not_raised(toy_env, name):
    rng = random.Random(name)
    if name in REQUEST_TAMPERS:
        request, _ = create_credential_request(toy_env.wallet.link_secret, toy_env.platform_defn, b"n", rng)
        bad = REQUEST_TAMPERS[name](request)
        for issuer_keys in (None, toy_env.platform_keys):
            assert verify_credential_request(toy_env.platform_defn, request, issuer_keys)
            assert not verify_credential_request(toy_env.platform_defn, bad, issuer_keys)
    else:
        nonce = rng.randbytes(16)
        bundle = create_presentation(toy_env.registry, toy_env.vc_pu, toy_env.wallet.link_secret, ["name"],
                                     nonce, rng, link=("ssn",))
        statement = {"defn_id": toy_env.platform_defn.defn_id, "commitment_source": toy_env.platform_defn.defn_id,
                     "disclose": ("name",), "link": ("ssn",)}
        assert verify_bundle(toy_env.registry, bundle, nonce, **statement)
        assert not verify_bundle(toy_env.registry, BUNDLE_TAMPERS[name](bundle), nonce, **statement)


def test_an_oversized_response_is_refused_before_any_exponentiation(toy_env, keys, monkeypatch):
    # the link arm's r_hat, the request's s_m and s_r and the issuer's s_e are each bounded by their
    # prover's blinding width: one at its bound, of 2^19 bits or negative is refused before any power
    rng, huge = random.Random("oversized"), 1 << (1 << 19)
    defn_id = toy_env.platform_defn.defn_id
    statement = {"defn_id": defn_id, "commitment_source": defn_id, "link": ("ssn",)}
    nonce = rng.randbytes(16)
    bundle = create_presentation(toy_env.registry, toy_env.vc_pu, toy_env.wallet.link_secret, (), nonce, rng,
                                 link=("ssn",))
    request, _ = create_credential_request(toy_env.wallet.link_secret, toy_env.platform_defn, b"n", rng)
    sig, proof = sign_with_proof(keys, [1, 2], TOY, rng, nonce=b"oversized")
    q_value = pow(sig.a, sig.e, keys.public.n)
    assert verify_bundle(toy_env.registry, bundle, nonce, **statement)
    assert verify_credential_request(toy_env.platform_defn, request)
    assert verify_signature_proof(keys.public, sig.a, q_value, proof, b"oversized", TOY)

    ck = presentations.commitment_key_for(toy_env.platform_defn)
    link_bound = 1 << (presentations._link_blind_bits(TOY, ck) + 2)
    m_bound, r_bound = (1 << (bits + 2) for bits in _opening_blind_bits(toy_env.platform_defn.public_key.n, TOY))
    evaluated, real = [], sigma.multi_powmod_many
    monkeypatch.setattr(sigma, "multi_powmod_many", lambda products: evaluated.append(products) or real(products))
    for r_hat in (link_bound, huge, -1):
        bad = dataclasses.replace(bundle, link_proofs=(dataclasses.replace(bundle.link_proofs[0], r_hat=r_hat),))
        assert not verify_bundle(toy_env.registry, bad, nonce, **statement)
    for fields in ({"s_m": m_bound}, {"s_m": huge}, {"s_m": -1}, {"s_r": r_bound}, {"s_r": huge}, {"s_r": -1}):
        for issuer_keys in (None, toy_env.platform_keys):
            assert not verify_credential_request(toy_env.platform_defn, _replace_proof(**fields)(request), issuer_keys)
    for s_e in (keys.public.n, huge, -1):
        assert not verify_signature_proof(keys.public, sig.a, q_value, dataclasses.replace(proof, s_e=s_e),
                                          b"oversized", TOY)
    assert evaluated == []
