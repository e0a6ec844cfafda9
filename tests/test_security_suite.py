import pytest
from click.testing import CliRunner

from fcguard import cli, presentations
from fcguard.cli import main
from fcguard.crypto import sigma
from fcguard.presentations import bundle_digest, verify_bundle
from fcguard.security import (
    _rearm,
    build_fixture,
    check_audit_branches,
    check_replay_protection,
    check_unlinkability,
    holder_accepts,
    leaf_mutations,
    mutation_cases,
    mutation_targets,
    run_security_suite,
    splice_harness,
)


# bundle1 carries link, ElGamal and predicate arms; bundle2 a disclosed
# attribute, a link arm and a Paillier arm: every arm kind's bytes
FIXTURE_DIGESTS = ("d08e581c84f1b735d227821b51b3c91e6e15f6b207cc9c2b45329f9ec4bf39e0",
                   "baea3195caca47fc31338495b92ea5e2c521485dbdb90346be896aa4bb30ff60")


def test_fixture_bundle_digests_are_pinned():
    fx = build_fixture()
    assert (bundle_digest(fx.bundle1).hex(), bundle_digest(fx.bundle2).hex()) == FIXTURE_DIGESTS


# the tamper cases that have no single-leaf form, each kept under its name
NAMED_CASES = {
    "cl-sig:e+2", "cl-sig:attr-link+1", "commitment:m+1", "commitment:r+1",
    "cred-request:blinded-non-unit", "vp1:a_prime-non-unit", "vp2:a_prime-non-unit",
    "vp1:link-commitment-non-unit", "vp2:link-commitment-non-unit", "verenc-eg:c1-non-unit",
    "verenc-eg:c2-non-unit", "verenc-paillier:c-non-unit-p", "verenc-paillier:c-non-unit-p2",
    "predicate:T0-non-unit", "vp1:nonce-swap", "vp2:prev-digest-tamper", "verenc-eg:ciphertext-swap",
    "verenc-paillier:ciphertext-swap", "verenc-paillier:r_hat-negative", "verenc-paillier:r_hat-at-bound",
    "verenc-eg:r_hat-at-bound",
    "predicate:T0-shift", "predicate:T-swap", "predicate:squares-three", "predicate:u_hats-five",
    "equality:foreign-commitment", "equality:foreign-r_hat_a", "equality:foreign-r_hat_b",
    "equality:foreign-bundle2", "equality:foreign-bundle1",
    "vp1:link-r_hat-at-bound", "cred-request:s_r-at-bound", "credential:s_e-at-n",
}


def test_mutation_matrix_size_and_rejection():
    cases = mutation_cases()
    assert len(cases) == 33 + 51 + 405  # oracle: named cases, shifted int leaves, wrong types
    accepted = [name for name, ok in cases if ok]
    assert accepted == []
    names = {name for name, _ in cases}
    assert NAMED_CASES | {"vp2:enc_proofs[0].r_hat+1"} <= names


@pytest.mark.parametrize("bundle, statement, key", [
    ("bundle1", "statement1", "aa_keys"), ("bundle2", "statement2", "bank_enc")], ids=["elgamal", "paillier"])
def test_an_encryption_response_at_its_bound_is_refused_before_any_exponentiation(monkeypatch, bundle, statement,
                                                                                  key):
    # the `verenc-*:r_hat-at-bound` cases: the honest response lies below
    # the bound, and one at it is refused by the range check alone
    fx = build_fixture()
    honest, statement = getattr(fx, bundle), getattr(fx, statement)
    bound = 1 << (presentations._r_hat_bits(fx.profile, getattr(fx, key).public) + 1)
    assert 0 <= honest.enc_proofs[0].r_hat < bound
    evaluated = []
    monkeypatch.setattr(sigma, "multi_powmod_many", lambda products: evaluated.append(products))
    assert not verify_bundle(fx.registry, _rearm(honest, "enc_proofs", r_hat=bound), fx.nonce, **statement)
    assert evaluated == []


def test_the_signature_proof_cases_tamper_a_proof_the_holder_accepts():
    # the issuer's proof responses are shifted as the holder checks the
    # fixture's platform credential, under the nonce it was issued with
    fx = build_fixture()
    assert holder_accepts(fx, fx.vc_pu)
    verdicts = dict(mutation_cases(fx))
    assert (verdicts["credential:signature_proof.challenge+1"]
            is verdicts["credential:signature_proof.s_e+1"] is False)


def test_verdicts_are_the_same_with_the_verifiers_own_keys():
    # each run on a fresh fixture, so both draw the same randomness
    plain = mutation_cases(build_fixture())
    with_keys = mutation_cases(build_fixture(), with_keys=True)
    assert plain == with_keys
    assert [name for name, ok in with_keys if ok] == []
    assert NAMED_CASES <= {name for name, _ in with_keys}
    assert splice_harness(trials=50, with_keys=True) == (50, 50)


def test_mutation_case_names_unique():
    names = [name for name, _ in mutation_cases(build_fixture())]
    assert len(names) == len(set(names))


def test_splice_harness_rejects_all():
    trials, rejected = splice_harness(trials=50)
    assert (trials, rejected) == (50, 50)


def test_unlinkability_check():
    result = check_unlinkability(seed=4242, presentations=30)
    assert result.passed, result.detail


def test_audit_branch_check():
    result = check_audit_branches(seed=5252, users=10)
    assert result.passed, result.detail


def test_replay_check():
    result = check_replay_protection(seed=6262)
    assert result.passed, result.detail


def test_full_suite_passes_small():
    results = run_security_suite(seed=7272, scenario_count=3)
    failed = [r.name for r in results if not r.passed]
    assert failed == [], failed
    assert len(results) == 8


def test_negative_control_reports_blindness_failure():
    # with the taint scan pointed at baseline-mode scenarios, the
    # platform-blindness property must be reported as FAIL
    results = run_security_suite(seed=8282, scenario_count=2, negative_control=True)
    blindness = next(r for r in results if r.name == "platform-blindness")
    assert not blindness.passed
    assert "FAIL" in blindness.line()


def test_cli_security_negative_control_exits_nonzero():
    runner = CliRunner()
    result = runner.invoke(main, ["--seed", "9393", "security", "--scenarios", "2",
                                  "--negative-control"])
    assert result.exit_code == 1
    assert "FAIL  platform-blindness" in result.output


@pytest.mark.parametrize("count", ["0", "-1"])
def test_cli_security_refuses_fewer_than_one_scenario(monkeypatch, count):
    ran = []
    monkeypatch.setattr(cli, "run_security_suite", lambda **kwargs: ran.append(kwargs) or [])
    result = CliRunner().invoke(main, ["security", "--scenarios", count])
    assert result.exit_code == 2
    assert ran == [] and "PASS" not in result.output


@pytest.fixture(scope="module")
def matrix_fixture():
    return build_fixture()


# per target: int leaves shifted by one, and values of the wrong type put at
# a position; a walk that skips a position changes the counts
@pytest.mark.parametrize("target, shifted, wrong_typed", [
    ("vp1", 27, 201), ("vp2", 12, 122), ("request", 4, 31), ("credential", 8, 51),
], ids=["bundle1", "bundle2", "request", "credential"])
def test_a_wrong_type_at_any_field_is_refused(matrix_fixture, target, shifted, wrong_typed):
    # each field of the object, recursively, holds in turn each value of the
    # wrong type, and each int leaf its value + 1; the matching verifier must
    # refuse every one and raise nothing else
    honest, tp, accepts = mutation_targets(matrix_fixture)[target]
    assert accepts(honest)
    cases = list(leaf_mutations(honest, tp, target))
    assert sum(" = " not in name for name, _ in cases) == shifted
    assert sum(" = " in name for name, _ in cases) == wrong_typed
    assert [name for name, bad in cases if accepts(bad)] == []
