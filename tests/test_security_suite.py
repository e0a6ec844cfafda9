import dataclasses
import random
import typing

import pytest
from click.testing import CliRunner

from fcguard import cli
from fcguard.cli import main
from fcguard.credentials import Credential, CredentialRequest, create_credential_request, verify_credential_request
from fcguard.presentations import PresentationBundle, bundle_digest, verify_bundle, verify_equality
from fcguard.security import (
    build_fixture,
    check_audit_branches,
    check_replay_protection,
    check_unlinkability,
    holder_accepts,
    mutation_cases,
    run_security_suite,
    splice_harness,
)


# bundle1 carries link, ElGamal and predicate arms; bundle2 a disclosed
# attribute, a link arm and a Paillier arm: every arm kind's bytes
FIXTURE_DIGESTS = ("d68c926503379de2eb732da39cb6237fc70baeeb586a56f62a99da65b54f0b39",
                   "da6c0e05e5167dff64c9633ac872ac77f07385a74d025acfd6437c713c8579ea")


def test_fixture_bundle_digests_are_pinned():
    fx = build_fixture()
    assert (bundle_digest(fx.bundle1).hex(), bundle_digest(fx.bundle2).hex()) == FIXTURE_DIGESTS


def test_mutation_matrix_size_and_rejection():
    cases = mutation_cases()
    assert len(cases) >= 50  # oracle: case counter over the enumerated matrix
    accepted = [name for name, ok in cases if ok]
    assert accepted == []
    names = {name for name, _ in cases}
    assert {"verenc-paillier:r_hat+1", "verenc-paillier:r_hat-negative",
            "verenc-paillier:r_hat-at-bound"} <= names


def test_the_signature_proof_cases_tamper_a_proof_the_holder_accepts():
    # sig-proof:challenge+1 and sig-proof:s_e+1 are checked as the holder checks
    # the fixture's platform credential, under the nonce it was issued with
    fx = build_fixture()
    assert holder_accepts(fx, fx.vc_pu)
    verdicts = dict(mutation_cases(fx))
    assert verdicts["sig-proof:challenge+1"] is verdicts["sig-proof:s_e+1"] is False


def test_verdicts_are_the_same_with_the_verifiers_own_keys():
    # each run on a fresh fixture, so both draw the same randomness
    plain = mutation_cases(build_fixture())
    with_keys = mutation_cases(build_fixture(), with_keys=True)
    assert plain == with_keys
    assert [name for name, ok in with_keys if ok] == []
    names = {name for name, _ in with_keys}
    assert {"vp1:a_prime-non-unit", "vp2:a_prime-non-unit", "vp1:link-commitment-non-unit",
            "vp2:link-commitment-non-unit", "verenc-eg:c1-non-unit", "verenc-eg:c2-non-unit",
            "verenc-paillier:c-non-unit-p", "verenc-paillier:c-non-unit-p2",
            "cred-request:blinded-non-unit"} <= names
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


def _wrong_values(tp):
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


def _positions(value, tp, rebuild, path):
    """(path, type, rebuild) for `value` and, recursively, every field of a
    dataclass, element of a tuple and value of a dict below it; `rebuild`
    maps a replacement at that position to the whole object."""
    yield path, tp, rebuild
    args = typing.get_args(tp)
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        for f in dataclasses.fields(tp):
            yield from _positions(getattr(value, f.name), hints[f.name],
                                  lambda new, f=f: rebuild(dataclasses.replace(value, **{f.name: new})),
                                  f"{path}.{f.name}")
    elif typing.get_origin(tp) is tuple:
        for i, item in enumerate(value):
            yield from _positions(item, args[0], lambda new, i=i: rebuild((*value[:i], new, *value[i + 1:])),
                                  f"{path}[{i}]")
    elif typing.get_origin(tp) is dict:
        for key, item in value.items():
            yield from _positions(item, args[1], lambda new, key=key: rebuild({**value, key: new}),
                                  f"{path}[{key!r}]")


@pytest.fixture(scope="module")
def fixture_and_request():
    fx = build_fixture()
    request, _ = create_credential_request(fx.wallet.link_secret, fx.platform_defn, b"walk", random.Random(5))
    return fx, request


@pytest.mark.parametrize("target", ["bundle1", "bundle2", "request", "credential"])
def test_a_wrong_type_at_any_field_is_refused(fixture_and_request, target):
    # each field of the object, recursively, holds in turn each value of the
    # wrong type; the matching verifier must refuse it and raise nothing else
    fx, request = fixture_and_request
    prev = bundle_digest(fx.bundle1)
    verifiers = {
        "bundle1": (fx.bundle1, PresentationBundle, lambda b: (
            verify_bundle(fx.registry, b, fx.nonce, fx.enc_keys, expected_prev=b"")
            or verify_equality(fx.registry, b, fx.bundle2, "ssn", fx.nonce, fx.enc_keys))),
        "bundle2": (fx.bundle2, PresentationBundle, lambda b: (
            verify_bundle(fx.registry, b, fx.nonce, fx.enc_keys, expected_prev=prev)
            or verify_equality(fx.registry, fx.bundle1, b, "ssn", fx.nonce, fx.enc_keys))),
        "request": (request, CredentialRequest, lambda r: (
            verify_credential_request(fx.platform_defn, r)
            or verify_credential_request(fx.platform_defn, r, fx.platform_keys))),
        "credential": (fx.vc_pu, Credential, lambda cred: holder_accepts(fx, cred)),
    }
    honest, tp, accepts = verifiers[target]
    assert accepts(honest)
    accepted, walked = [], 0
    for path, field_type, rebuild in _positions(honest, tp, lambda new: new, target):
        for wrong in _wrong_values(field_type):
            walked += 1
            if accepts(rebuild(wrong)):
                accepted.append(f"{path} = {wrong!r}")
    assert accepted == []
    assert walked >= 30
