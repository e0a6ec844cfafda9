"""The helper process of `crypto.primes`: with it forced on at toy size,
every value and verdict is the serial one, and no process is left behind.
That covers registration too: the issuer's exponent search gives the serial
prime and RNG state, and the holder's checks give the serial verdicts; and
set-up: the prime checks of a cached key give the serial verdicts."""

import contextlib
import dataclasses
import hashlib
import math
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fcguard import keycache
from fcguard.cli import main
from fcguard.credentials import (PLATFORM_ATTRIBUTES, Schema, Wallet, create_credential_request,
                                 holder_finalize_credential, issue_credential, publish_definition)
from fcguard.crypto import primes
from fcguard.crypto.cl import ClSignature, cl_keygen, recompute_q
from fcguard.crypto.paillier import PaillierKeyPair
from fcguard.errors import VerificationError
from fcguard.ledger import Registry
from fcguard.params import PAPER, TOY
from fcguard.presentations import ProofSession, bundle_digest, verify_bundle
from fcguard.scenario import build_context, load_scenario, run_scenario
from fcguard.security import build_fixture, mutation_cases, splice_harness
from test_keycache import _toy_cfg
from test_primes import (CRT_PRIME_PAIRS, FIXED_BASE_PSEUDOPRIMES, PINNED_SOPHIE_GERMAIN, SQUARE_ROOTS,
                         _crt_form, _expected, _next_prime, _products, strong_pseudoprimes_below_100000)
from test_scenario_cli import GOLDEN_DIGESTS, SCENARIO_DIR
from test_security_suite import FIXTURE_DIGESTS

SRC = Path(__file__).resolve().parents[1] / "src"
FORCED = settings(derandomize=True, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])


@contextlib.contextmanager
def _helper_forced():
    """Every product goes to the helper, however small its modulus or work."""
    primes._stop_helper()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primes, "_PARALLEL_MIN_MOD", 0)
        mp.setattr(primes, "_PARALLEL_MIN_WORK", 0)
        try:
            yield
        finally:
            primes._stop_helper()


@pytest.fixture
def forced():
    with _helper_forced():
        yield


@FORCED
@given(case=_products())
def test_forced_helper_gives_the_serial_products(forced, case):
    terms, crt = case
    mod = crt[0][0] * crt[1][0]
    serial = primes._multi_powmod(terms, mod)
    assert serial == _expected(terms, mod)
    assert primes.multi_powmod(terms, mod) == serial
    assert primes.multi_powmod_crt(terms, crt) == serial
    assert primes._HELPER is not None


@FORCED
@given(data=st.data())
def test_forced_helper_evaluates_a_batch_product_by_product(forced, data):
    # plain and CRT products over different moduli, a half modulus among them
    products, serial = [], []
    for terms, crt in data.draw(st.lists(_products(), max_size=5)):
        form = data.draw(st.sampled_from(["plain", "crt", "half"]))
        mod = crt[0][0] if form == "half" else crt[0][0] * crt[1][0]
        products.append((terms, crt if form == "crt" else mod))
        serial.append(primes._multi_powmod(terms, mod))
        assert serial[-1] == _expected(terms, mod)
    assert primes.multi_powmod_many(products) == serial


def test_forced_helper_takes_the_empty_batch_and_a_single_product(forced):
    assert primes.multi_powmod_many([]) == []
    assert primes._HELPER is None
    terms = [(3, 1 << 300, True), (5, 12345, False)]
    assert primes.multi_powmod_many([(terms, 253)]) == [_expected(terms, 253)]
    assert primes._HELPER is not None


def _requests(monkeypatch):
    """The list of requests sent to the helper, each a (local, remote) pair."""
    sent = []
    real = primes._on_two_processes
    monkeypatch.setattr(primes, "_on_two_processes",
                        lambda local, remote: sent.append((local, remote)) or real(local, remote))
    return sent


# prime pairs with gcd(lambda, n) = 1, which a Paillier key needs
PAILLIER_PAIRS = [(5, 7)] + CRT_PRIME_PAIRS[2:]


@FORCED
@given(data=st.data())
def test_forced_helper_gives_the_serial_pow_lam(forced, data):
    p, q = data.draw(st.sampled_from(PAILLIER_PAIRS))
    keys = PaillierKeyPair.from_primes(p, q)
    n2 = keys.public.n_squared
    c = data.draw(st.one_of(st.sampled_from([0, 1, p, q, p * p, q * q, n2 - 1]),
                            st.integers(min_value=0, max_value=n2 - 1),
                            st.integers(min_value=1, max_value=n2 // p - 1).map(lambda k: k * p)))
    assert keys.pow_lam(c) == pow(c, keys.lam, n2)
    assert primes._HELPER is not None


@pytest.mark.parametrize("side", ["helper", "here"])
def test_a_non_unit_inverted_on_either_side_raises_and_keeps_the_pipe_in_step(forced, side):
    # the costlier term is evaluated here, the other one by the helper
    big = (7, 1 << 200, False)
    non_unit = (11 * 5, -3 if side == "helper" else -(1 << 300), False)
    terms = [(3, 12345, True), (5, 1 << 300, False)]
    assert primes.multi_powmod(terms, 253) == _expected(terms, 253)
    helper = primes._HELPER[0]
    with pytest.raises(ValueError):
        primes.multi_powmod([big, non_unit], 253)
    assert primes.multi_powmod(terms, 253) == _expected(terms, 253)
    with pytest.raises(ValueError):
        primes.multi_powmod_crt([big, non_unit], _crt_form(11, 23, False))
    # whole jobs: the costlier one is evaluated here
    batch = [([big], 253), ([non_unit], 253), ([(3, 12345, True)], 23)]
    with pytest.raises(ValueError):
        primes.multi_powmod_many(batch)
    assert primes.multi_powmod_many([(terms, 253), (terms, 23)]) == [_expected(terms, 253), _expected(terms, 23)]
    assert primes._HELPER[0] is helper  # a raised ValueError does not cost the helper


def test_crt_halves_reduce_exponents_with_the_helper_forced_on(forced, monkeypatch):
    sent = _requests(monkeypatch)
    p, q = 2**61 - 1, 2**89 - 1
    assert primes.multi_powmod_crt([(3, 1 << 600, True), (p, 5, False), (7, 9, False)],
                                   _crt_form(p, q, False)) == pow(3, 1 << 600, p * q) * p**5 * 7**9 % (p * q)
    ((local, remote),) = sent
    halves = {mod: terms for terms, mod in local + remote}
    assert len(local) == len(remote) == 1 and set(halves) == {p, q}
    half_p, half_q = halves[p], halves[q]
    assert half_p[0][1] == (1 << 600) % (p - 1) + (p - 1) and half_q[0][1] == (1 << 600) % (q - 1) + (q - 1)
    assert [t[1] for t in half_p[1:]] == [5, 9]


def test_one_request_per_bundle(forced, monkeypatch):
    # the fixture's bundles: link, ElGamal and predicate arms, then link and Paillier arms
    fx = build_fixture()
    sent = _requests(monkeypatch)
    session = ProofSession(fx.registry, fx.nonce, random.Random(7), commitment_source=fx.platform_defn.defn_id)
    counts = []
    bundle1 = session.build_bundle(fx.vc_pu, fx.wallet.link_secret, **fx.statement1)
    counts.append(len(sent))
    bundle2 = session.build_bundle(fx.vc_bu, fx.wallet.link_secret, **fx.statement2)
    counts.append(len(sent))
    own = (fx.platform_keys, fx.bank_keys, fx.bank_enc)
    for bundle, prev, statement in ((bundle1, None, fx.statement1), (bundle2, bundle_digest(bundle1), fx.statement2)):
        for keys in ((), own):
            assert verify_bundle(fx.registry, bundle, fx.nonce, expected_prev=prev, own_keys=keys, **statement)
            counts.append(len(sent))
    assert counts == [1, 2, 3, 4, 5, 6]
    assert all(local and remote for local, remote in sent)


def test_verdicts_and_digests_hold_with_the_helper_forced_on(tmp_path):
    plain = mutation_cases(build_fixture())
    with _helper_forced():
        forced_plain = mutation_cases(build_fixture())
        forced_keys = mutation_cases(build_fixture(), with_keys=True)
        splices = splice_harness(trials=50), splice_harness(trials=50, with_keys=True)
        fx = build_fixture()
        digests = bundle_digest(fx.bundle1).hex(), bundle_digest(fx.bundle2).hex()
        runs = {}
        for name in sorted(GOLDEN_DIGESTS):
            out = tmp_path / name
            result = CliRunner().invoke(main, ["--out", str(out), "scenario", "run", name])
            assert result.exit_code == 0, result.output
            runs[name] = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                               for f in ("events.jsonl", "ledger.jsonl"))
        assert primes._HELPER is not None
    assert len(plain) == 489 and not any(ok for _, ok in plain)
    assert forced_plain == forced_keys == plain
    assert splices == ((50, 50), (50, 50))
    assert digests == FIXTURE_DIGESTS
    assert runs == GOLDEN_DIGESTS


def test_a_toy_run_starts_no_helper(monkeypatch, tmp_path):
    primes._stop_helper()

    def refuse():
        raise AssertionError("a toy run asked for the helper process")

    monkeypatch.setattr(primes, "_helper_pipes", refuse)
    result = run_scenario(load_scenario(str(SCENARIO_DIR / "address_rotation.json")))
    assert all(ok for ok, _ in result.assertion_results.values())
    for _ in range(2):  # cold, then warm: the second validates the cached keys
        build_context(_toy_cfg(13), tmp_path)
    assert primes._HELPER is None


def test_one_cpu_starts_no_helper(forced, monkeypatch):
    monkeypatch.setattr(primes.os, "sched_getaffinity", lambda pid: {0})
    terms = [(3, 1 << 300, True), (5, 12345, False), (7, 99, True)]
    assert primes.multi_powmod(terms, 253) == _expected(terms, 253)
    assert primes.multi_powmod_crt(terms, _crt_form(11, 23, True)) == _expected(terms, 11**2 * 23**2)
    assert primes._HELPER is None


def test_stopping_the_helper_leaves_no_child(forced):
    terms = [(3, 1 << 300, True), (5, 12345, False)]
    assert primes.multi_powmod(terms, 253) == _expected(terms, 253)
    helper = primes._HELPER[0]
    primes._stop_helper()
    assert primes._HELPER is None
    with pytest.raises(ChildProcessError):
        os.waitpid(helper, os.WNOHANG)


def test_a_helper_killed_before_a_batch_leaves_its_share_here_and_no_zombie(forced):
    terms = [(3, 1 << 300, True), (5, 12345, False)]
    batch = [(terms, 253), (terms, _crt_form(11, 23, True)), ([(7, 1 << 200, False)], 23)]
    expected = [_expected(terms, 253), _expected(terms, 11**2 * 23**2), pow(7, 1 << 200, 23)]
    assert primes.multi_powmod_many(batch) == expected
    helper = primes._HELPER[0]
    os.kill(helper, signal.SIGKILL)
    os.waitid(os.P_PID, helper, os.WEXITED | os.WNOWAIT)  # dead, and not yet reaped
    assert primes.multi_powmod_many(batch) == expected
    assert primes._HELPER is None
    with pytest.raises(ChildProcessError):
        os.waitpid(helper, os.WNOHANG)
    assert primes.multi_powmod_many(batch) == expected
    assert primes._HELPER is not None and primes._HELPER[0] != helper


def test_a_killed_helper_is_reaped_and_its_product_made_here(forced):
    terms = [(3, 1 << 300, True), (5, 12345, False)]
    expected = _expected(terms, 253)
    assert primes.multi_powmod(terms, 253) == expected
    helper = primes._HELPER[0]
    os.kill(helper, signal.SIGKILL)
    os.waitid(os.P_PID, helper, os.WEXITED | os.WNOWAIT)  # dead, and not yet reaped
    assert primes.multi_powmod(terms, 253) == expected
    assert primes._HELPER is None
    with pytest.raises(ChildProcessError):
        os.waitpid(helper, os.WNOHANG)
    assert primes.multi_powmod(terms, 253) == expected
    assert primes._HELPER is not None and primes._HELPER[0] != helper


# Starts the helper, then exits as asked. Its own exit hook is registered
# before fcguard's, so it runs after it and sees whether the helper was reaped.
EXIT_SCRIPT = """
import atexit, os, signal, sys, time
pids = []

def report():
    try:
        os.waitpid(pids[0], os.WNOHANG)
        print("left", flush=True)
    except ChildProcessError:
        print("reaped", flush=True)
    print("multiprocessing", "multiprocessing" in sys.modules, flush=True)

atexit.register(report)
from fcguard.crypto import primes
primes._PARALLEL_MIN_MOD = primes._PARALLEL_MIN_WORK = 0
assert primes.multi_powmod([(3, 5, True), (7, 9, False)], 253) == 3**5 * 7**9 % 253
pids.append(primes._HELPER[0])
signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
print("ready", pids[0], flush=True)
if sys.argv[1] == "wait":
    time.sleep(60)
"""


def _exit_script(how):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    return subprocess.Popen([sys.executable, "-c", EXIT_SCRIPT, how], env=env,
                            stdout=subprocess.PIPE, text=True)


@pytest.mark.parametrize("how", ["return", "sigterm"])
def test_the_exit_hook_reaps_the_helper(how):
    child = _exit_script("wait" if how == "sigterm" else "return")
    try:
        assert child.stdout.readline().startswith("ready")
        if how == "sigterm":
            child.send_signal(signal.SIGTERM)
        out, _ = child.communicate(timeout=30)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    assert child.returncode == (143 if how == "sigterm" else 0)
    assert out.split("\n") == ["reaped", "multiprocessing False", ""]


def _state(pid):
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return "gone"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
def test_the_helper_exits_when_its_parent_dies():
    child = _exit_script("wait")
    try:
        helper = int(child.stdout.readline().split()[1])
        child.kill()
        child.wait()
        deadline = time.monotonic() + 10
        while _state(helper) not in ("gone", "Z", "X") and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _state(helper) in ("gone", "Z", "X")  # a zombie waits for init, its new parent
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


# ---------------------------------------------------------------------------
# registration: the issuer's exponent search and the holder's two rounds

def _one_at_a_time(lo, hi, rng):
    """The exponent search as one draw and one full test at a time."""
    while True:
        cand = rng.randrange(lo, hi) | 1
        if cand < hi and primes.is_probable_prime(cand):
            return cand


def _start_helper():
    terms = [(3, 1 << 300, True), (5, 12345, False)]
    assert primes.multi_powmod(terms, 253) == _expected(terms, 253)
    assert primes._HELPER is not None


def _e_window(profile):
    lo = 1 << (profile.e_bits - 1)
    return lo, lo + (1 << profile.e_window_bits)


@pytest.mark.parametrize("profile", [TOY, PAPER], ids=["toy", "paper"])
def test_the_exponent_search_on_two_processes_gives_the_serial_prime(forced, monkeypatch, profile):
    _start_helper()
    sent = _requests(monkeypatch)
    lo, hi = _e_window(profile)
    for seed in range(12 if profile is PAPER else 40):
        expected, mine = random.Random(seed), random.Random(seed)
        assert primes.random_prime_in_range(lo, hi, mine) == _one_at_a_time(lo, hi, expected), seed
        assert mine.getrandbits(64) == expected.getrandbits(64), seed
    assert sent and all(len(local) + len(remote) <= primes._SEARCH_ROUND for local, remote in sent)
    assert all(terms == ((2, mod - 1, False),) for local, remote in sent for terms, mod in local + remote)


# (4^13 - 1)/3 = 8191 * 2731 passes the base-2 Fermat test (Cipolla). Unlike
# 341, 561 or 645, it has no factor below 2000, so trial division lets it
# through to the helper's Fermat test, and only the strong test refuses it.
PSEUDOPRIME = 22369621
NEXT_PRIME = 22369661


def test_the_exponent_search_refuses_a_fermat_pseudoprime(forced, monkeypatch):
    assert pow(2, PSEUDOPRIME - 1, PSEUDOPRIME) == 1 and not primes.is_probable_prime(PSEUDOPRIME)
    _start_helper()
    sent = _requests(monkeypatch)
    confirmed = []
    real = primes.is_probable_prime
    monkeypatch.setattr(primes, "is_probable_prime", lambda n: confirmed.append(n) or real(n))
    for seed in range(30):
        expected, mine = random.Random(seed), random.Random(seed)
        assert _one_at_a_time(PSEUDOPRIME, NEXT_PRIME + 1, expected) == NEXT_PRIME
        assert primes.random_prime_in_range(PSEUDOPRIME, NEXT_PRIME + 1, mine) == NEXT_PRIME
        assert mine.getrandbits(64) == expected.getrandbits(64), seed
    assert sent and PSEUDOPRIME in confirmed  # it passed the Fermat round and was refused after


def test_the_exponent_search_survives_a_helper_killed_before_a_round(forced):
    _start_helper()
    helper = primes._HELPER[0]
    os.kill(helper, signal.SIGKILL)
    os.waitid(os.P_PID, helper, os.WEXITED | os.WNOWAIT)  # dead, and not yet reaped
    lo, hi = _e_window(PAPER)
    expected, mine = random.Random(3), random.Random(3)
    assert primes.random_prime_in_range(lo, hi, mine) == _one_at_a_time(lo, hi, expected)
    assert mine.getrandbits(64) == expected.getrandbits(64)
    assert primes._HELPER is None
    with pytest.raises(ChildProcessError):
        os.waitpid(helper, os.WNOHANG)


def test_the_gmpy2_shape_keeps_the_serial_exponent_search(forced, monkeypatch):
    _start_helper()
    sent = _requests(monkeypatch)
    monkeypatch.setattr(primes, "gmpy2", SimpleNamespace(is_prime=lambda n, reps: primes._bpsw(n)))
    lo, hi = _e_window(PAPER)
    for seed in range(3):
        expected, mine = random.Random(seed), random.Random(seed)
        assert primes.random_prime_in_range(lo, hi, mine) == _one_at_a_time(lo, hi, expected)
        assert mine.getrandbits(64) == expected.getrandbits(64)
    assert sent == []


def _issuance(seed):
    """A toy issuer's definition, a wallet and a request's parts."""
    rng = random.Random(seed)
    keys = cl_keygen(4, TOY, rng)
    schema = Schema("schema:p", "platform", PLATFORM_ATTRIBUTES)
    _, defn = publish_definition(Registry(), keys, schema, "defn:p", TOY)
    return rng, keys, schema, defn, Wallet.create(TOY, rng)


def test_the_holder_sends_one_request_and_finalizes_in_at_most_two(forced, monkeypatch):
    rng, keys, schema, defn, wallet = _issuance("holder-rounds")
    sent = _requests(monkeypatch)
    for i in range(3):
        before = len(sent)
        request, v_prime = create_credential_request(wallet.link_secret, defn, b"n%d" % i, rng)
        assert len(sent) - before == 1
        cred = issue_credential(keys, defn, schema, request, {"name": "H", "birthday": 19900101, "ssn": i}, rng)
        before = len(sent)
        holder_finalize_credential(defn, schema, cred, wallet.link_secret, v_prime, b"n%d" % i)
        assert 1 <= len(sent) - before <= 2


def _tampers(keys, defn, schema, cred, slots):
    """(name, credential) pairs the holder must refuse."""
    sig, proof = cred.signature, cred.signature_proof
    out = [("a+1", dataclasses.replace(cred, signature=dataclasses.replace(sig, a=sig.a + 1))),
           ("e+2", dataclasses.replace(cred, signature=dataclasses.replace(sig, e=sig.e + 2))),
           ("v+1", dataclasses.replace(cred, signature=dataclasses.replace(sig, v=sig.v + 1)))]
    for name in schema.attribute_names:
        attrs = dict(cred.attributes)
        attrs[name] += 1
        out.append((f"{name}+1", dataclasses.replace(cred, attributes=attrs)))
    # a valid signature whose e lies past the window: the issuer signs with that e
    e = primes.random_prime_in_range(*(w + (1 << TOY.e_window_bits) for w in _e_window(TOY)), random.Random(1))
    pk = defn.public_key
    q_value = recompute_q(pk, slots, sig.v)
    a = keys.powmod_crt(q_value, pow(e, -1, keys.group_order))
    out.append(("e-outside", dataclasses.replace(cred, signature=ClSignature(a=a, e=e, v=sig.v))))
    for field, value in (("challenge", proof.challenge + 1), ("s_e", proof.s_e + 1), ("s_e", "x")):
        out.append((f"{field}-tamper", dataclasses.replace(
            cred, signature_proof=dataclasses.replace(proof, **{field: value}))))
    return out


SIGNATURE, EXPONENT, PROOF, MALFORMED = ("credential signature invalid",
                                         "signature exponent outside the accepted prime range",
                                         "issuer signature-correctness proof invalid", "credential malformed")


def test_the_holder_refuses_each_tamper_as_before_with_the_helper_on_and_off():
    rng, keys, schema, defn, wallet = _issuance("holder-tampers")
    nonce = b"tamper"
    request, v_prime = create_credential_request(wallet.link_secret, defn, nonce, rng)
    cred = issue_credential(keys, defn, schema, request, {"name": "H", "birthday": 19900101, "ssn": 7}, rng)
    fine = holder_finalize_credential(defn, schema, cred, wallet.link_secret, v_prime, nonce)
    slots = [wallet.link_secret.value] + [fine.attributes[name] for name in schema.attribute_names]
    # the finalized credential's v is complete, so these are checked with v' = 0
    tampers = _tampers(keys, defn, schema, fine, slots)
    # a str s_e is refused by the credential's shape check, before any proof work
    expected = [SIGNATURE] * 6 + [EXPONENT] + [PROOF] * 2 + [MALFORMED]
    verdicts = []
    for forced_on in (False, True):
        with _helper_forced() if forced_on else contextlib.nullcontext():
            if forced_on:
                _start_helper()
            assert holder_finalize_credential(defn, schema, fine, wallet.link_secret, 0, nonce) == fine
            messages = []
            for name, bad in tampers:
                with pytest.raises(VerificationError) as info:
                    holder_finalize_credential(defn, schema, bad, wallet.link_secret, 0, nonce)
                messages.append(str(info.value))
            verdicts.append(messages)
    assert verdicts == [expected, expected], [name for name, _ in tampers]


# ---------------------------------------------------------------------------
# set-up: the prime checks of a cached key in one request

def _prime_corpus():
    """Numbers for is_probable_prime and partners q for is_prime_2q_plus_1:
    strong pseudoprimes, fixed-base pseudoprimes, perfect squares, a Fermat
    pseudoprime past trial division, and primes whose partner is composite."""
    base2, lucas = strong_pseudoprimes_below_100000()
    pinned = sorted(PINNED_SOPHIE_GERMAIN.values())
    numbers = (list(range(-3, 3000)) + base2 + lucas + [n for n, _ in FIXED_BASE_PSEUDOPRIMES]
               + [r * r for r in SQUARE_ROOTS] + [PSEUDOPRIME, NEXT_PRIME] + pinned
               + [2 * q + 1 for q in pinned])
    partners = ([q for q in range(-3, 20000) if primes.is_probable_prime(q)] + pinned
                + [_next_prime(q + 1) for q in pinned])
    assert not all(primes.is_prime_2q_plus_1(q) for q in partners[-len(pinned):])
    return numbers, partners


def _serial_verdicts(numbers, partners):
    return [primes.is_probable_prime(n) for n in numbers] + [primes.is_prime_2q_plus_1(q) for q in partners]


def test_the_batched_prime_check_gives_the_serial_verdicts(forced, monkeypatch):
    numbers, partners = _prime_corpus()
    expected = _serial_verdicts(numbers, partners)
    sent = _requests(monkeypatch)
    assert primes.primality_many(numbers, partners) == expected
    ((local, remote),) = sent
    for side in (local, remote):  # BPSW and Pocklington jobs on both sides
        assert any(terms is None for terms, _ in side)
        assert any(terms is not None and terms[0][0] == 2 for terms, _ in side)
    # trial division and 2q + 1 = 0 (mod 3) stay here
    assert all(terms is not None or math.gcd(n, primes._TRIAL_PRODUCT) == 1 for terms, n in local + remote)
    assert all(mod % 3 for terms, mod in local + remote if terms is not None)


def _prime_check_requests(sent):
    """The requests that carry prime tests: (BPSW moduli, Pocklington moduli)."""
    out = []
    for local, remote in sent:
        jobs = local + remote
        if any(terms is None for terms, _ in jobs):
            out.append((sorted(n for terms, n in jobs if terms is None),
                        sorted(mod for terms, mod in jobs if terms is not None)))
    return out


def test_loading_a_key_sends_its_prime_checks_in_one_request(forced, monkeypatch, tmp_path):
    keys = keycache.issuer_keys(TOY, 5, "platform", 4, tmp_path)
    paillier = keycache.bank_paillier_keys(TOY, 5, tmp_path)
    sent = _requests(monkeypatch)
    assert keycache.issuer_keys(TOY, 5, "platform", 4, tmp_path) == keys
    assert _prime_check_requests(sent) == [(sorted((keys.p_prime, keys.q_prime)), sorted((keys.p, keys.q)))]
    sent.clear()
    assert keycache.bank_paillier_keys(TOY, 5, tmp_path) == paillier
    assert _prime_check_requests(sent) == [(sorted((paillier.p, paillier.q)), [])]


def test_a_helper_killed_before_the_prime_checks_leaves_the_serial_verdicts(forced, monkeypatch, tmp_path):
    keys = keycache.issuer_keys(TOY, 5, "platform", 4, tmp_path)
    (path,) = tmp_path.glob("cl-*.json")
    text = path.read_text()
    killed = []
    real = keycache.primality_many

    def kill_first(*args):
        _start_helper()
        killed.append(primes._HELPER[0])
        os.kill(killed[0], signal.SIGKILL)
        os.waitid(os.P_PID, killed[0], os.WEXITED | os.WNOWAIT)  # dead, and not yet reaped
        return real(*args)

    def refuse(*args):
        raise AssertionError("a valid cached key was made again")

    monkeypatch.setattr(keycache, "primality_many", kill_first)
    monkeypatch.setattr(keycache, "cl_keygen", refuse)
    assert keycache.issuer_keys(TOY, 5, "platform", 4, tmp_path) == keys
    assert path.read_text() == text
    assert primes._HELPER is None
    with pytest.raises(ChildProcessError):
        os.waitpid(killed[0], os.WNOHANG)


def test_the_gmpy2_shape_checks_primes_here(forced, monkeypatch, tmp_path):
    numbers, partners = _prime_corpus()
    expected = _serial_verdicts(numbers, partners)
    keys = keycache.issuer_keys(TOY, 5, "platform", 4, tmp_path)
    _start_helper()
    sent = _requests(monkeypatch)
    monkeypatch.setattr(primes, "gmpy2", SimpleNamespace(is_prime=lambda n, reps: primes._bpsw(n)))
    assert primes.primality_many(numbers, partners) == expected
    assert keycache.issuer_keys(TOY, 5, "platform", 4, tmp_path) == keys
    assert sent == []


def _past_trial_division(bits, count):
    """`count` odd numbers of `bits` bits that trial division leaves to BPSW."""
    n, out = (1 << (bits - 1)) + 1, []
    while len(out) < count:
        if math.gcd(n, primes._TRIAL_PRODUCT) == 1:
            out.append(n)
        n += 2
    return out


def test_only_checks_above_the_modulus_gate_use_the_helper(monkeypatch):
    sent = _requests(monkeypatch)
    try:
        # one prime test alone is never cut, so it stays here
        for bits, count, requests in ((1024, 2, 0), (1025, 1, 0), (1025, 2, 1)):
            numbers = _past_trial_division(bits, count)
            assert primes.primality_many(numbers) == [primes.is_probable_prime(n) for n in numbers]
            assert len(sent) == requests
    finally:
        primes._stop_helper()
