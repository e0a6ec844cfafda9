import json
import random
import signal
import subprocess
from types import SimpleNamespace

import pytest

from fcguard import keycache
from fcguard.bench import run_bench
from fcguard.crypto.cl import ClIssuerKeyPair
from fcguard.crypto.commitment import hashed_square
from fcguard.crypto.paillier import paillier_keygen
from fcguard.crypto.primes import crt_pair, is_probable_prime, random_prime
from fcguard.errors import FcGuardError
from fcguard.keycache import issuer_keys
from fcguard.params import TOY
from fcguard.scenario import build_context


def _cache_file(tmp_path):
    (path,) = tmp_path.glob("cl-*.json")
    return path


def test_cache_hit_reloads_identical_keys(tmp_path):
    first = issuer_keys(TOY, 5, "platform", 4, tmp_path)
    assert issuer_keys(TOY, 5, "platform", 4, tmp_path) == first
    assert issuer_keys(TOY, 5, "platform", 4, None) == first


def test_corrupted_p_prime_is_rejected_and_regenerated(tmp_path):
    fresh = issuer_keys(TOY, 5, "platform", 4, tmp_path)
    path = _cache_file(tmp_path)
    raw = json.loads(path.read_text())
    raw["p_prime"] = str(int(raw["p_prime"]) + 2)
    assert not is_probable_prime(int(raw["p_prime"]))
    path.write_text(json.dumps(raw))
    reloaded = issuer_keys(TOY, 5, "platform", 4, tmp_path)
    assert reloaded == fresh
    assert json.loads(path.read_text())["p_prime"] == str(fresh.p_prime)



def test_prime_p_prime_with_composite_partner_is_rejected_and_regenerated(tmp_path):
    fresh = issuer_keys(TOY, 5, "platform", 4, tmp_path)
    path = _cache_file(tmp_path)
    raw = json.loads(path.read_text())
    q = fresh.p_prime + 2
    while not (is_probable_prime(q) and not is_probable_prime(2 * q + 1)):
        q += 2
    assert q.bit_length() == TOY.sg_prime_bits
    raw["p_prime"] = str(q)
    path.write_text(json.dumps(raw))
    forged = ClIssuerKeyPair.from_secrets(q, fresh.q_prime, fresh.x_z, list(fresh.x_r))
    with pytest.raises(FcGuardError):  # only the Pocklington check on 2p'+1 fails
        keycache._validate(forged, TOY, 4)
    assert issuer_keys(TOY, 5, "platform", 4, tmp_path) == fresh
    assert json.loads(path.read_text())["p_prime"] == str(fresh.p_prime)


@pytest.mark.parametrize("forge,reason", [
    (lambda keys: {"q_prime": "5"}, "bits"),  # a 69-bit n at the toy profile
    (lambda keys: {"q_prime": str(keys.p_prime)}, "p' = q'"),
], ids=["small-q", "p-equals-q"])
def test_bad_issuer_secrets_are_rejected_by_name_and_regenerated(tmp_path, forge, reason):
    fresh = issuer_keys(TOY, 5, "platform", 4, tmp_path)
    path = _cache_file(tmp_path)
    raw = json.loads(path.read_text())
    forged = {**raw, **forge(fresh)}
    with pytest.raises(FcGuardError, match=reason):
        keycache._load_issuer_keys(forged, TOY, 4)
    path.write_text(json.dumps(forged))
    assert issuer_keys(TOY, 5, "platform", 4, tmp_path) == fresh
    assert json.loads(path.read_text()) == raw


# values of `s` that generate no QR_n: no load reads `s`, as S is hashed from n
@pytest.mark.parametrize("forge", [
    lambda keys: {"s": "0"},
    lambda keys: {"s": "1"},  # Z = R_i = S = 1, had the file chosen S
    lambda keys: {"s": str(keys.public.n - 1)},  # (-1/p) = -1
    lambda keys: {"s": str(keys.public.s + keys.public.n)},
    lambda keys: {"s": str(crt_pair(1, keys.p, keys.public.s, keys.q))},  # S = 1 mod p
], ids=["s-0", "s-1", "s-non-residue", "s-past-n", "s-1-mod-p"])
def test_a_cached_s_is_never_read(tmp_path, forge):
    fresh = issuer_keys(TOY, 5, "platform", 4, tmp_path)
    path = _cache_file(tmp_path)
    raw = json.loads(path.read_text())
    forged = {**raw, **forge(fresh)}
    without = {name: value for name, value in raw.items() if name != "s"}
    assert keycache._load_issuer_keys(forged, TOY, 4) == keycache._load_issuer_keys(without, TOY, 4) == fresh
    path.write_text(json.dumps(forged))
    assert issuer_keys(TOY, 5, "platform", 4, tmp_path) == fresh
    assert json.loads(path.read_text()) == forged  # loaded, not made again


def test_the_written_s_is_the_derived_one(tmp_path):
    keys = issuer_keys(TOY, 5, "platform", 4, tmp_path)
    written = json.loads(_cache_file(tmp_path).read_text())["s"]
    assert int(written) == keys.public.s == hashed_square(keys.public.n, "issuer-s")


# cl-toy-5-platform-4.json as written while keygen drew S at random: the same
# primes, then S, then x_z and the x_r from the rest of the stream
DRAWN_S_FILE = (
    '{"p_prime": "14130222591937116761", "q_prime": "14020667994133914401", '
    '"s": "682400813563130725320126207850170181743", '
    '"x_r": ["166819645444967562975698660236988089570", "148280770542726279498030708672702293228", '
    '"58052015204721572149209675663843745335", "94014844172377469770949339661218278667"], '
    '"x_z": "167210401753484847689547070136536779295"}')


def test_a_file_with_a_drawn_s_loads_without_being_rewritten(tmp_path):
    raw = json.loads(DRAWN_S_FILE)
    path = tmp_path / "cl-toy-5-platform-4.json"
    path.write_text(DRAWN_S_FILE)
    keys = issuer_keys(TOY, 5, "platform", 4, tmp_path)
    assert path.read_text() == DRAWN_S_FILE
    assert keys == ClIssuerKeyPair.from_secrets(int(raw["p_prime"]), int(raw["q_prime"]), int(raw["x_z"]),
                                                [int(x) for x in raw["x_r"]])
    assert keys.public.s != int(raw["s"])
    fresh = issuer_keys(TOY, 5, "platform", 4, None)
    assert (fresh.p_prime, fresh.q_prime) == (keys.p_prime, keys.q_prime)  # the draw of S came after the primes


def test_fill_missing_makes_the_same_keys_in_parallel(tmp_path):
    keycache.fill_missing(TOY, 7, [("platform", 4), ("bank", 4)], tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cl-toy-7-bank-4.json", "cl-toy-7-platform-4.json"]
    for label in ("platform", "bank"):
        assert issuer_keys(TOY, 7, label, 4, tmp_path) == issuer_keys(TOY, 7, label, 4, None)


@pytest.fixture
def children(monkeypatch):
    """Records the children fill_missing starts. It also takes the child path
    at the toy profile, which otherwise makes every key in this process, so
    that path runs at toy size."""
    monkeypatch.setattr(keycache, "IN_PROCESS_PROFILES", frozenset())
    started = []

    def popen(*args, **kwargs):
        started.append(real_popen(*args, **kwargs))
        return started[-1]

    real_popen = subprocess.Popen
    monkeypatch.setattr(keycache.subprocess, "Popen", popen)
    return started


@pytest.mark.parametrize("slots,child_status", [
    ([("platform", 4), ("bank", 0)], 1),  # the child fails
    ([("platform", 0), ("bank", 4)], -signal.SIGKILL),  # this process fails first
])
def test_failed_fill_raises_and_leaves_no_process(tmp_path, children, slots, child_status):
    with pytest.raises(FcGuardError):
        keycache.fill_missing(TOY, 9, slots, tmp_path)
    (child,) = children
    assert child.returncode == child_status  # set only once the child is reaped
    assert not list(tmp_path.glob("*.tmp"))


def test_one_missing_key_is_made_in_process(tmp_path, children):
    issuer_keys(TOY, 5, "platform", 4, tmp_path)
    keycache.fill_missing(TOY, 5, [("platform", 4), ("bank", 4)], tmp_path)
    assert children == []
    assert not (tmp_path / "cl-toy-5-bank-4.json").exists()


@pytest.fixture
def validated(monkeypatch):
    """Moduli of the keys keycache._validate checks."""
    labels = []
    real_validate = keycache._validate

    def validate(keys, profile, slot_count):
        labels.append(keys.public.n)
        real_validate(keys, profile, slot_count)

    monkeypatch.setattr(keycache, "_validate", validate)
    return labels


def _toy_cfg(seed):
    return {"seed": seed, "profile": "toy",
            "users": [{"name": "Key Cache", "birthday": 19930303, "ssn": 741_852_963,
                       "bank_account": 99_888_777_666_555_444, "balance": 4000}],
            "orders": []}


def test_cold_toy_fill_validates_only_keys_read_from_disk(tmp_path, validated):
    cold, _ = build_context(_toy_cfg(13), tmp_path)
    assert validated == []  # both keys were made in this process and handed back
    warm, _ = build_context(_toy_cfg(13), tmp_path)
    assert sorted(validated) == sorted([warm.platform.issuer_keys.public.n, warm.bank.issuer_keys.public.n])
    assert (warm.platform.issuer_keys, warm.bank.issuer_keys) == (cold.platform.issuer_keys, cold.bank.issuer_keys)


def test_cold_toy_fill_starts_no_subprocess(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a toy key fill started a subprocess")

    # only keycache's own process starts are refused; run_bench asks `uname` for the CPU
    monkeypatch.setattr(keycache, "subprocess", SimpleNamespace(Popen=refuse))
    made = keycache.fill_missing(TOY, 7, [("platform", 4), ("bank", 4)], tmp_path)
    assert made == {(label, 4): issuer_keys(TOY, 7, label, 4, None) for label in ("platform", "bank")}
    report = run_bench(profile="toy", iterations=5, seed=17)
    assert report.phases


def _paillier_file(tmp_path):
    (path,) = tmp_path.glob("paillier-*.json")
    return path


def test_paillier_cache_hit_is_the_seeded_key(tmp_path):
    seeded = paillier_keygen(TOY, random.Random("5:paillier:bank"))
    cold = keycache.bank_paillier_keys(TOY, 5, tmp_path)
    assert _paillier_file(tmp_path).name == "paillier-toy-5-bank.json"
    warm = keycache.bank_paillier_keys(TOY, 5, tmp_path)
    for keys in (cold, warm, keycache.bank_paillier_keys(TOY, 5, None)):
        assert keys.public.n == seeded.public.n
        assert keys.public.key_id() == seeded.public.key_id()
        assert (keys.p, keys.q) == (seeded.p, seeded.q)


def _composite_p(keys):
    p = keys.p + 2
    while is_probable_prime(p):
        p += 2
    return {"p": str(p)}


def _wrong_size_q(keys):
    q = random_prime(TOY.paillier_modulus_bits // 2 - 1, random.Random(1))
    return {"q": str(q)}


@pytest.fixture
def paillier_made(monkeypatch):
    """One entry per Paillier key keycache makes rather than loads."""
    made = []
    real_keygen = keycache.paillier_keygen

    def keygen(*args):
        made.append(1)
        return real_keygen(*args)

    monkeypatch.setattr(keycache, "paillier_keygen", keygen)
    return made


@pytest.mark.parametrize("forge", [
    _composite_p,
    lambda keys: {"q": str(keys.p)},  # p = q
    _wrong_size_q,
    lambda keys: {"p": [str(keys.p)]},
])
def test_bad_paillier_cache_file_is_rejected_and_regenerated(tmp_path, paillier_made, forge):
    fresh = keycache.bank_paillier_keys(TOY, 5, tmp_path)
    path = _paillier_file(tmp_path)
    raw = json.loads(path.read_text())
    path.write_text(json.dumps({**raw, **forge(fresh)}))
    paillier_made.clear()
    assert keycache.bank_paillier_keys(TOY, 5, tmp_path) == fresh
    assert paillier_made == [1]
    assert json.loads(path.read_text()) == raw


def test_cold_toy_context_writes_the_paillier_key_and_a_warm_one_reads_it(tmp_path, paillier_made):
    cold, _ = build_context(_toy_cfg(13), tmp_path)
    assert paillier_made == [1]
    assert _paillier_file(tmp_path).name == "paillier-toy-13-bank.json"
    warm, _ = build_context(_toy_cfg(13), tmp_path)
    assert paillier_made == [1]
    assert warm.bank.enc_keys == cold.bank.enc_keys
    uncached, _ = build_context(_toy_cfg(13))
    assert uncached.bank.enc_keys.public.key_id() == warm.bank.enc_keys.public.key_id()
