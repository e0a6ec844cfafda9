import json
import signal
import subprocess

import pytest

from fcguard import keycache
from fcguard.crypto.cl import ClIssuerKeyPair
from fcguard.crypto.primes import is_probable_prime
from fcguard.errors import FcGuardError
from fcguard.keycache import issuer_keys
from fcguard.params import TOY


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
    forged = ClIssuerKeyPair.from_secrets(q, fresh.q_prime, fresh.public.s, fresh.x_z, list(fresh.x_r))
    with pytest.raises(FcGuardError):  # only the Pocklington check on 2p'+1 fails
        keycache._validate(forged, TOY, 4)
    assert issuer_keys(TOY, 5, "platform", 4, tmp_path) == fresh
    assert json.loads(path.read_text())["p_prime"] == str(fresh.p_prime)


def test_fill_missing_makes_the_same_keys_in_parallel(tmp_path):
    keycache.fill_missing(TOY, 7, [("platform", 4), ("bank", 4)], tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cl-toy-7-bank-4.json", "cl-toy-7-platform-4.json"]
    for label in ("platform", "bank"):
        assert issuer_keys(TOY, 7, label, 4, tmp_path) == issuer_keys(TOY, 7, label, 4, None)


@pytest.fixture
def children(monkeypatch):
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
