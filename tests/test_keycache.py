import json

from fcguard.crypto.primes import is_probable_prime
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

