"""Optional on-disk cache for generated issuer keys and the bank's Paillier
key.

Benchmark-profile key generation hunts for 1536-bit Sophie Germain primes,
which costs tens of seconds; since generation is deterministic in (profile,
seed, label, slot count), the result can be cached and reloaded byte-for-byte.
A file holds p', q', x_z, the x_r and an `s` no load reads, as S is hashed
from n. A load checks by name that p' and q' have `sg_prime_bits` bits and
differ, rebuilds S, Z and the R_i, and revalidates the modulus structure,
with one `crypto.primes.primality_many` call: the Baillie-PSW test on p' and
q' and one exponentiation each for p and q (for a prime p', Pocklington's
criterion decides 2p'+1 exactly), on both processes at the paper profile.

`bank_paillier_keys` caches the bank's Paillier key the same way, as its
primes p and q, which must differ, have exactly half the profile's modulus
bits and be prime (one `primality_many` call, evaluated in this process at
1024 bits); the key is the one `paillier_keygen` makes from the same seed. A
cache file that fails its checks is deleted and made again.

`fill_missing` generates several missing issuer keys at the same time: the
first in this process, each other one in a plain child process

    python -m fcguard.keycache CACHE_DIR PROFILE SEED LABEL SLOTS

At the toy profile a key takes milliseconds, less than a child's start-up,
so every missing toy key is made in this process. `fill_missing` hands back
the keys it made in this process, which need no reload; keys read from the
cache, including those a child wrote, are validated on load. Each key draws
from its own RNG stream, so where it is made does not change it. Cache
files are written to a temporary file and renamed into place, so a reader
never sees half a key."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, TypeVar

from .crypto.cl import ClIssuerKeyPair, cl_keygen
from .crypto.paillier import PaillierKeyPair, paillier_keygen
from .crypto.primes import primality_many
from .errors import FcGuardError
from .params import Profile, get_profile

# Profiles whose keys are made in this process however many are missing.
IN_PROCESS_PROFILES = frozenset({"toy"})

_Key = TypeVar("_Key")


def _check_secrets(p_prime: int, q_prime: int, profile: Profile) -> None:
    """p' and q' of the profile's size and distinct, before a key is built."""
    bits = profile.sg_prime_bits
    if not all(1 << (bits - 1) <= x < 1 << bits for x in (p_prime, q_prime)):
        raise FcGuardError(f"cached issuer key: p' and q' must have {bits} bits")
    if p_prime == q_prime:
        raise FcGuardError("cached issuer key: p' = q'")


def _validate(keys: ClIssuerKeyPair, profile: Profile, slot_count: int) -> None:
    # S, Z and the R_i need no check: from_secrets has just computed them from n
    pk = keys.public
    ok = (
        pk.n == keys.p * keys.q
        and keys.p == 2 * keys.p_prime + 1
        and keys.q == 2 * keys.q_prime + 1
        and keys.p_prime.bit_length() == profile.sg_prime_bits
        and len(pk.r_bases) == slot_count
        and all(primality_many((keys.p_prime, keys.q_prime), (keys.p_prime, keys.q_prime)))
    )
    if not ok:
        raise FcGuardError("cached issuer key failed validation")


def _cache_path(cache_dir: str | Path, profile: Profile, seed: int | str, label: str,
                slot_count: int) -> Path:
    return Path(cache_dir) / f"cl-{profile.name}-{seed}-{label}-{slot_count}.json"


def _write_atomically(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def _cached(path: Path, load: Callable[[dict], _Key], make: Callable[[], _Key],
            dump: Callable[[_Key], dict]) -> _Key:
    """The key `load` rebuilds from the JSON object at `path`; a file it
    refuses, by raising ValueError, KeyError, TypeError or FcGuardError, is
    deleted. Without a usable file the key is made and written."""
    if path.exists():
        try:
            return load(json.loads(path.read_text()))
        except (ValueError, KeyError, TypeError, FcGuardError):
            path.unlink(missing_ok=True)
    key = make()
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_atomically(path, json.dumps(dump(key), sort_keys=True))
    return key


def _load_issuer_keys(raw: dict, profile: Profile, slot_count: int) -> ClIssuerKeyPair:
    p_prime, q_prime = int(raw["p_prime"]), int(raw["q_prime"])
    _check_secrets(p_prime, q_prime, profile)
    keys = ClIssuerKeyPair.from_secrets(p_prime, q_prime, int(raw["x_z"]), [int(x) for x in raw["x_r"]])
    _validate(keys, profile, slot_count)
    return keys


def issuer_keys(profile: Profile, seed: int | str, label: str, slot_count: int,
                cache_dir: str | Path | None) -> ClIssuerKeyPair:
    """Generate (or load) issuer keys for a deterministic (seed, label) slot.
    The RNG stream is private to this call, so cache hits and misses leave
    every other random draw in the run unchanged."""
    rng = random.Random(f"{seed}:clkeys:{label}:{slot_count}:{profile.name}")
    if cache_dir is None:
        return cl_keygen(slot_count, profile, rng)
    return _cached(
        _cache_path(cache_dir, profile, seed, label, slot_count),
        lambda raw: _load_issuer_keys(raw, profile, slot_count),
        lambda: cl_keygen(slot_count, profile, rng),
        # `s`, unread, keeps files loadable by older loaders: perfbench keeps its
        # paper keys in .perfbench-cache/keys/, and a remade one costs about 35 s
        lambda keys: {"p_prime": str(keys.p_prime), "q_prime": str(keys.q_prime),
                      "s": str(keys.public.s), "x_r": [str(x) for x in keys.x_r],
                      "x_z": str(keys.x_z)})


def _load_paillier_keys(raw: dict, profile: Profile) -> PaillierKeyPair:
    p, q = int(raw["p"]), int(raw["q"])
    half = profile.paillier_modulus_bits // 2
    if not (p != q and p.bit_length() == q.bit_length() == half and all(primality_many((p, q)))):
        raise FcGuardError("cached Paillier key failed validation")
    return PaillierKeyPair.from_primes(p, q)


def bank_paillier_keys(profile: Profile, seed: int | str,
                       cache_dir: str | Path | None) -> PaillierKeyPair:
    """Generate (or load) the bank's Paillier key for a seed:
    `paillier_keygen` on its own RNG stream, as for issuer keys."""
    rng = random.Random(f"{seed}:paillier:bank")
    if cache_dir is None:
        return paillier_keygen(profile, rng)
    return _cached(
        Path(cache_dir) / f"paillier-{profile.name}-{seed}-bank.json",
        lambda raw: _load_paillier_keys(raw, profile),
        lambda: paillier_keygen(profile, rng),
        lambda keys: {"p": str(keys.p), "q": str(keys.q)})


def fill_missing(profile: Profile, seed: int | str, slots: list[tuple[str, int]],
                 cache_dir: str | Path) -> dict[tuple[str, int], ClIssuerKeyPair]:
    """Generate the keys of the (label, slot count) pairs in `slots` that have
    no cache file: all in this process at a profile in IN_PROCESS_PROFILES,
    otherwise at the same time when more than one is missing. Returns the
    keys made in this process, by (label, slot count). Every child is waited
    for, and killed first if this call ends early; a child that fails raises
    FcGuardError."""
    missing = [(label, count) for label, count in slots
               if not _cache_path(cache_dir, profile, seed, label, count).exists()]
    if profile.name in IN_PROCESS_PROFILES:
        return {slot: issuer_keys(profile, seed, *slot, cache_dir) for slot in missing}
    if len(missing) < 2:
        return {}
    env = dict(os.environ)
    package_root = str(Path(__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    children: list[subprocess.Popen] = []
    try:
        for label, count in missing[1:]:
            # the package imports this module before runpy runs it, which runpy warns of
            children.append(subprocess.Popen(
                [sys.executable, "-W", "ignore::RuntimeWarning:runpy", "-m", "fcguard.keycache",
                 str(cache_dir), profile.name, str(seed), label, str(count)],
                env=env, stdout=subprocess.DEVNULL))
        made = {missing[0]: issuer_keys(profile, seed, *missing[0], cache_dir)}
        codes = [child.wait() for child in children]
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
            child.wait()
    if any(codes):
        raise FcGuardError(f"issuer key generation failed in a child process, exit codes {codes}")
    return made


if __name__ == "__main__":
    cache_dir, profile_name, seed, label, count = sys.argv[1:]
    issuer_keys(get_profile(profile_name), seed, label, int(count), cache_dir)
