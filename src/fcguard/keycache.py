"""Optional on-disk cache for generated issuer keys.

Benchmark-profile key generation hunts for 1536-bit Sophie Germain primes,
which costs tens of seconds; since generation is deterministic in (profile,
seed, label, slot count), the result can be cached and reloaded byte-for-byte.
Every load rebuilds Z and the R_i from the cached secrets and revalidates the
modulus structure, sizes and primality before use."""

from __future__ import annotations

import json
import random
from pathlib import Path

from .crypto.cl import ClIssuerKeyPair, cl_keygen
from .crypto.primes import is_probable_prime
from .errors import FcGuardError
from .params import Profile


def _validate(keys: ClIssuerKeyPair, profile: Profile, slot_count: int) -> None:
    # Z and the R_i need no check: from_secrets has just computed them from S
    pk = keys.public
    ok = (
        pk.n == keys.p * keys.q
        and keys.p == 2 * keys.p_prime + 1
        and keys.q == 2 * keys.q_prime + 1
        and keys.p_prime.bit_length() == profile.sg_prime_bits
        and len(pk.r_bases) == slot_count
        and all(is_probable_prime(v) for v in (keys.p, keys.q, keys.p_prime, keys.q_prime))
    )
    if not ok:
        raise FcGuardError("cached issuer key failed validation")


def issuer_keys(profile: Profile, seed: int | str, label: str, slot_count: int,
                cache_dir: str | Path | None) -> ClIssuerKeyPair:
    """Generate (or load) issuer keys for a deterministic (seed, label) slot.
    The RNG stream is private to this call, so cache hits and misses leave
    every other random draw in the run unchanged."""
    rng = random.Random(f"{seed}:clkeys:{label}:{slot_count}:{profile.name}")
    if cache_dir is None:
        return cl_keygen(slot_count, profile, rng)
    path = Path(cache_dir) / f"cl-{profile.name}-{seed}-{label}-{slot_count}.json"
    if path.exists():
        try:
            raw = json.loads(path.read_text())
            keys = ClIssuerKeyPair.from_secrets(
                int(raw["p_prime"]), int(raw["q_prime"]), int(raw["s"]),
                int(raw["x_z"]), [int(x) for x in raw["x_r"]])
            _validate(keys, profile, slot_count)
            return keys
        except (ValueError, KeyError, FcGuardError):
            path.unlink(missing_ok=True)
    keys = cl_keygen(slot_count, profile, rng)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "p_prime": str(keys.p_prime),
        "q_prime": str(keys.q_prime),
        "s": str(keys.public.s),
        "x_r": [str(x) for x in keys.x_r],
        "x_z": str(keys.x_z),
    }, sort_keys=True))
    return keys
