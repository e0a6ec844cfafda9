"""Spans around fcguard functions, recorded from outside the package.

A `Probe` replaces a function with a timing wrapper in every loaded
`fcguard` module that holds it under any name, so calls made through
`from .x import f` bindings are caught too, and restores the originals on
exit. Methods are replaced on their class. Each call becomes one span
`[name, start, end, parent, order_id, info]`, kept in memory; `parent` is
the index of the enclosing span or -1.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import defaultdict

# Order attribution: "clear" resets the current order at entry, "arg" takes
# it from the order passed as the third positional argument, "result" from
# the returned order. Spans take the current order when they end.
_CLEAR, _ARG, _RESULT = "clear", "arg", "result"


def _modulus_bucket(args, kwargs, result):
    bits = args[2].bit_length()
    if bits <= 1024:
        return "m_le1024"
    if bits <= 2048:
        return "m2048"
    if bits <= 3104:  # issuer moduli are 3073-3074 bits at the paper profile
        return "m3072"
    return "m4096"


def _build_kind(args, kwargs, result):
    return "pred" if kwargs.get("predicates") else "nopred"


def _verify_kind(args, kwargs, result):
    return "pred" if args[1].predicate_proofs else "nopred"


def _byte_count(args, kwargs, result):
    return len(result)


# (module, attribute, span name, info, order attribution)
# The protocol steps as the run loop calls them, plus context set-up and
# order creation (which names the order for the spans that follow); these
# give the end-to-end timings and stay installed in every run.
STEPS = [
    ("fcguard.scenario", "build_context", "scenario.build_context", None, _CLEAR),
    ("fcguard.parties", "register_user", "parties.register_user", None, _CLEAR),
    ("fcguard.parties", "bank_preissue", "parties.bank_preissue", None, _CLEAR),
    ("fcguard.parties", "open_order", "parties.open_order", None, _RESULT),
    ("fcguard.parties", "exchange_step1_identity", "parties.exchange_step1_identity", None, None),
    ("fcguard.parties", "exchange_step2_bank", "parties.exchange_step2_bank", None, _ARG),
    ("fcguard.parties", "exchange_step3_transfer", "parties.exchange_step3_transfer", None, _ARG),
    ("fcguard.parties", "drain_transfers", "parties.drain_transfers", None, _CLEAR),
    ("fcguard.parties", "audit", "parties.audit", None, _CLEAR),
]

# Layer boundaries, installed only in traced batches.
LAYERS = [
    ("fcguard.keycache", "issuer_keys", "keycache.issuer_keys", None, None),
    ("fcguard.crypto.primes", "powmod", "crypto.primes.powmod", _modulus_bucket, None),
    ("fcguard.crypto.primes", "is_probable_prime", "crypto.primes.is_probable_prime", None, None),
    ("fcguard.crypto.primes", "sophie_germain_prime", "crypto.primes.sophie_germain_prime", None, None),
    ("fcguard.crypto.primes", "random_prime", "crypto.primes.random_prime", None, None),
    ("fcguard.crypto.primes", "random_prime_in_range", "crypto.primes.random_prime_in_range", None, None),
    ("fcguard.crypto.cl", "cl_keygen", "crypto.cl.cl_keygen", None, None),
    ("fcguard.crypto.cl", "cl_sign", "crypto.cl.cl_sign", None, None),
    ("fcguard.crypto.cl", "sign_with_proof", "crypto.cl.sign_with_proof", None, None),
    ("fcguard.crypto.cl", "cl_verify", "crypto.cl.cl_verify", None, None),
    ("fcguard.crypto.cl", "verify_signature_proof", "crypto.cl.verify_signature_proof", None, None),
    ("fcguard.crypto.paillier", "paillier_keygen", "crypto.paillier.paillier_keygen", None, None),
    ("fcguard.crypto.paillier", "paillier_decrypt", "crypto.paillier.paillier_decrypt", None, None),
    ("fcguard.crypto.elgamal", "elgamal_keygen", "crypto.elgamal.elgamal_keygen", None, None),
    ("fcguard.crypto.elgamal", "elgamal_decrypt", "crypto.elgamal.elgamal_decrypt", None, None),
    ("fcguard.crypto.transcript", "Transcript.challenge", "crypto.transcript.Transcript.challenge", None, None),
    ("fcguard.credentials", "create_credential_request", "credentials.create_credential_request", None, None),
    ("fcguard.credentials", "issue_credential", "credentials.issue_credential", None, None),
    ("fcguard.credentials", "holder_finalize_credential", "credentials.holder_finalize_credential", None, None),
    ("fcguard.presentations", "ProofSession.build_bundle", "presentations.build_bundle", _build_kind, None),
    ("fcguard.presentations", "verify_bundle", "presentations.verify_bundle", _verify_kind, None),
    ("fcguard.presentations", "verify_equality", "presentations.verify_equality", None, None),
    ("fcguard.serialize", "dumps", "serialize.dumps", _byte_count, None),
    ("fcguard.netsim", "Network.send", "netsim.Network.send", None, None),
    ("fcguard.ledger", "Chain.submit", "ledger.Chain.submit", None, None),
    ("fcguard.ledger", "Registry.put", "ledger.Registry.put", None, None),
]


class Probe:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.order: str | None = None
        self._stack: list[int] = []

    def _wrap(self, fn, name, info, attribution):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = self

        def wrapper(*args, **kwargs):
            if attribution == _CLEAR:
                probe.order = None
            elif attribution == _ARG:
                probe.order = args[2].order_id
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attribution == _RESULT:
                probe.order = result.order_id
            span[4] = probe.order
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, entries):
        undo = []
        try:
            for module_name, attr, name, info, attribution in entries:
                owner = importlib.import_module(module_name)
                cls_name, _, attr_name = attr.rpartition(".")
                if cls_name:
                    owner = getattr(owner, cls_name)
                original = owner.__dict__[attr_name]
                wrapper = self._wrap(original, name, info, attribution)
                holders = [owner] if cls_name else [
                    mod for mod_name, mod in list(sys.modules.items())
                    if mod_name == "fcguard" or mod_name.startswith("fcguard.")]
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapper)
                            undo.append((holder, key, original))
            yield self
        finally:
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)


def durations(spans, name):
    return [s[2] - s[1] for s in spans if s[0] == name]


def layer_totals(spans) -> dict:
    """Per (name, info-bucket) totals: calls, seconds, self seconds, and the
    summed info values. Self time is a span's duration minus its children's;
    calls are single-threaded, so children never overlap."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    totals: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "info": 0})
    for i, s in enumerate(spans):
        dur = s[2] - s[1]
        keys = [s[0]]
        if isinstance(s[5], str):
            keys.append(f"{s[0]}:{s[5]}")
        for key in keys:
            t = totals[key]
            t["calls"] += 1
            t["s"] += dur
            t["self_s"] += dur - child[i]
            if isinstance(s[5], int):
                t["info"] += s[5]
    return totals


def count_under(spans, name, ancestor) -> int:
    """Number of `name` spans that run inside an `ancestor` span."""
    hits = 0
    for s in spans:
        if s[0] != name:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] != ancestor:
            p = spans[p][3]
        hits += p >= 0
    return hits
