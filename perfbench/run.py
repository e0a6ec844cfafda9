"""fcguard benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each invocation runs one workload in
this single process: one client, closed loop, no threads. The workload seed
becomes a scenario config (see workloads.py) that is run through
`fcguard.scenario.run_scenario` in batches until `--seconds` have passed,
at least twice, so every batch of one invocation must produce the same
event log and ledger. Timings are host wall-clock compute around the
protocol steps, with no simulated latency added.

With `--trace 0` the last line of stdout carries the end-to-end metrics named
in BENCHMARK.json. With `--trace 1` batches alternate untraced and traced;
traced batches wrap each layer's public functions (probe.py) and the last
line carries the per-layer metrics plus `trace.overhead`, and the spans are
written to .perfbench-cache/traces/. The lines before it give each metric
with its sample count, the workloads' extra metrics, the correctness
checks, the determinism digests and the environment.

The first run in a checkout fills the paper-profile issuer key cache under
.perfbench-cache/keys/ before anything is timed. Exit status: 0 when every
check passed, 1 when a check failed, 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from probe import LAYERS, STEPS, Probe, count_under, durations, layer_totals
from workloads import PAPER_KEY_LABELS, SCENARIO_SEED, SCENARIOS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench-cache"
KEY_DIR = CACHE / "keys"

# Metrics some workloads report beyond the end-to-end list in BENCHMARK.json,
# which holds only metrics that every listed workload reports.
EXTRA_UNITS = {"order_ms_p90": "ms", "audit_ms_per_record": "ms", "keygen_s": "s",
               "error_rate": "ratio"}

# keygen workload: key size and count. 1536-bit primes (the paper size) cost
# about 125 s per issuer key in pure Python, so the workload runs at half size.
KEYGEN_SG_BITS = 768
KEYGEN_KEYS = 3
ISSUER_SLOTS = 4  # attribute slots of every issuer key, as build_context makes them

WORKLOADS = sorted(SCENARIOS) + ["keygen"]

# Last name part of a per-layer metric split by modulus size or predicate use.
BUCKETS = {"m_le1024", "m2048", "m3072", "m4096", "pred", "nopred"}


def ensure_key_cache() -> float | None:
    """Generate the paper issuer keys once per checkout, one child process per
    key (their RNG streams are independent). Every child is waited for, and
    killed first if the fill is cut short. Returns the recorded fill time."""
    from fcguard.params import PAPER

    record = KEY_DIR / "fill.json"
    wanted = [KEY_DIR / f"cl-{PAPER.name}-{SCENARIO_SEED}-{label}-{ISSUER_SLOTS}.json"
              for label in PAPER_KEY_LABELS]
    if not all(path.exists() for path in wanted):
        KEY_DIR.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        children = []
        try:
            for label in PAPER_KEY_LABELS:
                children.append(subprocess.Popen(
                    [sys.executable, str(HERE / "fill_key.py"), str(KEY_DIR), str(SCENARIO_SEED),
                     label, str(ISSUER_SLOTS)], stdout=subprocess.DEVNULL))
            codes = [child.wait() for child in children]
        finally:
            for child in children:
                if child.poll() is None:
                    child.kill()
                child.wait()
        if any(codes):
            raise RuntimeError(f"paper key-cache fill failed with exit codes {codes}")
        record.write_text(json.dumps({"seconds": time.perf_counter() - start}))
    if record.exists():
        return json.loads(record.read_text())["seconds"]
    return None


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _median(values: list[float]) -> float:
    """0.0 for no samples, which only a failed run has."""
    return statistics.median(values) if values else 0.0


def _p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(len(ordered) * 0.9) - 1]


# ---------------------------------------------------------------------------
# scenario workloads


def scenario_batch(cfg: dict, traced: bool) -> dict:
    """Run one scenario and reduce it to timings, checks and digests. The
    checks run after the timed call returns."""
    from fcguard.scenario import ASSERTIONS, run_scenario

    cfg = copy.deepcopy(cfg)
    checks = cfg.pop("assertions")
    probe = Probe()
    with probe.installed(STEPS + LAYERS if traced else STEPS):
        start = time.perf_counter()
        result = run_scenario(cfg, KEY_DIR if cfg["profile"] == "paper" else None)
        wall = time.perf_counter() - start
    spans = probe.spans

    step = defaultdict(dict)
    for s in spans:
        if s[4] is not None:
            step[s[4]][s[0]] = step[s[4]].get(s[0], 0.0) + s[2] - s[1]
    ssn = {u.index: u.pii.ssn for u in result.ctx.users}
    failures = [f"user {i} registration failed" for i, ok in result.registration_ok.items() if not ok]
    honest, identity, bank, order = [], [], [], []
    for o in result.orders:
        if o.attack == "replay":
            if (o.state, o.failure_cause) != ("failed", "mfa"):
                failures.append(f"{o.order_id} replay ended {o.state}({o.failure_cause})")
            continue
        expected_audit = ("compliant", None) if o.self_report else ("deanonymized", ssn[o.user_index])
        if o.state != "complete":
            failures.append(f"{o.order_id} ended {o.state}({o.failure_cause})")
            continue
        if result.audit_outcomes.get(o.order_id) != expected_audit:
            failures.append(f"{o.order_id} audited as {result.audit_outcomes.get(o.order_id)}")
            continue
        times = step[o.order_id]
        honest.append(o.order_id)
        identity.append(times["parties.exchange_step1_identity"])
        bank.append(times["parties.exchange_step2_bank"])
        order.append(identity[-1] + bank[-1] + times["parties.exchange_step3_transfer"])
    setup = durations(spans, "scenario.build_context")[0]
    batch = {
        "traced": traced,
        "wall": wall,
        "setup": setup,
        "register": [a + b for a, b in zip(durations(spans, "parties.register_user"),
                                           durations(spans, "parties.bank_preissue"))],
        "identity": identity,
        "bank": bank,
        "order": order,
        "completed": len(honest),
        "audit_s": sum(durations(spans, "parties.audit")),
        "deanonymized": sum(1 for kind, _ in result.audit_outcomes.values() if kind == "deanonymized"),
        "attempted": len(result.registration_ok) + len(result.orders),
        "failures": failures,
        "checks": {name: ASSERTIONS[name](result) for name in checks},
        "digests": {"events": _sha256("\n".join(result.event_log_lines())),
                    "ledger": _sha256(result.ctx.chain.dump_jsonl())},
    }
    if traced:
        batch["spans"] = spans
        batch["honest"] = set(honest)
        batch["netsim_bytes"] = sum(ev.size for ev in result.ctx.net.events)
    return batch


def scenario_metrics(batches: list[dict]) -> dict:
    """End-to-end metrics as (value, sample count), from untraced batches."""
    plain = [b for b in batches if not b["traced"]]
    pool = {key: [x for b in plain for x in b[key]] for key in ("register", "identity", "bank", "order")}
    ms = 1000.0
    metrics = {
        "setup_s": (statistics.median(b["setup"] for b in plain), len(plain)),
        "register_ms_p50": (_median(pool["register"]) * ms, len(pool["register"])),
        "identity_ms_p50": (_median(pool["identity"]) * ms, len(pool["identity"])),
        "bank_ms_p50": (_median(pool["bank"]) * ms, len(pool["bank"])),
        "order_ms_p50": (_median(pool["order"]) * ms, len(pool["order"])),
        "orders_per_s": (sum(b["completed"] for b in plain) / sum(b["wall"] - b["setup"] for b in plain),
                         sum(b["completed"] for b in plain)),
    }
    # p90 needs ten samples beyond it
    if len(pool["order"]) >= 100:
        metrics["order_ms_p90"] = (_p90(pool["order"]) * ms, len(pool["order"]))
    records = sum(b["deanonymized"] for b in plain)
    if records:
        metrics["audit_ms_per_record"] = (sum(b["audit_s"] for b in plain) / records * ms, records)
    return metrics


def layer_metrics(names: list[str], batch: dict) -> dict:
    """Per-layer metrics of one traced batch, by BENCHMARK.json name:
    `<span>.<calls|s|self_s|bytes>[.<bucket>]` plus the named ratios."""
    spans = batch["spans"]
    totals = layer_totals(spans)
    out = {}
    for name in names:
        if name == "trace.overhead":
            continue
        if name == "crypto.primes.sg_tests_per_prime":
            primes = totals["crypto.primes.sophie_germain_prime"]["calls"]
            tests = count_under(spans, "crypto.primes.is_probable_prime", "crypto.primes.sophie_germain_prime")
            out[name] = tests / primes if primes else 0.0
        elif name == "presentations.verify_bundle.per_order":
            calls = sum(1 for s in spans if s[0] == "presentations.verify_bundle" and s[4] in batch["honest"])
            out[name] = calls / len(batch["honest"]) if batch["honest"] else 0.0
        elif name == "netsim.bytes":
            out[name] = batch["netsim_bytes"]
        else:
            parts = name.split(".")
            if parts[-1] in BUCKETS:
                key, stat = ".".join(parts[:-2]) + ":" + parts[-1], parts[-2]
            else:
                key, stat = ".".join(parts[:-1]), parts[-1]
            stat = "info" if stat == "bytes" else stat
            out[name] = totals[key][stat] if key in totals else 0
    return out


def run_scenarios(cfg: dict, seconds: float, trace: bool, layer_names: list[str]) -> dict:
    batches = []
    start = time.perf_counter()
    while len(batches) < 2 or time.perf_counter() - start < seconds:
        batches.append(scenario_batch(cfg, traced=trace and len(batches) % 2 == 1))
    failures = [f for b in batches for f in b["failures"]]
    for name in cfg["assertions"]:
        for b in batches:
            ok, detail = b["checks"][name]
            if not ok:
                failures.append(f"assertion {name}: {detail}")
    digests = [b["digests"] for b in batches]
    if any(d != digests[0] for d in digests):
        failures.append(f"batches of one config disagree: {digests}")
    run = {
        "attempted": sum(b["attempted"] for b in batches),
        "failed": sum(len(b["failures"]) for b in batches),
        "failures": failures,
        "digests": digests[0],
        "batches": len(batches),
        "checks": {name: batches[0]["checks"][name][1] for name in cfg["assertions"]},
        "e2e": scenario_metrics(batches),
    }
    if trace:
        traced = [b for b in batches if b["traced"]]
        per_batch = [layer_metrics(layer_names, b) for b in traced]
        counts = [{k: v for k, v in m.items() if k.endswith(".calls") or ".calls." in k} for m in per_batch]
        if any(c != counts[0] for c in counts):
            failures.append("call counts differ between traced batches")
        layers = {k: statistics.median(m[k] for m in per_batch) for k in per_batch[0]}
        layers["trace.overhead"] = (statistics.median(b["wall"] for b in traced)
                                    / statistics.median(b["wall"] for b in batches if not b["traced"]))
        run["layers"] = layers
        run["traced_batches"] = len(traced)
        run["spans"] = traced[0]["spans"]
    return run


# ---------------------------------------------------------------------------
# keygen workload


def keygen_key(profile, seed: int, index: int, traced: bool) -> tuple[float, list, list[str]]:
    from fcguard.crypto import cl
    from fcguard.crypto.primes import is_probable_prime

    probe = Probe()
    with probe.installed(LAYERS if traced else []):
        start = time.perf_counter()
        keys = cl.cl_keygen(ISSUER_SLOTS, profile, random.Random(f"perfbench:keygen:{seed}:{index}"))
        elapsed = time.perf_counter() - start
    pk, failures = keys.public, []
    if not all(is_probable_prime(v) for v in (keys.p_prime, keys.p, keys.q_prime, keys.q)):
        failures.append(f"key {index}: a modulus factor is not prime")
    if not (keys.p == 2 * keys.p_prime + 1 and keys.q == 2 * keys.q_prime + 1 and pk.n == keys.p * keys.q
            and keys.p_prime.bit_length() == keys.q_prime.bit_length() == KEYGEN_SG_BITS
            and pow(pk.s, keys.x_z, pk.n) == pk.z
            and all(pow(pk.s, x, pk.n) == r for x, r in zip(keys.x_r, pk.r_bases))):
        failures.append(f"key {index}: key relations do not hold")
    return elapsed, probe.spans, failures


def run_keygen(seed: int, trace: bool, layer_names: list[str]) -> dict:
    """Cold cl_keygen over a fixed list of key seeds drawn from the workload
    seed; the only workload where Sophie Germain prime search runs at scale."""
    from fcguard.params import PAPER, Profile

    profile = Profile(name=f"keygen-{KEYGEN_SG_BITS}", sg_prime_bits=KEYGEN_SG_BITS,
                      challenge_bits=PAPER.challenge_bits, stat_bits=PAPER.stat_bits,
                      elgamal_modulus_bits=PAPER.elgamal_modulus_bits,
                      paillier_modulus_bits=PAPER.paillier_modulus_bits)
    plain, traced, failures, per_batch = [], [], [], []
    for index in range(KEYGEN_KEYS):
        elapsed, _, bad = keygen_key(profile, seed, index, traced=False)
        plain.append(elapsed)
        failures += bad
        if trace:
            elapsed, spans, bad = keygen_key(profile, seed, index, traced=True)
            traced.append(elapsed)
            failures += bad
            per_batch.append(layer_metrics(layer_names, {"spans": spans, "honest": set(), "netsim_bytes": 0}))
    run = {
        "attempted": KEYGEN_KEYS * (2 if trace else 1),
        "failed": len(failures),
        "failures": failures,
        "batches": KEYGEN_KEYS,
        "e2e": {"keygen_s": (sum(plain), KEYGEN_KEYS)},
    }
    if trace:
        run["traced_batches"] = KEYGEN_KEYS
        run["layers"] = {k: sum(m[k] for m in per_batch) for k in per_batch[0]}
        run["layers"]["trace.overhead"] = sum(traced) / sum(plain)
    return run


# ---------------------------------------------------------------------------
# environment and output


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; a checkout
    without .git reports "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, fill_s: float | None) -> dict:
    from fcguard.crypto import primes

    return {
        "powmod_backend": "gmpy2" if primes.gmpy2 is not None else "builtin pow",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "seed": seed,
        "key_cache_fill_s": fill_s,
    }


def write_spans(path: Path, spans: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for i, (name, start, end, parent, order, info) in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                 "parent": parent, "order": order, "info": info},
                                separators=(",", ":")) + "\n")


def measure(workload: str, seed: int, seconds: float, trace: bool,
            fill_s: float | None = None) -> tuple[dict, list[str]]:
    """Run one workload and return the result object and the report lines
    printed before it. `fill_s` is the key-cache fill time to record."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(EXTRA_UNITS)
    layer_names = [m["name"] for m in spec["per_layer"]]
    if workload == "keygen":
        run = run_keygen(seed, trace, layer_names)
    else:
        run = run_scenarios(SCENARIOS[workload](seed), seconds, trace, layer_names)
    run["e2e"]["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
    run["e2e"]["error_rate"] = (run["failed"] / run["attempted"], run["attempted"])

    lines = []
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if trace:
        shown = {name: (run["layers"][name], run["traced_batches"]) for name in wanted}
        write_spans(CACHE / "traces" / f"{workload}-{seed}.jsonl", run.pop("spans", []))
    else:
        shown = run["e2e"]
    for name, (value, samples) in shown.items():
        lines.append(f"{workload:<16} {name:<48} {value:>14.6g} {units[name]:<6} n={samples}")
    detail = {
        "workload": workload,
        "environment": environment(seed, fill_s),
        "batches": run["batches"],
        "metrics": {name: {"value": v, "unit": units[name], "samples": n} for name, (v, n) in run["e2e"].items()},
        "checks": run.get("checks", {}),
        "failures": run["failures"],
        "digests": run.get("digests", {}),
    }
    lines.append(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": not run["failures"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": shown[name][0], "unit": units[name]} for name in wanted if name in shown},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds, so the key-fill children are reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    src = ROOT / "src"
    if not (src / "fcguard" / "__init__.py").is_file():
        print(f"perfbench: no fcguard sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # every workload fills the cache, so the first run of a checkout pays for it
    fill_s = ensure_key_cache()
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace), fill_s)
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
