"""Benchmark harness comparing the plaintext baseline against the
privacy-preserving mode, phase by phase.

`run_bench` runs one scenario per mode through `scenario.run_scenario`, the
same run loop as `fcguard scenario run`: one order per user, none
self-reported, audit on. Each phase reports the median over orders of the
wall-clock compute time the loop records for it (`ScenarioResult.step_s`);
a step the loop makes once for the whole run (the fcguard transfer drain
and audit) counts as an equal share per order. To that it adds the
configured simulated network latency constant (a VISA-scale delay on the
fiat transfer and a testnet-scale propagation delay on the crypto transfer).
Keeping the latency a deterministic constant rather than a sleep makes the
cross-mode comparisons robust on noisy machines; absolute numbers remain
hardware-bound, so the report prints the reference figures next to the
measured medians for manual comparison and the assertions the harness
supports are relational only."""

from __future__ import annotations

import json
import platform as platform_mod
import statistics
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .ledger import DEFAULT_CHAIN_LATENCY_MS
from .scenario import PHASES, run_scenario

VISA_LATENCY_MS = 0.9

# Reference timings (ms) from the published prototype measurements, printed
# alongside the local medians for manual comparison.
REFERENCE_MS = {
    "registration": {"baseline": 5.11, "fcguard": 156.95},
    "identity_verification": {"baseline": 2.63, "fcguard": 464.87},
    "bank_interaction": {"baseline": 2.45, "fcguard": 363.27},
    "bank_transfer": {"baseline": 0.91, "fcguard": 0.89},
    "crypto_transfer": {"baseline": 170.01, "fcguard": 170.67},
    "audit": {"baseline": 2.65, "fcguard": 362.52},
}

_ROW_LABELS = {
    "registration": "Registration",
    "identity_verification": "Identity Verification",
    "bank_interaction": "Bank Interaction",
    "bank_transfer": "Bank Transfer",
    "crypto_transfer": "Crypto Transfer",
    "audit": "Audit",
}


@dataclass
class BenchmarkReport:
    profile: str
    iterations: int
    hardware: str
    phases: dict[str, dict[str, float]]  # phase -> mode -> median ms
    op_counts: dict[str, dict]  # mode -> protocol-phase message/byte counters
    reference_ms: dict[str, dict[str, float]]

    def to_json(self) -> str:
        return json.dumps({
            "hardware": self.hardware,
            "iterations": self.iterations,
            "op_counts": self.op_counts,
            "phases": self.phases,
            "profile": self.profile,
            "reference_ms": self.reference_ms,
        }, sort_keys=True, indent=2)

    def table(self) -> str:
        lines = [
            f"profile={self.profile}  iterations={self.iterations}  ({self.hardware})",
            f"{'phase':<24}{'baseline ms':>14}{'fcguard ms':>14}{'ref base':>12}{'ref fcg':>12}",
        ]
        for phase in PHASES:
            ref = self.reference_ms[phase]
            lines.append(
                f"{_ROW_LABELS[phase]:<24}"
                f"{self.phases[phase]['baseline']:>14.2f}"
                f"{self.phases[phase]['fcguard']:>14.2f}"
                f"{ref['baseline']:>12.2f}{ref['fcguard']:>12.2f}")
        lines.append("latency constants included: "
                     f"bank_transfer +{VISA_LATENCY_MS} ms, crypto_transfer +{DEFAULT_CHAIN_LATENCY_MS} ms")
        return "\n".join(lines)


def _bench_config(profile: str, seed: int, iterations: int, mode: str) -> dict:
    users = []
    for i in range(iterations):
        users.append({
            "name": f"Bench User {i}",
            "birthday": 19800101 + i,
            "ssn": 100_000_001 + i,
            "bank_account": 20_000_000_000_000_001 + i,
            "balance": 1_000_000,
            "self_report": False,  # unreported: the audit decrypts
        })
    return {
        "seed": seed,
        "profile": profile,
        "mode": mode,
        "delay_max_ms": 0,  # delays off so the crypto phase measures transfer cost
        "pool_size": 4,
        "rotation_epoch": 10,
        "users": users,
        "orders": [{"user": i, "crypto_amount": 500 + i} for i in range(iterations)],
        "audit": True,
    }


def run_bench(profile: str = "paper", iterations: int = 5, seed: int = 2024,
              key_cache_dir: str | Path | None = None) -> BenchmarkReport:
    if iterations < 5:
        raise ValueError("benchmark needs at least 5 iterations for a stable median")
    phases: dict[str, dict[str, float]] = {phase: {} for phase in PHASES}
    op_counts: dict[str, dict] = {}
    # both modes use identical issuer keys; share one generation per run
    with tempfile.TemporaryDirectory(prefix="bench-keys-") as temp_keys:
        for mode in ("baseline", "fcguard"):
            result = run_scenario(_bench_config(profile, seed, iterations, mode),
                                  key_cache_dir or temp_keys)
            for phase in PHASES:
                phases[phase][mode] = statistics.median(result.step_s[phase]) * 1000.0
            phases["bank_transfer"][mode] += VISA_LATENCY_MS
            phases["crypto_transfer"][mode] += result.ctx.chain.latency_ms
            op_counts[mode] = {phase: dict(c) for phase, c in sorted(result.ctx.net.phase_counters.items())}
    return BenchmarkReport(
        profile=profile, iterations=iterations,
        hardware=f"{platform_mod.platform()} / {platform_mod.processor() or 'unknown cpu'}",
        phases=phases, op_counts=op_counts, reference_ms=dict(REFERENCE_MS))
