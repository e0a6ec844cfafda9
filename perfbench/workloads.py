"""Scenario configs for the benchmark workloads, made from the workload seed.

The same seed gives the same config. Only the generated inputs reach the
program: the configs go through `fcguard.scenario.run_scenario` unchanged.
"""

from __future__ import annotations

import random

# The scenario seed seeds the program's own RNG streams: issuer keys, prime
# searches and proof randomness. It is pinned, and the workload seed draws
# the users and orders. At the paper profile the issuer keys are a function
# of it, and one key-cache fill costs about 250 s of 1536-bit Sophie Germain
# prime search. At the toy profile a seed-dependent scenario seed would make
# each run's prime searches (key generation, the signature exponent in every
# issuance) a different random length, which swamps the timings.
SCENARIO_SEED = 42
PAPER_KEY_LABELS = ("platform", "bank")

# Every check the run makes after the scenario returns; replay_failed_mfa
# is added only where the config holds replayed orders.
ASSERTIONS = ["conservation", "platform_blindness", "bank_blindness", "audit_branches",
              "address_hygiene", "failed_no_movement"]


def _users(gen: random.Random, count: int, self_report: bool) -> list[dict]:
    ssns = gen.sample(range(100_000_000, 1_000_000_000), count)
    accounts = gen.sample(range(10_000_000_000_000_000, 100_000_000_000_000_000), count)
    users = []
    for i in range(count):
        users.append({
            "name": f"Bench {i} " + "".join(gen.choice("abcdefghijklmnop") for _ in range(8)),
            # born 1950-2000, so every user passes an 18-year age check in 2025
            "birthday": gen.randrange(1950, 2001) * 10000 + gen.randrange(1, 13) * 100
            + gen.randrange(1, 29),
            "ssn": ssns[i],
            "bank_account": accounts[i],
            "balance": 10_000_000,
            "self_report": self_report,
        })
    return users


def rotation_toy(seed: int, users: int = 8, orders: int = 100) -> dict:
    """Toy profile with cold issuer keys, rotation epoch 5 and random release
    delays. A tenth of the orders are replays expected to end failed(mfa);
    a quarter of the rest carry an 18-year age check, and half of the rest
    are not self-reported, so the audit de-anonymises them. A batch takes
    about 5 s, so a run samples set-up and registration at several points in
    time; the host's speed drifts by tens of percent over seconds."""
    gen = random.Random(f"perfbench:rotation-toy:{seed}")
    replays = set(gen.sample(range(orders), orders // 10))
    honest = [i for i in range(orders) if i not in replays]
    aged = set(gen.sample(honest, len(honest) // 4))
    # fixed counts, so every seed asks the audit for the same number of decryptions
    unreported = set(gen.sample(honest, len(honest) // 2))
    order_list = []
    for i in range(orders):
        order = {"user": i % users, "crypto_amount": gen.randrange(100, 2_000), "address_count": 3}
        if i in replays:
            order["attack"] = "replay"
        else:
            order["self_report"] = i not in unreported
        if i in aged:
            order["age_check_years"] = 18
        order_list.append(order)
    return {
        "seed": SCENARIO_SEED,
        "profile": "toy",
        "delay_max_ms": 600_000,
        "rotation_epoch": 5,
        "pool_size": 4,
        "users": _users(gen, users, True),
        "orders": order_list,
        "audit": True,
        "assertions": ASSERTIONS + ["replay_failed_mfa"],
    }


def exchange_paper(seed: int) -> dict:
    """Paper profile, warm key cache: the headline path. Two users with two
    honest 3-address orders each, all self-reported and without predicates,
    so the audit decrypts nothing."""
    gen = random.Random(f"perfbench:exchange-paper:{seed}")
    users = _users(gen, 2, True)
    orders = [{"user": i % 2, "crypto_amount": gen.randrange(100, 2_000), "address_count": 3}
              for i in range(4)]
    return _paper(users, orders)


def age_audit_paper(seed: int) -> dict:
    """Paper profile, warm key cache: every order proves an 18-year age
    predicate and nobody self-reports, so the audit de-anonymises every
    record."""
    gen = random.Random(f"perfbench:age-audit-paper:{seed}")
    users = _users(gen, 1, False)
    orders = [{"user": 0, "crypto_amount": gen.randrange(100, 2_000), "address_count": 3,
               "age_check_years": 18}]
    return _paper(users, orders)


def _paper(users: list[dict], orders: list[dict]) -> dict:
    return {
        "seed": SCENARIO_SEED,
        "profile": "paper",
        "delay_max_ms": 600_000,
        "rotation_epoch": 10,
        "pool_size": 4,
        "users": users,
        "orders": orders,
        "audit": True,
        "assertions": list(ASSERTIONS),
    }


SCENARIOS = {
    "exchange-paper": exchange_paper,
    "rotation-toy": rotation_toy,
    "age-audit-paper": age_audit_paper,
}
