"""Command-line entry point.

Subcommands: `scenario run`, `bench`, `security`, `keygen`, `ledger dump`.
Exit codes: 0 on success, 1 when a scenario assertion or security property
fails, 2 on usage or parse errors.
"""

from __future__ import annotations

import json
import random
import sys
from importlib import resources
from pathlib import Path

import click

from .bench import run_bench
from .crypto.cl import cl_keygen
from .crypto.elgamal import elgamal_keygen
from .crypto.paillier import paillier_keygen
from .errors import FcGuardError, ScenarioError
from .params import get_profile
from .scenario import load_scenario, run_scenario
from .security import run_security_suite
from .serialize import dumps


@click.group()
@click.option("--seed", type=int, default=None, help="Override the scenario or suite seed.")
@click.option("--profile", type=click.Choice(["toy", "paper"]), default=None,
              help="Override the parameter profile.")
@click.option("--out", type=click.Path(file_okay=False), default=None, help="Output directory for artifacts.")
@click.option("--key-cache", type=click.Path(file_okay=False), default=None,
              help="Directory for cached issuer keys (speeds up repeated paper-profile runs).")
@click.pass_context
def main(ctx: click.Context, seed: int | None, profile: str | None, out: str | None,
         key_cache: str | None) -> None:
    """Privacy-preserving fiat-to-crypto exchange simulator and benchmarks."""
    ctx.ensure_object(dict)
    ctx.obj.update(seed=seed, profile=profile, out=out, key_cache=key_cache)


@main.group()
def scenario() -> None:
    """Scenario runner."""


def _resolve_scenario_path(name: str) -> Path:
    path = Path(name)
    if path.exists():
        return path
    bundled = resources.files("fcguard") / "scenarios" / name
    if bundled.is_file():
        return Path(str(bundled))
    bundled_json = resources.files("fcguard") / "scenarios" / f"{name}.json"
    if bundled_json.is_file():
        return Path(str(bundled_json))
    raise ScenarioError(f"scenario file {name!r} not found (also tried the bundled scenarios)")


@scenario.command("run")
@click.argument("path")
@click.pass_context
def scenario_run(ctx: click.Context, path: str) -> None:
    """Run a scenario file (or a bundled scenario by name) and evaluate its
    assertions; write the event log, ledger dump, and final-state report."""
    try:
        cfg = load_scenario(_resolve_scenario_path(path))
    except ScenarioError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    if ctx.obj.get("seed") is not None:
        cfg["seed"] = ctx.obj["seed"]
    if ctx.obj.get("profile") is not None:
        cfg["profile"] = ctx.obj["profile"]
    try:
        result = run_scenario(cfg, key_cache_dir=ctx.obj.get("key_cache"))
    except ScenarioError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)

    out_dir = ctx.obj.get("out")
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "events.jsonl").write_text("\n".join(result.event_log_lines()) + "\n")
        (out / "ledger.jsonl").write_text(result.ctx.chain.dump_jsonl())
        (out / "result.json").write_text(json.dumps({
            "assertions": {k: {"detail": d, "passed": ok}
                           for k, (ok, d) in result.assertion_results.items()},
            "audit": {k: {"outcome": kind, "ssn": ssn}
                      for k, (kind, ssn) in result.audit_outcomes.items()},
            "final_state": result.final_state(),
            "mode": result.cfg["mode"],
            "seed": result.cfg["seed"],
        }, sort_keys=True, indent=2))
    for order in result.orders:
        suffix = f"({order.failure_cause})" if order.failure_cause else ""
        click.echo(f"order {order.order_id}: {order.state}{suffix}")
    failed = False
    for name, (ok, detail) in result.assertion_results.items():
        click.echo(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        failed = failed or not ok
    sys.exit(1 if failed else 0)


@main.command()
@click.option("--iterations", type=click.IntRange(min=5), default=5, show_default=True)
@click.pass_context
def bench(ctx: click.Context, iterations: int) -> None:
    """Benchmark both modes across the exchange phases and print the
    comparison table with the reference figures."""
    profile = ctx.obj.get("profile") or "paper"
    seed = ctx.obj.get("seed") if ctx.obj.get("seed") is not None else 2024
    try:
        report = run_bench(profile=profile, iterations=iterations, seed=seed,
                           key_cache_dir=ctx.obj.get("key_cache"))
    except ScenarioError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    click.echo(report.table())
    out_dir = ctx.obj.get("out")
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "bench.json").write_text(report.to_json())
        click.echo(f"report written to {out / 'bench.json'}")


@main.command()
@click.option("--scenarios", type=click.IntRange(min=1), default=20, show_default=True,
              help="Randomized scenarios per blindness property.")
@click.option("--negative-control", is_flag=True,
              help="Run the platform-blindness scan against baseline mode; the "
                   "property is expected to FAIL, demonstrating the scan bites.")
@click.pass_context
def security(ctx: click.Context, scenarios: int, negative_control: bool) -> None:
    """Run the security property suite: one pass/fail line per property."""
    seed = ctx.obj.get("seed") if ctx.obj.get("seed") is not None else 9000
    results = run_security_suite(seed=seed, scenario_count=scenarios,
                                 negative_control=negative_control)
    failed = False
    for res in results:
        click.echo(res.line())
        failed = failed or not res.passed
    sys.exit(1 if failed else 0)


@main.command()
@click.option("--kind", type=click.Choice(["cl", "elgamal", "paillier"]), default="cl",
              show_default=True)
@click.option("--attrs", type=int, default=4, show_default=True,
              help="Attribute slots for CL keys (schema attributes + link slot).")
@click.pass_context
def keygen(ctx: click.Context, kind: str, attrs: int) -> None:
    """Generate a key pair under the selected profile and print it as JSON."""
    profile = get_profile(ctx.obj.get("profile") or "toy")
    seed = ctx.obj.get("seed") if ctx.obj.get("seed") is not None else 1
    rng = random.Random(f"{seed}:keygen:{kind}")
    try:
        if kind == "cl":
            keys = cl_keygen(attrs, profile, rng)
            payload = {"p_prime": keys.p_prime, "public": keys.public,
                       "q_prime": keys.q_prime, "x_r": list(keys.x_r), "x_z": keys.x_z}
        elif kind == "elgamal":
            keys = elgamal_keygen(profile, rng)
            payload = {"public": keys.public, "sk": keys.sk}
        else:
            keys = paillier_keygen(profile, rng)
            payload = {"lam": keys.lam, "mu": keys.mu, "public": keys.public}
    except FcGuardError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    text = dumps(payload).decode("ascii")
    out_dir = ctx.obj.get("out")
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{kind}-key.json").write_text(text)
        click.echo(f"key written to {out / f'{kind}-key.json'}")
    else:
        click.echo(text)


@main.group()
def ledger() -> None:
    """Ledger inspection."""


@ledger.command("dump")
@click.argument("source", type=click.Path(exists=False))
def ledger_dump(source: str) -> None:
    """Emit the full transaction log of a finished run as JSON lines.
    SOURCE is the ledger.jsonl written by `scenario run --out`, or the output
    directory containing it."""
    path = Path(source)
    if path.is_dir():
        path = path / "ledger.jsonl"
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, unreadable or not UTF-8
        click.echo(f"error: cannot read ledger dump at {path}: {exc}", err=True)
        sys.exit(2)
    sys.stdout.write(text)


if __name__ == "__main__":
    main()
