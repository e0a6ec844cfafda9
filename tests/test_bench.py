import importlib
import importlib.util
import json
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner

from fcguard.bench import PHASES, REFERENCE_MS, run_bench
from fcguard.cli import main
from fcguard.parties import OrderParams, exchange_step1_identity
from fcguard.scenario import build_context
from test_parties import _base_cfg, _onboard

PROBE = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"


@pytest.fixture(scope="module")
def toy_report():
    return run_bench(profile="toy", iterations=5, seed=321)


def test_report_covers_all_phases_both_modes(toy_report):
    assert set(toy_report.phases) == set(PHASES)
    for phase in PHASES:
        row = toy_report.phases[phase]
        assert set(row) == {"baseline", "fcguard"}
        assert row["baseline"] >= 0 and row["fcguard"] >= 0


def test_latency_constants_present(toy_report):
    # simulated network latency keeps the transfer phases at reference scale
    assert toy_report.phases["crypto_transfer"]["baseline"] >= 170
    assert toy_report.phases["crypto_transfer"]["fcguard"] >= 170
    assert toy_report.phases["bank_transfer"]["baseline"] >= 0.9


def test_crypto_phases_dominate_baseline_even_in_toy(toy_report):
    assert toy_report.phases["identity_verification"]["fcguard"] > \
        toy_report.phases["identity_verification"]["baseline"]
    assert toy_report.phases["bank_interaction"]["fcguard"] > \
        toy_report.phases["bank_interaction"]["baseline"]


def test_operation_counts_deterministic_across_runs():
    a = run_bench(profile="toy", iterations=5, seed=654)
    b = run_bench(profile="toy", iterations=5, seed=654)
    assert a.op_counts == b.op_counts  # wall-clock excluded, counts identical


def test_reference_figures_in_report_and_table(toy_report):
    assert toy_report.reference_ms == REFERENCE_MS
    table = toy_report.table()
    for figure in ("464.87", "363.27", "170.67", "156.95", "362.52"):
        assert figure in table
    payload = json.loads(toy_report.to_json())
    assert payload["reference_ms"]["identity_verification"]["fcguard"] == 464.87


def test_iteration_floor_enforced():
    with pytest.raises(ValueError):
        run_bench(profile="toy", iterations=3, seed=1)


def test_run_bench_leaves_no_key_directory(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    run_bench(profile="toy", iterations=5, seed=5)
    assert list(tmp_path.iterdir()) == []


def test_cli_bench_refuses_a_negative_seed():
    run = CliRunner().invoke(main, ["--profile", "toy", "--seed", "-1", "bench"])
    assert run.exit_code == 2
    assert "seed must be an integer of at least 0" in run.output


def test_cli_bench_refuses_fewer_than_five_iterations():
    run = CliRunner().invoke(main, ["--profile", "toy", "bench", "--iterations", "2"])
    assert run.exit_code == 2
    assert isinstance(run.exception, SystemExit)
    assert "Traceback" not in run.output and "--iterations" in run.output


@pytest.fixture(scope="module")
def probe():
    """perfbench's probe module, which wraps fcguard functions from outside by name."""
    spec = importlib.util.spec_from_file_location("perfbench_probe", PROBE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_probe_point_resolves(probe):
    for module_name, attr, *_ in probe.STEPS + probe.LAYERS:
        owner = importlib.import_module(module_name)
        cls_name, _, attr_name = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name)
        assert attr_name in vars(owner), f"{module_name}.{attr}"


def test_an_age_check_reaches_the_probe_as_a_predicates_keyword(probe):
    # the benchmark buckets build_bundle calls on a truthy `predicates` keyword
    ctx, _ = build_context(_base_cfg())
    alice = ctx.users[0]
    _onboard(ctx, alice)
    recorder = probe.Probe()
    with recorder.installed(probe.LAYERS):
        for years in (18, None):
            order, _ = exchange_step1_identity(ctx, alice, OrderParams("BTC", 100, ("a0",), age_threshold_years=years))
            assert order.state == "identity-verified"
    assert [s[5] for s in recorder.spans if s[0] == "presentations.build_bundle"] == ["pred", "nopred"]
