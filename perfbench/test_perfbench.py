"""The benchmark's own test, at toy size: every metric BENCHMARK.json lists
is printed with its unit, a failed check makes the run incorrect, and the
command refuses to run without the sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from workloads import rotation_toy  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def small_rotation(monkeypatch):
    monkeypatch.setitem(run.SCENARIOS, "rotation-toy", lambda seed: rotation_toy(seed, users=3, orders=20))


@pytest.mark.parametrize("trace", [False, True])
def test_every_listed_metric_prints_with_its_unit(trace):
    result, lines = run.measure("rotation-toy", 5, 0, trace)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"], lines[-1]
    assert result["attempted"] == 2 * (3 + 20) and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[1:2] == [m["name"]] and f" {m['unit']} " in line for line in lines)
    detail = json.loads(lines[-1])["detail"]
    assert detail["environment"]["powmod_backend"] in ("gmpy2", "builtin pow")
    assert set(detail["digests"]) == {"events", "ledger"}
    if trace:
        metrics = result["metrics"]
        assert metrics["presentations.verify_bundle.per_order"]["value"] == 5
        assert metrics["crypto.elgamal.elgamal_decrypt.calls"]["value"] == detail["metrics"][
            "audit_ms_per_record"]["samples"]


def test_traced_call_counts_repeat():
    counts = []
    for _ in range(2):
        result, _ = run.measure("rotation-toy", 6, 0, True)
        counts.append({k: v["value"] for k, v in result["metrics"].items() if ".calls" in k})
    assert counts[0] == counts[1]


def test_failed_check_marks_the_run_incorrect(monkeypatch):
    def failing(seed):
        cfg = rotation_toy(seed, users=3, orders=20)
        cfg["assertions"].append("platform_sees_plaintext")  # a baseline-mode control: fails here
        return cfg

    monkeypatch.setitem(run.SCENARIOS, "rotation-toy", failing)
    result, lines = run.measure("rotation-toy", 7, 0, False)
    assert not result["correct"]
    assert any("platform_sees_plaintext" in f for f in json.loads(lines[-1])["detail"]["failures"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "rotation-toy",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
