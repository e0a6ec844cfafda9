import copy
import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from fcguard.cli import main
from fcguard.errors import ScenarioError
from fcguard.parties import Bank
from fcguard.scenario import (
    ORDER_FIELDS,
    PHASES,
    SCENARIO_FIELDS,
    USER_FIELDS,
    load_scenario,
    random_scenario,
    run_scenario,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src" / "fcguard" / "scenarios"


def _toy_cfg():
    return {
        "seed": 11,
        "profile": "toy",
        "mode": "fcguard",
        "users": [{"name": "Zoe Example", "birthday": 19930303, "ssn": 741_852_963,
                   "bank_account": 99_888_777_666_555_444, "balance": 4000}],
        "orders": [{"user": 0, "crypto_amount": 120, "address_count": 2}],
        "assertions": ["orders_complete", "conservation", "platform_blindness",
                       "bank_blindness", "audit_branches"],
    }


def test_run_scenario_passes_and_is_deterministic():
    a = run_scenario(_toy_cfg())
    b = run_scenario(_toy_cfg())
    assert a.passed and b.passed
    assert a.event_log_lines() == b.event_log_lines()  # byte-identical logs
    assert a.final_state() == b.final_state()


def test_seed_changes_event_log():
    cfg = _toy_cfg()
    a = run_scenario(cfg)
    cfg2 = _toy_cfg()
    cfg2["seed"] = 12
    b = run_scenario(cfg2)
    assert a.event_log_lines() != b.event_log_lines()


def test_malformed_scenario_reports_line(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "seed": 1,\n  "users": [\n')
    with pytest.raises(ScenarioError) as err:
        load_scenario(bad)
    assert "line" in str(err.value)


def test_scenario_validation_errors():
    with pytest.raises(ScenarioError):
        run_scenario({"seed": 1, "users": []})
    with pytest.raises(ScenarioError):
        run_scenario({"seed": 1, "users": [{"name": "x"}]})
    cfg = _toy_cfg()
    cfg["orders"][0]["user"] = 5
    with pytest.raises(ScenarioError):
        run_scenario(cfg)
    cfg = _toy_cfg()
    cfg["mode"] = "hybrid"
    with pytest.raises(ScenarioError):
        run_scenario(cfg)
    for field, bad in _malformed_cfgs():
        with pytest.raises(ScenarioError) as err:
            run_scenario(bad)
        assert field in str(err.value), (field, str(err.value))


def _malformed_cfgs():
    """(the field the refusal must name, a config that must be refused before
    any party is set up)."""
    def variant(field, edit):
        cfg = _toy_cfg()
        edit(cfg)
        return field, cfg

    second_user = {"name": "Yan Example", "birthday": 19880808, "ssn": 369_258_147,
                   "bank_account": 99_888_777_666_555_444, "balance": 10_000}
    return [
        variant("user index", lambda c: c["orders"][0].update(user="0")),
        variant("crypto_amount", lambda c: c["orders"][0].update(crypto_amount="5")),
        variant("profile", lambda c: c.update(profile="huge")),
        variant("pool_size", lambda c: c.update(pool_size=0)),
        variant("birthday", lambda c: c["users"][0].update(birthday=19901341)),
        # two users on one account, and a user on the platform's account
        variant("bank_account", lambda c: c["users"].append(second_user)),
        variant("bank_account", lambda c: c["users"][0].update(bank_account=999_000_001)),
        # a misspelt key, which would otherwise run an honest order
        variant("atack", lambda c: c["orders"][0].update(atack="replay")),
        variant("self_reprot", lambda c: c["users"][0].update(self_reprot=False)),
        variant("audti", lambda c: c.update(audti=False)),
        variant("attack", lambda c: c["orders"][0].update(attack="splice")),
        # the seed names key-cache files
        *(variant("seed", lambda c, seed=seed: c.update(seed=seed))
          for seed in ("../../../tmp/x", [1], -1, True, "11", 1.5)),
        variant("balance", lambda c: c["users"][0].update(balance="100")),
        variant("balance", lambda c: c["users"][0].update(balance=-5)),
        variant("address_count", lambda c: c["orders"][0].update(address_count="2")),
        variant("address_count", lambda c: c["orders"][0].update(address_count=0)),
        variant("address_count", lambda c: c["orders"][0].update(address_count=101)),
        variant("pool_size", lambda c: c.update(pool_size=1001)),
        variant("delay_max_ms", lambda c: c.update(delay_max_ms="5")),
        variant("delay_max_ms", lambda c: c.update(delay_max_ms=-1)),
        variant("rotation_epoch", lambda c: c.update(rotation_epoch=-1)),
        variant("rotation_epoch", lambda c: c.update(rotation_epoch="5")),
        variant("treasury_crypto", lambda c: c.update(treasury_crypto="x")),
        variant("treasury_crypto", lambda c: c.update(treasury_crypto=119)),  # the order declares 120
        variant("treasury_crypto", lambda c: c.update(treasury_crypto=10)),
        variant("audit", lambda c: c.update(audit="no")),
        variant("audit", lambda c: c.update(audit=0)),
        # a bool is an int to Python, but never a count, an index or a rate
        variant("user index", lambda c: c["orders"][0].update(user=False)),
        variant("rate", lambda c: c.update(rate=[True, 1])),
        # values that used to raise a bare exception, run anyway or be misread
        variant("bank_name", lambda c: c.update(bank_name=7)),
        variant("bank_account", lambda c: c["users"][0].update(bank_account=-1)),
        variant("bank_account", lambda c: c["users"][0].update(bank_account="12")),
        variant("bank_account", lambda c: c["users"][0].update(bank_account=2**252)),
        variant("age_check_years", lambda c: c["orders"][0].update(age_check_years="18")),
        variant("age_check_years", lambda c: c["orders"][0].update(age_check_years=-3)),
        variant("self_report", lambda c: c["users"][0].update(self_report="no")),
        variant("seed_ssa", lambda c: c["users"][0].update(seed_ssa="no")),
        variant("self_report", lambda c: c["orders"][0].update(self_report="no")),
        variant("asset", lambda c: c["orders"][0].update(asset=5)),
        variant("name", lambda c: c["users"][0].update(name=5)),
        variant("name", lambda c: c["users"][0].update(name="\ud800")),  # not UTF-8 encodable
        variant("current_date", lambda c: c.update(current_date="x")),
        variant("current_date", lambda c: c.update(current_date=20251399)),
        variant("assertions", lambda c: c.update(assertions="conservation")),
        variant("assertions", lambda c: c.update(assertions=["conservation", "no_such_check"])),
    ]


def test_cli_refuses_every_malformed_scenario(tmp_path):
    runner = CliRunner()
    path = tmp_path / "bad.json"
    for field, bad in _malformed_cfgs():
        path.write_text(json.dumps(bad))
        run = runner.invoke(main, ["scenario", "run", str(path)])
        assert run.exit_code == 2, (field, run.output)  # an uncaught exception exits 1
        assert field in run.output


def test_validation_fills_defaults_without_changing_the_input():
    cfg = _toy_cfg()
    before = copy.deepcopy(cfg)
    result = run_scenario(cfg)
    assert cfg == before
    assert result.cfg["treasury_crypto"] == 2 * 120 + 1000
    assert result.cfg["orders"][0]["self_report"] is True  # the user's default
    assert result.cfg["users"][0]["seed_ssa"] is True


def test_conservation_is_checked_against_the_declared_inputs(monkeypatch):
    open_account = Bank.open_account

    def generous(self, number, owner_ssn, balance, owner_party=None):
        open_account(self, number, owner_ssn, balance + 1, owner_party)

    monkeypatch.setattr(Bank, "open_account", generous)
    ok, detail = run_scenario(_toy_cfg()).assertion_results["conservation"]
    assert not ok
    assert detail.startswith("fiat 4000->4002,")  # one extra unit each for the user and the platform


_ANY_VALUE = st.one_of(st.integers(), st.booleans(), st.text(max_size=8), st.none(),
                       st.lists(st.integers(), max_size=3),
                       st.dictionaries(st.text(max_size=4), st.integers(), max_size=2))


@settings(derandomize=True, deadline=None, max_examples=3500)
@given(data=st.data())
def test_any_one_field_replaced_is_refused_or_runs(data):
    cfg = _toy_cfg()
    entry, spec = data.draw(st.sampled_from([(cfg, SCENARIO_FIELDS), (cfg["users"][0], USER_FIELDS),
                                             (cfg["orders"][0], ORDER_FIELDS)]))
    entry[data.draw(st.sampled_from(sorted(spec) + ["unknown"]))] = data.draw(_ANY_VALUE)
    try:
        run_scenario(cfg)
    except ScenarioError:
        pass


@pytest.mark.parametrize("seed", ["../../../tmp/x", [1]])
def test_seed_that_is_not_an_integer_writes_no_key_file(tmp_path, seed):
    cfg = _toy_cfg()
    cfg["seed"] = seed
    cache = tmp_path / "a" / "b" / "keys"
    with pytest.raises(ScenarioError, match="seed"):
        run_scenario(cfg, cache)
    assert not [path for path in tmp_path.rglob("*") if path.is_file()]


def test_bounds_that_are_allowed_run():
    cfg = _toy_cfg()
    cfg.update(treasury_crypto=120, rotation_epoch=0, delay_max_ms=0, audit=False, seed=0)
    cfg["users"][0]["balance"] = 120  # the order's fiat at the 1:1 rate
    cfg["assertions"] = ["orders_complete", "conservation"]
    result = run_scenario(cfg)
    assert result.passed
    assert result.audit_outcomes == {}
    assert result.ctx.chain.total_supply() == 120


@pytest.mark.parametrize("mode", ["fcguard", "baseline"])
def test_run_scenario_times_each_phase(mode):
    cfg = _toy_cfg()
    cfg["mode"] = mode
    cfg["users"][0]["self_report"] = False
    cfg["orders"].append({"user": 0, "crypto_amount": 80})
    cfg["assertions"] = []
    result = run_scenario(cfg)
    assert [o.state for o in result.orders] == ["complete", "complete"]
    step_s = result.step_s
    assert set(step_s) == set(PHASES)
    assert len(step_s["registration"]) == 1
    for phase in ("identity_verification", "bank_interaction", "bank_transfer",
                  "crypto_transfer", "audit"):
        assert len(step_s[phase]) == 2, phase
    assert all(s > 0 for samples in step_s.values() for s in samples)


def test_random_scenario_generator_is_deterministic():
    assert random_scenario(5) == random_scenario(5)
    assert random_scenario(5) != random_scenario(6)


def test_bundled_misreport_scenario():
    cfg = load_scenario(SCENARIO_DIR / "misreport.json")
    result = run_scenario(cfg)
    assert result.passed
    (kind, ssn), = result.audit_outcomes.values()
    assert kind == "deanonymized"
    assert ssn == cfg["users"][0]["ssn"]  # oracle: decryption vs seeded PII


def test_bundled_replay_scenario():
    cfg = load_scenario(SCENARIO_DIR / "replay_attack.json")
    result = run_scenario(cfg)
    assert result.passed  # the attack being rejected IS the pass condition
    (outcome,) = result.orders
    assert outcome.state == "failed" and outcome.failure_cause == "mfa"


def test_bundled_address_rotation_scenario():
    cfg = load_scenario(SCENARIO_DIR / "address_rotation.json")
    result = run_scenario(cfg)
    assert result.passed
    ctx = result.ctx
    # 20 orders with rotation epoch 5: multiple epochs, multiple pool addresses
    pool_senders = {tx.sender for tx in ctx.chain.all_txs() if tx.sender.startswith("pool:")}
    assert len(pool_senders) >= 2
    epochs = {sender.split(":")[1] for sender in pool_senders}
    assert len(epochs) >= 2


# SHA-256 of the artifacts `fcguard --out DIR scenario run NAME` writes for the
# bundled toy scenarios. A change to any random draw, key, proof value or wire
# byte moves them; update them only for a deliberate change of behaviour.
GOLDEN_DIGESTS = {
    "address_rotation": ("3e28ce463705657d23284f0e5f735fbb1e8ca37fbd481d31f80e1cb771241b94",
                         "7ac46e98ef01add78da6cf2e6aeb71ab760234f81d572f05d075111cc9747236"),
    "misreport": ("ea38a46687ec74487609d20b97ffc47246ca123dd0d9530e1a76780d5b84483d",
                  "38bf6ed3f04e54b2461c5bd238a764a25dcc352f3df91f195c697bec5147be4e"),
    "replay_attack": ("4a53adc13c6f4e80463627d142dbb02d452d4f456582dbfa50f4a81f49d39664",
                      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_bundled_toy_scenario_golden_digests(tmp_path, name):
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["--out", str(out), "scenario", "run", name])
    assert result.exit_code == 0, result.output
    digests = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                    for f in ("events.jsonl", "ledger.jsonl"))
    assert digests == GOLDEN_DIGESTS[name]


def test_cli_scenario_run_writes_artifacts(tmp_path):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(_toy_cfg()))
    runner = CliRunner()
    result = runner.invoke(main, ["--out", str(tmp_path / "out"), "scenario", "run",
                                  str(cfg_path)])
    assert result.exit_code == 0, result.output
    assert "PASS" in result.output
    out = tmp_path / "out"
    assert (out / "events.jsonl").exists()
    assert (out / "ledger.jsonl").exists()
    report = json.loads((out / "result.json").read_text())
    assert report["mode"] == "fcguard"
    assert all(entry["passed"] for entry in report["assertions"].values())


def test_cli_exit_codes(tmp_path):
    runner = CliRunner()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert runner.invoke(main, ["scenario", "run", str(bad)]).exit_code == 2
    assert runner.invoke(main, ["scenario", "run", str(tmp_path / "missing.json")]).exit_code == 2
    assert runner.invoke(main, ["definitely-not-a-command"]).exit_code == 2
    # a scenario with a failing assertion exits 1
    cfg = _toy_cfg()
    cfg["assertions"] = ["platform_sees_plaintext"]  # cannot hold in fcguard mode
    path = tmp_path / "failing.json"
    path.write_text(json.dumps(cfg))
    run = runner.invoke(main, ["scenario", "run", str(path)])
    assert run.exit_code == 1
    assert "FAIL" in run.output
    # a malformed scenario exits 2, with no traceback
    path.write_text(json.dumps(_malformed_cfgs()[0][1]))
    run = runner.invoke(main, ["scenario", "run", str(path)])
    assert run.exit_code == 2
    assert "no valid user index" in run.output


def test_cli_runs_bundled_scenario_by_name(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["--out", str(tmp_path), "scenario", "run", "misreport"])
    assert result.exit_code == 0, result.output


def test_cli_ledger_dump(tmp_path):
    runner = CliRunner()
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(_toy_cfg()))
    out = tmp_path / "out"
    assert runner.invoke(main, ["--out", str(out), "scenario", "run", str(cfg_path)]).exit_code == 0
    dump = runner.invoke(main, ["ledger", "dump", str(out)])
    assert dump.exit_code == 0
    lines = [json.loads(line) for line in dump.output.strip().splitlines()]
    assert lines and all({"amount", "from", "to", "tx_id"} <= set(line) for line in lines)
    non_utf8 = tmp_path / "non-utf8.jsonl"
    non_utf8.write_bytes(b"\xff\xfe\x00")
    (tmp_path / "nested" / "ledger.jsonl").mkdir(parents=True)
    for source in (tmp_path / "nowhere", non_utf8, tmp_path / "nested"):
        unreadable = runner.invoke(main, ["ledger", "dump", str(source)])
        assert unreadable.exit_code == 2 and isinstance(unreadable.exception, SystemExit)
        assert "error:" in unreadable.output


def test_cli_keygen(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["--profile", "toy", "--seed", "3", "keygen",
                                  "--kind", "elgamal"])
    assert result.exit_code == 0
    assert '"public"' in result.output
    again = runner.invoke(main, ["--profile", "toy", "--seed", "3", "keygen",
                                 "--kind", "elgamal"])
    assert again.output == result.output  # deterministic under seed
    to_file = runner.invoke(main, ["--profile", "toy", "--out", str(tmp_path), "keygen",
                                   "--kind", "cl", "--attrs", "4"])
    assert to_file.exit_code == 0
    assert (tmp_path / "cl-key.json").exists()


def test_event_log_schema():
    result = run_scenario(_toy_cfg())
    for line in result.event_log_lines():
        event = json.loads(line)
        assert {"seq", "time_ms", "sender", "receiver", "type", "bytes",
                "digest", "phase"} == set(event)
        assert isinstance(event["bytes"], int) and event["bytes"] > 0
        assert len(event["digest"]) == 64


def test_cli_replay_scenario_by_name_exits_zero(tmp_path):
    # the attack being rejected is the passing outcome
    runner = CliRunner()
    result = runner.invoke(main, ["scenario", "run", "replay_attack"])
    assert result.exit_code == 0, result.output
    assert "failed(mfa)" in result.output


@pytest.mark.parametrize("case", ["directory", "non-utf8", "out-file", "key-cache-file"])
def test_cli_unreadable_input_exits_2_without_a_traceback(tmp_path, case):
    non_utf8 = tmp_path / "latin1.json"
    non_utf8.write_bytes(b'{"seed": "\xe9"}')
    a_file = tmp_path / "a-file"
    a_file.write_text("")
    args = {"directory": ["scenario", "run", str(tmp_path)],
            "non-utf8": ["scenario", "run", str(non_utf8)],
            "out-file": ["--out", str(a_file), "scenario", "run", "misreport"],
            "key-cache-file": ["--key-cache", str(a_file), "scenario", "run", "misreport"]}[case]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # a refusal, not an uncaught error
