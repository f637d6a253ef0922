"""CLI contract tests for ``repro fuzz`` and ``repro ablate``."""

import json

import pytest

from repro.cli import main


def test_fuzz_clean_campaign_exits_zero(tmp_path, capsys):
    report_path = tmp_path / "fuzz.json"
    code = main([
        "fuzz", "--budget", "8", "--seed", "3", "--report", str(report_path),
    ])
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["kind"] == "fuzz-report"
    assert len(payload["cases"]) == 8
    out = capsys.readouterr().out
    assert "8 cases" in out


def test_fuzz_list_mutators(capsys):
    assert main(["fuzz", "--list-mutators"]) == 0
    out = capsys.readouterr().out
    assert "transpose" in out
    assert "html-spans" in out


def test_fuzz_unknown_mutator_is_usage_error(capsys):
    assert main(["fuzz", "--budget", "2", "--mutators", "nope"]) == 2
    assert "unknown mutator" in capsys.readouterr().err


def test_fuzz_mutator_subset_runs_only_those(tmp_path):
    report_path = tmp_path / "fuzz.json"
    code = main([
        "fuzz", "--budget", "6", "--seed", "1",
        "--mutators", "transpose,csv-roundtrip",
        "--report", str(report_path),
    ])
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert {c["mutator"] for c in payload["cases"]} <= {
        "transpose", "csv-roundtrip",
    }


def test_fuzz_bank_flag_writes_fixtures_dir(tmp_path, capsys):
    bank = tmp_path / "bank"
    code = main([
        "fuzz", "--budget", "4", "--seed", "3", "--bank", str(bank),
    ])
    assert code == 0  # clean campaign: nothing to bank
    out = capsys.readouterr().out
    assert "banked 0 new fixture(s)" in out


def test_ablate_list_components(capsys):
    assert main(["ablate", "--list-components"]) == 0
    out = capsys.readouterr().out
    assert "contrastive" in out
    assert "cmd-detect" in out
    assert "vectorized" not in out


def test_ablate_config_and_quick_conflict(capsys):
    assert main(["ablate", "--config", "x.json", "--quick"]) == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_ablate_missing_config_file(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["ablate", "--config", str(missing)]) == 2


def test_ablate_with_config_writes_report(tmp_path, capsys):
    config_path = tmp_path / "ablation.json"
    config_path.write_text(json.dumps({
        "backends": ["hashed"],
        "components": ["depth"],
        "n_train": 24,
        "n_eval": 10,
        "epochs": 1,
    }))
    report_path = tmp_path / "impact.json"
    code = main([
        "ablate", "--config", str(config_path),
        "--report", str(report_path),
    ])
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["kind"] == "ablation-report"
    assert {r["component"] for r in payload["results"]} == {
        "baseline", "depth",
    }


@pytest.mark.parametrize("verb", ["fuzz", "ablate"])
def test_trace_out_writes_spans(tmp_path, verb, capsys):
    trace = tmp_path / "trace.jsonl"
    if verb == "fuzz":
        args = ["fuzz", "--budget", "3", "--seed", "1"]
    else:
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "backends": ["hashed"], "components": ["depth"],
            "n_train": 24, "n_eval": 8, "epochs": 1,
        }))
        args = ["ablate", "--config", str(config)]
    assert main(args + ["--trace-out", str(trace)]) == 0
    assert trace.exists()
    assert trace.read_text().strip()
