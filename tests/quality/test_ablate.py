"""Ablation knockout-registry and runner tests."""

import json

import pytest

from repro.quality.ablate import (
    AblationConfig,
    component_names,
    get_components,
    load_ablation_config,
    quick_config,
    run_ablation,
    write_report,
)


def test_registry_covers_the_design_choices():
    names = component_names()
    for expected in (
        "contrastive", "bootstrap-markup", "aggregation-sum",
        "depth", "cmd-detect",
    ):
        assert expected in names
    # Plane parity is the equivalence suite's job, not a knockout's.
    assert "vectorized" not in names and "fused" not in names
    for spec in get_components():
        assert spec.kind in ("fit", "classify")
        if spec.kind == "fit":
            assert spec.knock_fit is not None
        else:
            assert spec.knock_classify is not None


def test_unknown_component_rejected_at_config_time():
    with pytest.raises(ValueError, match="unknown components"):
        AblationConfig(components=("no-such-knockout",))


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "ablation.json"
    path.write_text(json.dumps({
        "dataset": "saus",
        "backends": ["hashed"],
        "components": ["depth", "cmd-detect"],
        "n_train": 30,
        "n_eval": 10,
    }))
    config = load_ablation_config(path)
    assert config.dataset == "saus"
    assert config.backends == ("hashed",)
    assert config.components == ("depth", "cmd-detect")
    assert config.seed == 1  # default survives


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n_trian": 30}))
    with pytest.raises(ValueError, match="n_trian"):
        load_ablation_config(path)


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="JSON object"):
        load_ablation_config(path)


@pytest.fixture(scope="module")
def small_report():
    config = AblationConfig(
        backends=("hashed",),
        components=("depth", "cmd-detect"),
        n_train=30,
        n_eval=16,
        epochs=1,
    )
    return run_ablation(config)


def test_report_shape_and_summary(small_report):
    payload = small_report.to_dict()
    assert payload["kind"] == "ablation-report"
    assert len(payload["results"]) == 3  # baseline + 2 knockouts
    summary = payload["summary"]
    assert summary["baseline_hmd1"] == small_report.baseline_hmd1
    assert small_report.baseline_hmd1 is not None
    baseline_rows = [
        r for r in payload["results"] if r["component"] == "baseline"
    ]
    assert len(baseline_rows) == 1
    assert baseline_rows[0]["delta_hmd1"] is None
    assert "baseline hmd1" in small_report.summary()


def test_write_report(tmp_path, small_report):
    out = write_report(small_report, tmp_path / "sub" / "report.json")
    payload = json.loads(out.read_text())
    assert payload == small_report.to_dict()


def test_quick_config_is_small():
    config = quick_config()
    assert config.backends == ("hashed",)
    assert config.n_train <= 60
    assert config.components is None  # every knockout runs in CI
