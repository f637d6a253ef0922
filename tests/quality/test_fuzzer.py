"""Fuzz campaign tests: determinism, verdict detection, reporting."""

import dataclasses

import pytest

from repro.quality.fuzzer import (
    FuzzCase,
    FuzzConfig,
    FuzzHarness,
    FuzzReport,
    campaign_tables,
    run_case,
    run_cases,
    run_fuzz,
)
from repro.quality.mutators import Mutant, MutatorSpec
from repro.tables.jsonio import table_to_json
from repro.tables.labels import TableAnnotation
from repro.tables.model import Table


def test_campaign_is_deterministic(fuzz_config):
    """Same seed + budget => identical case sequence and verdicts."""
    a = run_fuzz(fuzz_config)
    b = run_fuzz(fuzz_config)
    assert a.to_dict() == b.to_dict()
    assert [c.mutator for c in a.cases] == [c.mutator for c in b.cases]
    assert [c.verdict for c in a.cases] == [c.verdict for c in b.cases]


def test_cases_are_sharding_invariant(fuzz_config, harness):
    """A case's outcome depends only on (seed, index), not on which
    other cases ran beside it — the property sharding relies on."""
    full = run_cases(fuzz_config, [harness], range(10))
    for index in (0, 4, 9):
        [alone] = run_cases(fuzz_config, [harness], [index])
        assert alone.to_dict() == full[index].to_dict()


def test_different_seeds_differ(fuzz_config):
    other = dataclasses.replace(fuzz_config, seed=fuzz_config.seed + 1)
    a = run_fuzz(fuzz_config)
    b = run_fuzz(other)
    assert [(c.mutator, c.table_name) for c in a.cases] != [
        (c.mutator, c.table_name) for c in b.cases
    ]


def test_clean_campaign_reports_ok(fuzz_config):
    report = run_fuzz(fuzz_config)
    assert report.ok
    counts = report.counts
    assert counts["crash"] == counts["divergence"] == counts["flip"] == 0
    assert sum(counts.values()) == fuzz_config.budget


class _Raises:
    def classify(self, table):
        raise RuntimeError("injected classify crash")


class _Disagrees:
    def classify(self, table):
        return TableAnnotation.from_depths(
            table.n_rows, table.n_cols, hmd_depth=0
        )


def _cloned(harness: FuzzHarness) -> FuzzHarness:
    return FuzzHarness(harness.pipeline, backend=harness.backend)


def test_examine_reports_injected_crash(harness):
    table = campaign_tables(FuzzConfig(seed=9, n_tables=4))[0]
    broken = _cloned(harness)
    broken.fused = _Raises()
    verdict, detail, annotation = broken.examine(table)
    assert verdict == "crash"
    assert "injected classify crash" in detail
    assert annotation is None


def test_examine_reports_injected_divergence(harness):
    table = campaign_tables(FuzzConfig(seed=9, n_tables=4))[0]
    reference = harness.oracle(table)
    # make the fused plane disagree unless the oracle already says depth 0
    broken = _cloned(harness)
    broken.fused = _Disagrees()
    verdict, detail, _ = broken.examine(table)
    fused_labels = _Disagrees().classify(table)
    if fused_labels == reference:
        assert verdict == "ok"
    else:
        assert verdict == "divergence"
        assert "fused" in detail


class _FlipHarness:
    """Labels depend on a sentinel cell, so a round trip that edits the
    grid flips them — exercises run_case's flip branch end to end."""

    backend = "fake"

    def oracle(self, table: Table) -> TableAnnotation:
        depth = 1 if table.rows and table.rows[0][0] == "X" else 0
        return TableAnnotation.from_depths(
            table.n_rows, table.n_cols, hmd_depth=min(depth, table.n_rows)
        )

    def examine(self, table):
        return "ok", "", self.oracle(table)


def _editing_roundtrip_spec() -> MutatorSpec:
    def fn(table: Table, rng) -> Mutant:
        rows = [list(r) for r in table.rows]
        rows[0][0] = "X"
        edited = Table(rows, name=table.name)
        return Mutant(text=table_to_json(edited), suffix=".json")

    return MutatorSpec(
        name="evil-roundtrip", kind="text", relation="equal",
        description="claims equality but edits the grid", fn=fn,
    )


def test_run_case_detects_label_flip(fuzz_config):
    tables = [Table([["a", "b"], ["c", "d"]], name="flip-me")]
    harness = _FlipHarness()
    oracle_cache = {}

    def oracles(idx):
        if idx not in oracle_cache:
            oracle_cache[idx] = {"fake": harness.oracle(tables[idx])}
        return oracle_cache[idx]

    case = run_case(
        0, fuzz_config, [harness], tables, [_editing_roundtrip_spec()], oracles
    )
    assert case.verdict == "flip"
    assert case.repro is not None
    assert case.repro["kind"] == "roundtrip"
    # the minimized original still flips when round-tripped
    assert case.repro["rows"]


def test_report_roundtrips_through_dict(fuzz_config):
    report = run_fuzz(dataclasses.replace(fuzz_config, budget=5))
    payload = report.to_dict()
    assert payload["kind"] == "fuzz-report"
    rebuilt = FuzzReport(
        config=FuzzConfig.from_dict(payload["config"]),
        cases=[FuzzCase.from_dict(c) for c in payload["cases"]],
    )
    assert rebuilt.to_dict() == payload


def test_config_validation():
    with pytest.raises(ValueError, match="budget"):
        FuzzConfig(budget=0)
    with pytest.raises(ValueError, match="backend"):
        FuzzConfig(backends=())


def test_sharded_run_matches_serial():
    """ShardedPool fan-out returns the identical report (run_task +
    worker-loaded pipelines preserve classify behavior)."""
    config = FuzzConfig(budget=64, seed=9, n_tables=16, n_train=30)
    serial = run_fuzz(config)
    sharded = run_fuzz(config, procs=2)
    assert sharded.to_dict() == serial.to_dict()
