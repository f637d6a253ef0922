"""The tree must pass its own linter and analyzer, with no baseline.

This is the PR's acceptance gate in test form: ``repro lint src`` and
``repro analyze src`` exit 0 from a checkout, the committed baseline is
empty (the last grandfathered debt — library asserts — was converted to
typed :class:`repro.invariants.InvariantError` raises), and it stays
empty: new findings must be fixed or suppressed with a rationale, not
grandfathered.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import Baseline, analyze_paths, lint_paths
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE = REPO_ROOT / "lint-baseline.json"


@pytest.fixture(autouse=True)
def _from_repo_root(monkeypatch):
    # Baseline fingerprints key on repo-relative paths ("src/repro/..."),
    # so the linter must run from the checkout root, as CI does.
    monkeypatch.chdir(REPO_ROOT)


def test_src_is_clean_modulo_baseline():
    baseline = Baseline.load(BASELINE)
    report = lint_paths(["src"], baseline=baseline)
    assert report.errors == []
    assert report.findings == [], "\n".join(
        f.render() for f in report.findings
    )
    assert report.n_files > 0


def test_baseline_has_no_stale_entries():
    baseline = Baseline.load(BASELINE)
    report = lint_paths(["src"], baseline=baseline)
    assert len(report.baselined) == len(baseline), (
        "baseline entries no longer match any finding; regenerate with "
        "'repro lint src --write-baseline' so the grandfathered count "
        "shrinks as sites are fixed"
    )
    assert baseline.stale_entries(report.findings + report.baselined) == []


def test_cli_exits_zero_from_checkout(capsys):
    assert main(["lint", "src"]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out
    assert out.rstrip().endswith("-- ok")


def test_analyze_cli_exits_zero_from_checkout(capsys):
    # The whole-program passes (lock order, spawn safety, mmap writes)
    # must hold over the real tree with no baseline —
    # by-design findings carry inline suppressions with rationales.
    assert main(["analyze", "src", "--no-baseline"]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_deep_lint_is_clean_from_checkout():
    baseline = Baseline.load(BASELINE)
    report = analyze_paths(["src"], baseline=baseline, with_rules=True)
    assert report.errors == []
    assert report.findings == [], "\n".join(
        f.render() for f in report.findings
    )


def test_committed_baseline_is_empty():
    # PR 8 paid down the last grandfathered debt (library asserts →
    # repro.invariants.not_none).  The baseline stays empty: fix or
    # suppress-with-rationale, don't grandfather.
    baseline = Baseline.load(BASELINE)
    assert len(baseline) == 0
