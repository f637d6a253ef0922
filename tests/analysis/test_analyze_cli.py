"""CLI contract for ``repro analyze`` (exit codes, staleness, verdict).

The exit-code regression tests pin the PR 8 bugfix: the text summary
line always carries the verdict (``-- ok`` / ``-- FAIL``), so the
output can never look clean while the process exits 1.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main

DEADLOCK = '''
import threading

class Batcher:
    def __init__(self):
        self._gate = threading.Lock()
        self._queue_lock = threading.Lock()

    def submit(self, item):
        with self._gate:
            with self._queue_lock:
                return item

    def collect(self):
        with self._queue_lock:
            self._reopen()

    def _reopen(self):
        with self._gate:
            return None
'''

CLEAN = '''
def double(x):
    return 2 * x
'''


@pytest.fixture()
def tree(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    package = tmp_path / "src" / "app"
    package.mkdir(parents=True)
    return package


def _write(package: Path, name: str, source: str) -> Path:
    path = package / name
    path.write_text(source)
    return path


def test_analyze_clean_tree_exits_zero(tree, capsys):
    _write(tree, "math.py", CLEAN)
    assert main(["analyze", "src", "--no-baseline"]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out
    assert out.rstrip().endswith("-- ok")


def test_analyze_deadlock_exits_one_with_fail_verdict(tree, capsys):
    _write(tree, "batching.py", DEADLOCK)
    assert main(["analyze", "src", "--no-baseline"]) == 1
    out = capsys.readouterr().out
    assert "lock-order-cycle" in out
    assert "-- FAIL" in out
    assert not out.rstrip().endswith("-- ok")


def test_list_passes_exits_zero(capsys):
    assert main(["analyze", "--list-passes"]) == 0
    out = capsys.readouterr().out
    for pass_id in (
        "lock-order-cycle",
        "lock-reacquire-via-call",
        "spawn-unsafe-arg",
        "mmap-write",
    ):
        assert pass_id in out


def test_unknown_pass_id_exits_two(tree, capsys):
    _write(tree, "math.py", CLEAN)
    assert main(["analyze", "src", "--select", "no-such-pass"]) == 2


def test_baselined_finding_exits_zero_then_stale_check_fails(
    tree, capsys
):
    # Grandfather the deadlock, then fix it: without --check-stale the
    # run stays green, with it the leftover entry fails the run.
    path = _write(tree, "batching.py", DEADLOCK)
    baseline = "analyze-baseline.json"
    assert main(
        ["analyze", "src", "--baseline", baseline, "--write-baseline"]
    ) == 0
    assert main(["analyze", "src", "--baseline", baseline]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out
    assert "2 baselined" in out  # the cycle + its held-call warning

    fixed = DEADLOCK.replace(
        "        with self._queue_lock:\n            self._reopen()",
        "        self._reopen()",
    )
    assert fixed != DEADLOCK
    path.write_text(fixed)
    assert main(["analyze", "src", "--baseline", baseline]) == 0
    assert (
        main(["analyze", "src", "--baseline", baseline, "--check-stale"])
        == 1
    )
    err = capsys.readouterr().err
    assert "stale baseline entry" in err


def test_partial_baseline_exits_one_and_summary_says_fail(tree, capsys):
    # The PR 8 exit-contract regression: one finding baselined, one
    # new — exit 1 and the summary line must say FAIL, not look clean.
    source = DEADLOCK + '''

from concurrent.futures import ProcessPoolExecutor

def launch():
    return ProcessPoolExecutor(initializer=lambda: None)
'''
    _write(tree, "batching.py", source)
    baseline = "analyze-baseline.json"
    assert main(
        [
            "analyze", "src", "--baseline", baseline,
            "--select", "lock-order-cycle", "--write-baseline",
        ]
    ) == 0
    capsys.readouterr()
    assert main(["analyze", "src", "--baseline", baseline]) == 1
    out = capsys.readouterr().out
    assert "2 finding(s), 1 baselined" in out
    assert "spawn-unsafe-arg" in out
    assert "-- FAIL (1 gating" in out


def test_deep_lint_runs_program_passes(tree, capsys):
    # No lexically nested withs — the per-file rules see nothing; only
    # the whole-program pass (via held-call footprints) finds the cycle.
    source = '''
import threading

class Batcher:
    def __init__(self):
        self._gate = threading.Lock()
        self._queue_lock = threading.Lock()

    def submit(self):
        with self._gate:
            self._enqueue()

    def _enqueue(self):
        with self._queue_lock:
            return None

    def collect(self):
        with self._queue_lock:
            self._reopen()

    def _reopen(self):
        with self._gate:
            return None
'''
    _write(tree, "batching.py", source)
    assert main(["lint", "src", "--no-baseline"]) == 0
    assert main(["lint", "src", "--no-baseline", "--deep"]) == 1
    out = capsys.readouterr().out
    assert "lock-order-cycle" in out
