"""Built-in rules and passes register where the registry is read.

``import repro.analysis`` imports no rule or pass module; the registry
imports them the first time it is read.  In a fresh interpreter, the
catalogues ``repro lint --list-rules`` and ``repro analyze
--list-passes`` print must still be the full built-in sets.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from tests.analysis.test_framework import EXPECTED_RULES

EXPECTED_PASSES = {
    "lock-order-cycle",
    "lock-reacquire-via-call",
    "lock-held-call-acquires",
    "spawn-unsafe-arg",
    "mmap-write",
}

_SRC = str(Path(repro.__file__).resolve().parents[1])


def _listed_ids(*argv: str) -> set[str]:
    out = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": _SRC},
        check=True,
    )
    # Catalogue lines are "<id>  [<family>] ..."; descriptions are indented.
    return {line.split()[0] for line in out.stdout.splitlines() if line and not line[0].isspace()}


@pytest.mark.parametrize(
    ("argv", "expected"),
    [
        (("lint", "--list-rules"), EXPECTED_RULES),
        (("analyze", "--list-passes"), EXPECTED_PASSES),
    ],
    ids=["rules", "passes"],
)
def test_fresh_cli_lists_every_builtin(argv, expected):
    assert _listed_ids(*argv) == expected


def test_import_alone_registers_nothing():
    probe = (
        "import sys, repro.analysis.passes, repro.analysis.registry as r\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.analysis.')))\n"
        "print(len(r.all_rules()), len(repro.analysis.passes.all_passes()))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": _SRC},
        check=True,
    )
    modules, counts = out.stdout.strip().splitlines()
    assert modules == "['repro.analysis.passes', 'repro.analysis.registry']"
    assert counts == f"{len(EXPECTED_RULES)} {len(EXPECTED_PASSES)}"
