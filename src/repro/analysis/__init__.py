"""Project-specific static analysis (``repro lint`` / ``repro analyze``).

The serve layer's two worst production bugs to date — a micro-batch
failure poisoning unrelated requests, and a submit/collector deadlock
from a lock held across a blocking ``queue.put`` — were both instances
of mechanically detectable patterns.  This package is the codebase's
own analyzer, in two layers: per-file AST rules (``repro lint``), and
whole-program passes (``repro analyze`` / ``lint --deep``) that build
one :class:`ProgramModel` — classes, functions, import tables, and a
deliberately under-approximate call graph — over the entire file set
and chase locks, pickled values, and mmap taint across function and
file boundaries.

Rule families
-------------

* **concurrency** — locks held across blocking calls, and
  ``# guarded-by: <lock>`` attribute annotations enforced lexically;
* **NumPy contracts** — ``np.array`` without an explicit ``dtype`` in
  hot paths, float ``==`` comparisons, per-term ``.vector()`` calls in
  loops where the batched API exists;
* **determinism** — un-seeded or data-dependent RNG construction in the
  reproduction-critical packages;
* **API hygiene** — mutable default arguments, broad ``except`` without
  a rationale, ``assert`` in non-test library code.

Whole-program passes
--------------------

* ``lock-order-cycle`` / ``lock-reacquire-via-call`` /
  ``lock-held-call-acquires`` — the lock-acquisition-order graph over
  every ``with self.<lock>`` and module-level lock, with cross-file
  identity through import tables;
* ``spawn-unsafe-arg`` — pickle safety for every value shipped across a
  ``Process``/``ProcessPoolExecutor`` spawn boundary;
* ``mmap-write`` — in-place mutation of arrays data-flowing from
  ``mmap_mode`` loads or ``# mmap-backed`` annotations.

Findings can be silenced three ways: fix the code, add an inline
``# repro-lint: disable=RULE`` suppression with a rationale, or
grandfather them in the committed baseline file (``lint-baseline.json``)
so only *new* findings fail CI.  See ``docs/LINTING.md``.
"""

from repro.analysis.baseline import Baseline
from repro.analysis.callgraph import ProgramModel
from repro.analysis.findings import Finding, Severity
from repro.analysis.passes import (
    ProgramPass,
    all_passes,
    get_pass,
    register_pass,
)
from repro.analysis.registry import Rule, all_rules, get_rule, register_rule
from repro.analysis.runner import (
    LintReport,
    analyze_paths,
    analyze_sources,
    lint_paths,
    lint_source,
)

# Importing the rule modules registers every built-in rule; importing
# the pass modules registers every whole-program pass.
from repro.analysis import rules as _rules  # noqa: F401  (import side effect)
from repro.analysis import locks as _locks  # noqa: F401  (import side effect)
from repro.analysis import mmaps as _mmaps  # noqa: F401  (import side effect)
from repro.analysis import spawn as _spawn  # noqa: F401  (import side effect)

__all__ = [
    "Baseline",
    "Finding",
    "LintReport",
    "ProgramModel",
    "ProgramPass",
    "Rule",
    "Severity",
    "all_passes",
    "all_rules",
    "analyze_paths",
    "analyze_sources",
    "get_pass",
    "get_rule",
    "lint_paths",
    "lint_source",
    "register_pass",
    "register_rule",
]
