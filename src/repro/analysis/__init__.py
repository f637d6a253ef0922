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

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.baseline import Baseline
    from repro.analysis.findings import Finding
    from repro.analysis.registry import all_rules, get_rule
    from repro.analysis.runner import (
        LintReport,
        analyze_paths,
        analyze_sources,
        lint_paths,
        lint_source,
    )

__all__ = [
    "Baseline",
    "Finding",
    "LintReport",
    "all_rules",
    "analyze_paths",
    "analyze_sources",
    "get_rule",
    "lint_paths",
    "lint_source",
]

# Resolved on first access.  The built-in rules and passes register
# themselves when the registry is first read (registry.all_rules,
# passes.all_passes), not when this package is imported.
__getattr__ = lazy_exports(__name__, {
    "repro.analysis.baseline": ("Baseline",),
    "repro.analysis.findings": ("Finding",),
    "repro.analysis.registry": ("all_rules", "get_rule"),
    "repro.analysis.runner": (
        "LintReport", "analyze_paths", "analyze_sources", "lint_paths", "lint_source",
    ),
})
