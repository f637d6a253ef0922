"""repro.quality — adversarial fuzzing and ablation knockouts.

The ground truth for "handles heterogeneous structured datasets" is a
pipeline that survives the tables the web actually serves: shuffled
metadata rows, merged-cell colspans, mixed encodings, ragged grids.
This package provides two harnesses:

* :mod:`repro.quality.fuzzer` (``repro fuzz``) — a property-based
  adversarial fuzzer driving seeded mutations of real corpus tables
  through parse + classify on the fused plane and the level-by-level
  reference, hunting crashes, label flips against the unmutated
  oracle, and plane divergence.  Failures are delta-debugged to minimal
  reproducers and banked as regression fixtures under
  ``tests/quality/fixtures/``.
* :mod:`repro.quality.ablate` (``repro ablate``) — a config-driven
  component-knockout runner that fits the pipeline with one design
  choice disabled at a time and emits a machine-readable impact
  report.

Both feed the CI quality trajectory: their report files are merged
into ``BENCH_trajectory.json`` by ``benchmarks/record_trajectory.py``
next to the perf numbers, and ``--check`` gates on them.  See
``docs/QUALITY.md``.
"""

from repro.quality.ablate import (
    AblationConfig,
    AblationReport,
    component_names,
    load_ablation_config,
    quick_config,
    run_ablation,
)
from repro.quality.bank import bank_case, fixture_path, load_fixtures, replay_fixture
from repro.quality.fuzzer import (
    FuzzCase,
    FuzzConfig,
    FuzzHarness,
    FuzzReport,
    run_fuzz,
)
from repro.quality.minimize import ddmin, minimize_table, minimize_text
from repro.quality.mutators import (
    Mutant,
    MutatorSpec,
    apply_mutator,
    get_mutators,
    mutator_names,
    register_mutator,
)

__all__ = [
    "AblationConfig",
    "AblationReport",
    "FuzzCase",
    "FuzzConfig",
    "FuzzHarness",
    "FuzzReport",
    "Mutant",
    "MutatorSpec",
    "apply_mutator",
    "bank_case",
    "component_names",
    "ddmin",
    "fixture_path",
    "get_mutators",
    "load_ablation_config",
    "load_fixtures",
    "minimize_table",
    "minimize_text",
    "mutator_names",
    "quick_config",
    "register_mutator",
    "replay_fixture",
    "run_ablation",
    "run_fuzz",
]
