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

The package imports none of its modules itself: a classify process
never loads the fuzzer, the mutators or the ablation runner.
"""
