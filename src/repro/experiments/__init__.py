"""Experiment harness: regenerate every table and figure in the paper.

One module per artifact (see DESIGN.md's experiment index):

* :mod:`centroid_tables` — Tables I-IV (centroid ranges and deltas);
* :mod:`accuracy_table` — Table V (ours vs Pytheas vs Table Transformer);
* :mod:`llm_table` — Table VI (GPT-3.5 / GPT-4 / RAG+GPT-4 on CKG);
* :mod:`figures` — Fig. 5 (annotated classified sample), Fig. 6 (HMD
  accuracy bars), Fig. 7 (VMD accuracy bars);
* :mod:`runtime` — Sec. IV-G training/inference timing.

All experiments are deterministic given their scale and seed;
:mod:`runner` caches fitted pipelines so one benchmark session fits each
(dataset, scale) pair once.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.experiments.accuracy_table import run_table5
    from repro.experiments.centroid_tables import (
        run_table1,
        run_table2,
        run_table3,
        run_table4,
    )
    from repro.experiments.figures import run_figure5, run_figure6, run_figure7
    from repro.experiments.llm_table import run_table6
    from repro.experiments.runner import PAPER, SMOKE
    from repro.experiments.runtime import run_runtime
    from repro.experiments.significance_table import run_significance

__all__ = [
    "PAPER",
    "SMOKE",
    "run_figure5",
    "run_figure6",
    "run_figure7",
    "run_runtime",
    "run_significance",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_table5",
    "run_table6",
]

# Resolved on first access: importing one submodule (``repro fit`` reads
# ``repro.experiments.runner``) loads no other experiment or baseline.
__getattr__ = lazy_exports(__name__, {
    "repro.experiments.accuracy_table": ("run_table5",),
    "repro.experiments.centroid_tables": (
        "run_table1", "run_table2", "run_table3", "run_table4",
    ),
    "repro.experiments.figures": ("run_figure5", "run_figure6", "run_figure7"),
    "repro.experiments.llm_table": ("run_table6",),
    "repro.experiments.runner": ("PAPER", "SMOKE"),
    "repro.experiments.runtime": ("run_runtime",),
    "repro.experiments.significance_table": ("run_significance",),
})
