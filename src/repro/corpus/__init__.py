"""Synthetic corpus substrate standing in for the paper's six datasets.

The paper evaluates on CORD-19, CKG, CIUS, SAUS, WDC, and PubTables-1M —
corpora we cannot redistribute or download offline.  Per DESIGN.md, this
package generates *generally structured tables* with the statistical
properties the method actually depends on: per-dataset HMD/VMD depth
distributions, domain vocabularies, hierarchical VMD with blank
continuation cells, numeric data styles, and noisy HTML markup (present
for only a fraction of tables, absent entirely for SAUS/CIUS).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.corpus.io import load_corpus, save_corpus
    from repro.corpus.registry import build_corpus, build_level_stratified, build_split
    from repro.corpus.stats import describe_corpus

__all__ = [
    "build_corpus",
    "build_level_stratified",
    "build_split",
    "describe_corpus",
    "load_corpus",
    "save_corpus",
]

# Resolved on first access.
__getattr__ = lazy_exports(__name__, {
    "repro.corpus.io": ("load_corpus", "save_corpus"),
    "repro.corpus.registry": ("build_corpus", "build_level_stratified", "build_split"),
    "repro.corpus.stats": ("describe_corpus",),
})
