"""repro — scalable tabular hierarchical metadata classification.

Reproduction of "Scalable Tabular Hierarchical Metadata Classification
in Heterogeneous Structured Large-scale Datasets using Contrastive
Learning" (ICDE 2025): an unsupervised pipeline that labels every row
and column of a generally structured table as hierarchical horizontal
metadata (HMD, levels 1-5), vertical metadata (VMD, levels 1-3), central
metadata (CMD), or data.

Quickstart::

    from repro import MetadataPipeline, PipelineConfig
    from repro.corpus import build_split

    train, test = build_split("ckg", n_train=200, n_eval=50)
    pipeline = MetadataPipeline(PipelineConfig()).fit(train)
    annotation = pipeline.classify(test[0].table)
    print(annotation.hmd_depth, annotation.vmd_depth)

Packages:

* :mod:`repro.core` — the paper's contribution (centroids, angles,
  contrastive refinement, Algorithm 1, the pipeline);
* :mod:`repro.tables` — the generally-structured-table substrate;
* :mod:`repro.embeddings` — Word2Vec / contextual / hashed embeddings;
* :mod:`repro.corpus` — synthetic stand-ins for the six paper datasets;
* :mod:`repro.baselines` — Pytheas, RF header detection, Table
  Transformer, and simulated LLM/LLM+RAG comparators;
* :mod:`repro.experiments` — regeneration of every paper table/figure;
* :mod:`repro.serve` — the long-lived serving layer: warm model
  registry, LRU result cache, Prometheus metrics, HTTP front-end
  (classifying on the request thread or on worker processes), and the
  offline bulk path.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.classifier import ClassificationResult, MetadataClassifier
    from repro.core.pipeline import HybridClassifier, MetadataPipeline, PipelineConfig
    from repro.tables.labels import LevelKind, LevelLabel, TableAnnotation
    from repro.tables.model import AnnotatedTable, Table

__version__ = "1.0.0"

__all__ = [
    "AnnotatedTable",
    "ClassificationResult",
    "HybridClassifier",
    "LevelKind",
    "LevelLabel",
    "MetadataClassifier",
    "MetadataPipeline",
    "PipelineConfig",
    "Table",
    "TableAnnotation",
    "__version__",
]

# Resolved on first access, so ``import repro.<anything>`` stays cheap.
__getattr__ = lazy_exports(__name__, {
    "repro.core.classifier": ("ClassificationResult", "MetadataClassifier"),
    "repro.core.pipeline": ("HybridClassifier", "MetadataPipeline", "PipelineConfig"),
    "repro.tables.labels": ("LevelKind", "LevelLabel", "TableAnnotation"),
    "repro.tables.model": ("AnnotatedTable", "Table"),
})
