"""Fixtures shared by the ``repro.core`` tests."""

from __future__ import annotations

import pytest

from repro.core.pipeline import MetadataPipeline, PipelineConfig
from repro.embeddings.contextual import ContextualConfig
from repro.embeddings.ppmi import PpmiConfig
from repro.embeddings.word2vec import Word2VecConfig

BACKENDS = ("hashed", "word2vec", "ppmi", "contextual")


@pytest.fixture(scope="session")
def backend_pipelines(ckg_train) -> dict[str, MetadataPipeline]:
    """One small fitted pipeline per embedding backend."""
    train = list(ckg_train[:16])
    configs = {
        "hashed": PipelineConfig(
            embedding="hashed", hashed_dim=32, n_pairs=50,
            use_contrastive=False,
        ),
        "word2vec": PipelineConfig(
            embedding="word2vec",
            word2vec=Word2VecConfig(dim=16, epochs=1, seed=0),
            n_pairs=50,
            use_contrastive=False,
        ),
        "ppmi": PipelineConfig(
            embedding="ppmi",
            ppmi=PpmiConfig(dim=16, min_count=1, seed=0),
            n_pairs=50,
            use_contrastive=False,
        ),
        "contextual": PipelineConfig(
            embedding="contextual",
            contextual=ContextualConfig(dim=16, attention_dim=8, epochs=1),
            n_pairs=50,
            use_contrastive=False,
        ),
    }
    return {
        name: MetadataPipeline(config).fit(train)
        for name, config in configs.items()
    }
