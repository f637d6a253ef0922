"""Bench: the shipped SGNS loop against the reference loop, same run.

``Word2Vec.fit`` builds a sentence's pairs with array offsets, subsamples
with one mask, reuses one buffer for the negatives block and scatters on
a flat view; the reference loop in ``tests/embeddings/sgns_reference.py``
does the same floating-point work with a Python pair loop, a list
subsample and 2-D ``np.add.at``.  Both fit perfbench's ``train`` corpus
(160 CKG tables, the configuration ``repro fit`` uses) and must leave
bitwise-equal matrices; the shipped loop must stay at least
``TARGET_SPEEDUP`` times faster, best-of-3 against best-of-3, so a change
that loses the vectorized loop fails here in the run that makes it.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.embeddings.sentences import sentences_from_tables
from repro.embeddings.word2vec import Word2Vec
from repro.experiments.runner import SMOKE, pipeline_config_for
from tests.embeddings.sgns_reference import ReferenceWord2Vec

#: Measured at 1.49-1.62x on a shared 2-CPU host; the floor leaves margin.
TARGET_SPEEDUP = 1.2
REPS = 3
TRAIN_SEED = 3


@pytest.fixture(scope="module")
def train_sentences():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import inputs

    train, _ = inputs.train_inputs(TRAIN_SEED)
    return list(sentences_from_tables([item.table for item in train]))


def _fit_seconds(cls, sentences) -> tuple[float, Word2Vec]:
    config = pipeline_config_for("ckg", SMOKE).word2vec
    start = time.perf_counter()
    model = cls(config).fit(sentences)
    return time.perf_counter() - start, model


def test_bench_fit_vs_reference_speedup(train_sentences):
    shipped_best = reference_best = float("inf")
    for rep in range(REPS):
        # Alternate which side goes first in each pair.
        sides = (Word2Vec, ReferenceWord2Vec) if rep % 2 else (ReferenceWord2Vec, Word2Vec)
        fits = {cls: _fit_seconds(cls, train_sentences) for cls in sides}
        (t_shipped, shipped), (t_reference, reference) = fits[Word2Vec], fits[ReferenceWord2Vec]
        np.testing.assert_array_equal(shipped._w_in, reference._w_in)
        np.testing.assert_array_equal(shipped._w_out, reference._w_out)
        shipped_best = min(shipped_best, t_shipped)
        reference_best = min(reference_best, t_reference)
    speedup = reference_best / shipped_best
    print(
        f"\nword2vec fit: reference {reference_best:.3f}s, shipped {shipped_best:.3f}s, "
        f"speedup {speedup:.2f}x"
    )
    assert speedup >= TARGET_SPEEDUP, f"fit speedup {speedup:.2f}x < {TARGET_SPEEDUP}x"
