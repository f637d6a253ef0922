"""Shared fixtures.

The expensive objects (trained pipelines, generated corpora) are session
scoped; tests that mutate state build their own instances.  Pipeline
fixtures default to the hashed embedding backend so the suite stays
fast — Word2Vec/contextual training gets dedicated (small) tests.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import MetadataPipeline, PipelineConfig
from repro.corpus.generator import GeneratorConfig, GSTGenerator
from repro.corpus.registry import build_split
from repro.corpus.vocabularies import get_domain
from repro.serve.bulk import result_record, table_from_path
from repro.tables.labels import TableAnnotation
from repro.tables.model import Table


def sequential_records(pipeline: MetadataPipeline, paths) -> list[dict]:
    """The bulk-path oracle: parse each file, then classify it alone."""
    records = []
    for path in paths:
        table = table_from_path(path)
        records.append(
            result_record(table, pipeline.classify(table), source=str(path))
        )
    return records


@pytest.fixture
def simple_table() -> Table:
    """A small relational table: 1 HMD row, 1 VMD-ish first column."""
    return Table(
        [
            ["State", "City", "Student enrollment", "Total civilians"],
            ["New York", "Ithaca", "19,639", "47"],
            ["New York", "Albany", "17,434", "37"],
            ["Indiana", "Muncie", "20,030", "25"],
        ],
        name="simple",
    )


@pytest.fixture
def hierarchical_table() -> Table:
    """Fig. 5-style table: 2 HMD levels, 1 VMD column, numeric data."""
    return Table(
        [
            ["", "Men", "", "Women", ""],
            ["Age categories", "Needed to Harm", "Needed to Treat",
             "Needed to Harm", "Needed to Treat"],
            ["12 to 15 years", "21,557", "17,800", "21,148", "22,000"],
            ["16 to 19 years", "34,095", "13,069", "122,747", "10,317"],
            ["20 to 29 years", "48,036", "6,660", "142,873", "7,060"],
        ],
        name="vaccine",
    )


@pytest.fixture
def hierarchical_annotation(hierarchical_table: Table) -> TableAnnotation:
    return TableAnnotation.from_depths(
        hierarchical_table.n_rows,
        hierarchical_table.n_cols,
        hmd_depth=2,
        vmd_depth=1,
    )


@pytest.fixture(scope="session")
def ckg_split():
    """A small deterministic CKG train/eval split."""
    return build_split("ckg", n_train=60, n_eval=25, seed=7)


@pytest.fixture(scope="session")
def ckg_train(ckg_split):
    return ckg_split[0]


@pytest.fixture(scope="session")
def ckg_eval(ckg_split):
    return ckg_split[1]


@pytest.fixture(scope="session")
def hashed_pipeline(ckg_train) -> MetadataPipeline:
    """Fast fitted pipeline: hashed embeddings with the domain field map."""
    fields = get_domain("biomedical").field_map()
    config = PipelineConfig(
        embedding="hashed",
        hashed_fields=fields,
        n_pairs=200,
        use_contrastive=False,
    )
    return MetadataPipeline(config).fit(ckg_train)


@pytest.fixture
def tiny_generator() -> GSTGenerator:
    """Small-table generator for structure-focused tests."""
    config = GeneratorConfig(
        domain=get_domain("biomedical"),
        data_rows=(4, 8),
        data_cols=(2, 4),
        html_fraction=1.0,
    )
    return GSTGenerator(config, seed=42)
