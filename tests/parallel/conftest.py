"""Fixtures for the multiprocess subsystem tests.

Worker processes are expensive to spawn (each re-imports numpy and repro),
so the pool fixtures are module scoped and the corpora stay small.
"""

from __future__ import annotations

import pytest

from repro.core.persistence import save_pipeline_dir
from repro.core.pipeline import MetadataPipeline, PipelineConfig
from repro.tables.csvio import table_to_csv
from repro.tables.model import Table


def make_table(i: int) -> Table:
    rows = [["region", "year", "count"]] + [
        [f"area {j}", str(2000 + j), str((i * 7 + j * 3) % 97)]
        for j in range(4)
    ]
    return Table(rows=rows, name=f"t{i:03d}")


@pytest.fixture(scope="session")
def small_corpus() -> list[Table]:
    return [make_table(i) for i in range(12)]


@pytest.fixture(scope="session")
def fitted_hashed(small_corpus) -> MetadataPipeline:
    config = PipelineConfig(embedding="hashed", bootstrap="first_level")
    return MetadataPipeline(config).fit(small_corpus)


@pytest.fixture(scope="session")
def model_dir(fitted_hashed, tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / "model"
    return save_pipeline_dir(fitted_hashed, path)


@pytest.fixture(scope="session")
def table_files(small_corpus, tmp_path_factory) -> list[str]:
    root = tmp_path_factory.mktemp("tables")
    out = []
    for table in small_corpus:
        path = root / f"{table.name}.csv"
        path.write_text(table_to_csv(table))
        out.append(str(path))
    return out
