"""Tests for the offline bulk path: input expansion, parsing, the
result-cache helpers, and bulk runs on the streaming plane."""

from __future__ import annotations

import pytest

from repro.connectors.pipelined import run_streaming
from repro.connectors.sources import build_sources, expand_path_specs
from repro.serve.bulk import (
    classify_tables_cached,
    result_record,
    table_from_path,
    table_from_text,
)
from repro.serve.cache import LRUCache
from repro.serve.metrics import ServiceMetrics
from repro.tables.csvio import table_to_csv
from tests.conftest import sequential_records


@pytest.fixture
def table_dir(tmp_path, ckg_eval):
    for i, item in enumerate(ckg_eval[:6]):
        (tmp_path / f"t{i:02d}.csv").write_text(table_to_csv(item.table))
    (tmp_path / "notes.txt").write_text("not a table")
    return tmp_path


class TestPathExpansion:
    def test_directory_filters_suffixes(self, table_dir):
        paths = expand_path_specs([table_dir])
        assert len(paths) == 6
        assert all(p.suffix == ".csv" for p in paths)

    def test_glob(self, table_dir):
        paths = expand_path_specs([str(table_dir / "t0*.csv")])
        assert len(paths) == 6

    def test_explicit_file_and_dedup(self, table_dir):
        one = table_dir / "t00.csv"
        paths = expand_path_specs([one, table_dir])
        assert paths.count(one) == 1

    def test_missing_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            expand_path_specs([tmp_path / "absent-*.csv"])

    def test_overlapping_glob_and_dir_dedupes(self, table_dir):
        # Regression: a file reached through both a glob and its parent
        # directory used to be classified (and billed) twice.
        paths = expand_path_specs([str(table_dir / "*.csv"), str(table_dir)])
        assert len(paths) == 6
        assert len(set(paths)) == 6

    def test_spelling_variants_dedupe(self, table_dir):
        dotted = table_dir / "." / "t00.csv"
        paths = expand_path_specs([table_dir / "t00.csv", dotted])
        assert len(paths) == 1

    def test_dedupe_is_order_stable(self, table_dir):
        favorite = table_dir / "t03.csv"
        paths = expand_path_specs([favorite, table_dir])
        assert paths[0] == favorite
        assert len(paths) == 6


class TestTableLoading:
    def test_csv_json_markdown(self, tmp_path, ckg_eval):
        from repro.tables.jsonio import table_to_json
        from repro.tables.markdown import table_to_markdown

        table = ckg_eval[0].table
        (tmp_path / "a.csv").write_text(table_to_csv(table))
        (tmp_path / "a.json").write_text(table_to_json(table))
        (tmp_path / "a.md").write_text(table_to_markdown(table))
        for name in ("a.csv", "a.json", "a.md"):
            loaded = table_from_path(tmp_path / name)
            assert loaded.shape == table.shape

    def test_extensionless_path_content_sniffs(self, tmp_path, ckg_eval):
        # Regression: dispatch used to be extension-only, so stdin and
        # extensionless files always parsed as CSV.
        from repro.tables.jsonio import table_to_json
        from repro.tables.markdown import table_to_markdown

        table = ckg_eval[0].table
        for i, text in enumerate(
            (table_to_json(table), table_to_markdown(table))
        ):
            path = tmp_path / f"payload{i}"
            path.write_text(text)
            assert table_from_path(path).shape == table.shape

    def test_text_sniffs_html(self):
        loaded = table_from_text(
            "<table><tr><td>a</td><td>b</td></tr></table>", name="stdin"
        )
        assert loaded.rows == (("a", "b"),)

    def test_text_sniffs_jsonl_as_one_table(self):
        loaded = table_from_text('["h1","h2"]\n["1","2"]\n["3","4"]\n')
        assert loaded.rows == (("h1", "h2"), ("1", "2"), ("3", "4"))

    def test_jsonl_objects_project_onto_first_keys(self):
        text = (
            '{"name": "a", "value": "1"}\n'
            '{"name": "b"}\n'
            '{"value": "2", "name": "c", "extra": "x"}\n'
        )
        loaded = table_from_text(text, suffix=".jsonl")
        assert loaded.rows == (
            ("name", "value"),
            ("a", "1"),
            ("b", ""),
            ("c", "2"),
        )

    def test_jsonl_rejections_are_value_errors(self):
        # The fuzzer contract: every malformed input raises ValueError.
        for text in ('{"a": 1}\n[', '"scalar"\n', "\n \n"):
            with pytest.raises(ValueError):
                table_from_text(text, suffix=".jsonl")

    def test_unknown_suffix_falls_back_to_sniffing(self, tmp_path):
        path = tmp_path / "export.dat"
        path.write_text("x,y\n1,2\n")
        assert table_from_path(path).rows == (("x", "y"), ("1", "2"))


def _classify_one(pipeline, table, cache, *, model=""):
    """One table through the result-cache front: ``(annotation, hit)``."""
    (outcome,) = classify_tables_cached(pipeline, [table], cache, model=model)
    return outcome


class TestClassifyCached:
    def test_second_call_hits(self, hashed_pipeline, ckg_eval):
        cache = LRUCache(8)
        table = ckg_eval[0].table
        first, hit1 = _classify_one(hashed_pipeline, table, cache)
        second, hit2 = _classify_one(hashed_pipeline, table, cache)
        assert (hit1, hit2) == (False, True)
        assert first.row_labels == second.row_labels

    def test_no_cache_passthrough(self, hashed_pipeline, ckg_eval):
        annotation, hit = _classify_one(
            hashed_pipeline, ckg_eval[0].table, None
        )
        assert not hit
        assert annotation.row_labels

    def test_two_models_never_share_entries(self, hashed_pipeline, ckg_eval):
        """The key carries the model name: the same table under two
        registered model names must resolve independently."""
        cache = LRUCache(16)
        table = ckg_eval[0].table
        _, hit_a = _classify_one(hashed_pipeline, table, cache, model="a")
        _, hit_b = _classify_one(hashed_pipeline, table, cache, model="b")
        assert (hit_a, hit_b) == (False, False)
        assert _classify_one(
            hashed_pipeline, table, cache, model="a"
        )[1] is True

    def test_two_pipelines_never_share_entries(self, hashed_pipeline, ckg_eval):
        """Regression: cache keys carry a pipeline identity token, so a
        second pipeline under the *same model name* must not be served
        the first pipeline's annotations."""
        from repro.core.pipeline import MetadataPipeline, PipelineConfig

        other = MetadataPipeline(
            PipelineConfig(
                embedding="hashed", hashed_dim=16, n_pairs=50,
                use_contrastive=False,
            )
        ).fit([item.table for item in ckg_eval[:12]])
        cache = LRUCache(16)
        table = ckg_eval[0].table
        first, hit1 = _classify_one(
            hashed_pipeline, table, cache, model="m"
        )
        second, hit2 = _classify_one(other, table, cache, model="m")
        assert (hit1, hit2) == (False, False)
        assert second == other.classify(table)
        # Each pipeline still hits its own entries afterwards.
        assert _classify_one(hashed_pipeline, table, cache, model="m") == (
            first, True
        )
        assert _classify_one(other, table, cache, model="m") == (
            second, True
        )


class TestClassifyTablesCached:
    def test_mixed_hits_and_misses(self, hashed_pipeline, ckg_eval):
        tables = [item.table for item in ckg_eval[:4]]
        cache = LRUCache(16)
        _classify_one(hashed_pipeline, tables[0], cache)
        outcomes = classify_tables_cached(hashed_pipeline, tables, cache)
        assert len(outcomes) == len(tables)
        assert [hit for _, hit in outcomes] == [True, False, False, False]
        for table, (annotation, _) in zip(tables, outcomes):
            assert annotation == hashed_pipeline.classify(table)

    def test_failing_table_is_isolated(self, hashed_pipeline, ckg_eval):
        from repro.tables.model import Table

        good = ckg_eval[0].table

        class _Poison(Table):
            def __init__(self):  # skip the frozen-dataclass init
                pass

            @property
            def rows(self):  # trip the corpus pass and the retry
                raise RuntimeError("poisoned grid")

        outcomes = classify_tables_cached(
            hashed_pipeline, [good, _Poison()], None
        )
        assert outcomes[0][0] == hashed_pipeline.classify(good)
        assert isinstance(outcomes[1][0], Exception)


class TestClassifyPaths:
    """Bulk runs over table files on the streaming plane."""

    def test_matches_direct_classification(
        self, hashed_pipeline, table_dir, ckg_eval
    ):
        records = run_streaming(
            hashed_pipeline, build_sources([str(table_dir)])
        )
        assert len(records) == 6
        for record, item in zip(records, ckg_eval[:6]):
            direct = hashed_pipeline.classify(item.table)
            assert record["row_labels"] == [
                str(l) for l in direct.row_labels
            ]
            assert record["cached"] is False

    def test_duplicate_inputs_hit_cache(self, hashed_pipeline, table_dir):
        cache = LRUCache(32)
        for _ in range(2):
            records = run_streaming(
                hashed_pipeline, build_sources([str(table_dir)]),
                cache=cache,
            )
        assert all(r["cached"] for r in records)
        assert cache.stats().hits >= 6

    def test_bad_file_yields_error_record(self, hashed_pipeline, tmp_path):
        good = tmp_path / "good.csv"
        good.write_text("a,b\n1,2\n")
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        metrics = ServiceMetrics()
        records = run_streaming(
            hashed_pipeline, build_sources([str(good), str(bad)]),
            metrics=metrics,
        )
        by_source = {r["source"]: r for r in records}
        assert "error" in by_source[str(bad)]
        assert "row_labels" in by_source[str(good)]
        assert metrics.counter("ingest_errors_total") == 1
        assert metrics.counter("ingest_tables_total") == 1


class TestOutput:
    def test_result_record_shape(self, hashed_pipeline, ckg_eval):
        table = ckg_eval[0].table
        annotation = hashed_pipeline.classify(table)
        record = result_record(
            table, annotation, model="m", cached=True, seconds=0.5
        )
        assert record["model"] == "m"
        assert record["cached"] is True
        assert record["hmd_depth"] == annotation.hmd_depth
        assert len(record["row_labels"]) == table.n_rows
        assert len(record["col_labels"]) == table.n_cols


class TestGlobDirectories:
    def test_glob_matching_directories_recurses(self, tmp_path, ckg_eval):
        # A glob whose matches are directories must contribute their
        # table files, exactly like a literal directory spec would.
        for shard in ("shard-a", "shard-b"):
            sub = tmp_path / shard
            sub.mkdir()
            for i, item in enumerate(ckg_eval[:2]):
                (sub / f"t{i}.csv").write_text(table_to_csv(item.table))
            (sub / "notes.txt").write_text("not a table")
        paths = expand_path_specs([str(tmp_path / "shard-*")])
        assert len(paths) == 4
        assert all(p.suffix == ".csv" for p in paths)
        assert {p.parent.name for p in paths} == {"shard-a", "shard-b"}

    def test_glob_mixing_files_and_directories(self, tmp_path, ckg_eval):
        (tmp_path / "x-file.csv").write_text(table_to_csv(ckg_eval[0].table))
        sub = tmp_path / "x-dir"
        sub.mkdir()
        (sub / "inner.csv").write_text(table_to_csv(ckg_eval[1].table))
        paths = expand_path_specs([str(tmp_path / "x-*")])
        assert sorted(p.name for p in paths) == ["inner.csv", "x-file.csv"]


class TestCorpusStageHook:
    def test_classify_corpus_emits_classify_stages(self, ckg_train, ckg_eval):
        # classify_corpus must route through classify() so every table
        # records a "classify" stage timing (the serve metrics contract).
        from repro.core.pipeline import MetadataPipeline, PipelineConfig

        pipeline = MetadataPipeline(
            PipelineConfig(embedding="hashed", use_contrastive=False)
        ).fit(ckg_train[:15])
        stages: list[tuple[str, float]] = []
        pipeline.add_stage_hook(
            lambda stage, seconds: stages.append((stage, seconds))
        )
        tables = [item.table for item in ckg_eval[:5]]
        annotations = pipeline.classify_corpus(tables)
        assert len(annotations) == 5
        classify_stages = [s for s in stages if s[0] == "classify"]
        assert len(classify_stages) == 5
        assert all(seconds >= 0 for _, seconds in classify_stages)
        for annotation, table in zip(annotations, tables):
            assert annotation == pipeline.classify(table)


class TestEncodingTolerance:
    """Non-UTF-8 table files must load, not crash the batch."""

    def test_latin1_csv_loads_with_replacement(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes("rég,année,café\nvaleur,2001,3\n".encode("latin-1"))
        table = table_from_path(path)
        assert table.n_rows == 2 and table.n_cols == 3
        # undecodable bytes degrade to U+FFFD, never to an exception
        assert "�" in "".join(table.row(0))

    def test_utf8_unchanged(self, tmp_path):
        path = tmp_path / "utf8.csv"
        path.write_text("rég,année\ncafé,2\n", encoding="utf-8")
        table = table_from_path(path)
        assert table.row(0) == ("rég", "année")

    def test_batch_with_mixed_encodings(self, tmp_path, hashed_pipeline):
        (tmp_path / "ok.csv").write_text("a,b\n1,2\n")
        (tmp_path / "latin.csv").write_bytes(
            "tête,corps\nxyz,1\n".encode("latin-1")
        )
        records = run_streaming(
            hashed_pipeline, build_sources([str(tmp_path)])
        )
        assert len(records) == 2
        assert all("error" not in r for r in records)


class TestHtmlIngestion:
    """.html/.htm route through the span-expanding HTML parser."""

    MARKUP = (
        "<table><tr><th colspan=\"2\">Population</th><th>Year</th></tr>"
        "<tr><td>City</td><td>County</td><td>2020</td></tr>"
        "<tr><td>12</td><td>34</td><td>56</td></tr></table>"
    )

    def test_html_suffixes_are_picked_up(self, tmp_path):
        (tmp_path / "page.html").write_text(self.MARKUP)
        (tmp_path / "page2.htm").write_text(self.MARKUP)
        (tmp_path / "skip.txt").write_text("not a table")
        paths = expand_path_specs([tmp_path])
        assert [p.name for p in paths] == ["page.html", "page2.htm"]

    def test_colspan_expands_onto_the_grid(self, tmp_path):
        (tmp_path / "page.html").write_text(self.MARKUP)
        table = table_from_path(tmp_path / "page.html")
        assert table.n_cols == 3
        # colspan=2 expands: value in the anchor cell, blank continuation
        assert table.row(0)[0] == "Population"
        assert table.row(0)[2] == "Year"

    def test_html_classifies_in_bulk(self, tmp_path, hashed_pipeline):
        (tmp_path / "page.html").write_text(self.MARKUP)
        records = run_streaming(
            hashed_pipeline, build_sources([str(tmp_path)])
        )
        assert len(records) == 1
        assert "error" not in records[0]
        assert records[0]["name"] == "page"


class TestRunBulkStreaming:
    """run_bulk wiring: the batch entry point rides the streaming plane."""

    @pytest.fixture
    def model(self, hashed_pipeline, tmp_path_factory):
        from repro.core.persistence import save_pipeline_dir

        path = tmp_path_factory.mktemp("store") / "model"
        return save_pipeline_dir(hashed_pipeline, path)

    def test_streaming_matches_legacy_path(self, model, table_dir, tmp_path):
        # Streaming must reproduce the one-file-at-a-time sequential
        # oracle record for record, in input order.
        from repro.core.persistence import load_pipeline
        from repro.serve.bulk import run_bulk

        # The oracle lists the inputs first: the JSONL output lands in
        # the same directory, and expansion picks up .jsonl files.
        reference = sequential_records(
            load_pipeline(model), expand_path_specs([str(table_dir)])
        )
        streamed = run_bulk(
            model, [str(table_dir)], out=tmp_path / "s.jsonl"
        )

        def norm(record):
            skip = ("cached", "model")
            return {k: v for k, v in record.items() if k not in skip}

        assert [norm(r) for r in streamed] == [norm(r) for r in reference]

    def test_windowed_batch(self, model, table_dir, tmp_path):
        from repro.serve.bulk import run_bulk

        out = tmp_path / "o.jsonl"
        records = run_bulk(
            model, [str(table_dir)], out=out, window_rows=128
        )
        assert len(records) == 6
        assert all(r["windowed"] and r["window_exact"] for r in records)
        assert len(out.read_text().splitlines()) == 6

    def test_sqlite_sink_spec(self, model, table_dir, tmp_path):
        import sqlite3

        from repro.serve.bulk import run_bulk

        db = tmp_path / "results.db"
        run_bulk(model, [str(table_dir)], out=f"sql:{db}#results")
        conn = sqlite3.connect(db)
        try:
            (count,) = conn.execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()
        finally:
            conn.close()
        assert count == 6

    def test_metrics_wiring(self, model, table_dir, tmp_path):
        from repro.serve.bulk import run_bulk

        metrics = ServiceMetrics()
        run_bulk(
            model, [str(table_dir)], out=tmp_path / "o.jsonl", metrics=metrics
        )
        assert metrics.counter("ingest_tables_total") == 6
        # Thread mode parses and classifies on one thread: no chunk
        # queue, so no queue-depth gauge.
        assert "repro_ingest_queue_depth" not in metrics.render()

    def test_metrics_wiring_procs(self, model, table_dir, tmp_path):
        from repro.serve.bulk import run_bulk

        metrics = ServiceMetrics()
        run_bulk(
            model, [str(table_dir)], out=tmp_path / "o.jsonl",
            metrics=metrics, procs=1,
        )
        assert metrics.counter("ingest_tables_total") == 6
        # The parse threads feeding --procs workers report their queue.
        assert "repro_ingest_queue_depth" in metrics.render()
