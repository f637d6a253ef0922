"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.core.persistence import save_pipeline
from repro.tables.csvio import table_to_csv


class TestDatasets:
    def test_lists_all(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("cord19", "ckg", "wdc", "cius", "saus", "pubtables"):
            assert name in out
        assert "no markup" in out


class TestClassify:
    @pytest.fixture
    def model_path(self, hashed_pipeline, tmp_path):
        return save_pipeline(hashed_pipeline, tmp_path / "model.npz")

    def test_classify_csv(self, model_path, tmp_path, ckg_eval, capsys):
        table_path = tmp_path / "table.csv"
        table_path.write_text(table_to_csv(ckg_eval[0].table))
        assert main(["classify", str(table_path), "--model", str(model_path)]) == 0
        out = capsys.readouterr().out
        assert "HMD depth:" in out
        assert "row labels:" in out

    def test_classify_with_evidence(self, model_path, tmp_path, ckg_eval, capsys):
        table_path = tmp_path / "table.csv"
        table_path.write_text(table_to_csv(ckg_eval[1].table))
        assert (
            main(
                ["classify", str(table_path), "--model", str(model_path),
                 "--evidence"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "evidence:" in out
        assert "row 0" in out

    def test_classify_json(self, model_path, tmp_path, ckg_eval, capsys):
        from repro.tables.jsonio import table_to_json

        table_path = tmp_path / "table.json"
        table_path.write_text(table_to_json(ckg_eval[0].table))
        assert main(["classify", str(table_path), "--model", str(model_path)]) == 0
        assert "VMD depth:" in capsys.readouterr().out

    def test_classify_markdown(self, model_path, tmp_path, ckg_eval, capsys):
        from repro.tables.markdown import table_to_markdown

        table_path = tmp_path / "table.md"
        table_path.write_text(table_to_markdown(ckg_eval[0].table))
        assert main(["classify", str(table_path), "--model", str(model_path)]) == 0
        assert "HMD depth:" in capsys.readouterr().out


class TestCorpus:
    def test_describe_only(self, capsys):
        assert main(["corpus", "--dataset", "wdc", "--n-tables", "8"]) == 0
        out = capsys.readouterr().out
        assert "wdc" in out
        assert "HMD depth counts" in out

    def test_write_jsonl(self, tmp_path, capsys):
        out_path = tmp_path / "corpus.jsonl"
        assert (
            main(
                ["corpus", "--dataset", "cius", "--n-tables", "5",
                 "--out", str(out_path)]
            )
            == 0
        )
        assert out_path.exists()
        assert "wrote 5 tables" in capsys.readouterr().out
        from repro.corpus.io import load_corpus

        assert len(load_corpus(out_path)) == 5


class TestDiagnose:
    def test_renders_spectrum(self, hashed_pipeline, tmp_path, capsys):
        model = save_pipeline(hashed_pipeline, tmp_path / "m.npz")
        assert (
            main(
                ["diagnose", "--model", str(model), "--dataset", "ckg",
                 "--n-tables", "15"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "separation AUC" in out
        assert "metadata-data angles" in out


class TestArgErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_experiment_unknown_artifact(self):
        with pytest.raises(SystemExit):
            main(["experiment", "table99"])


class TestClassifyMulti:
    @pytest.fixture
    def model_path(self, hashed_pipeline, tmp_path):
        return save_pipeline(hashed_pipeline, tmp_path / "model.npz")

    def test_multiple_inputs_emit_jsonl(
        self, model_path, tmp_path, ckg_eval, capsys
    ):
        import json

        paths = []
        for i in range(3):
            path = tmp_path / f"t{i}.csv"
            path.write_text(table_to_csv(ckg_eval[i].table))
            paths.append(str(path))
        assert main(["classify", *paths, "--model", str(model_path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        for line, spec in zip(lines, paths):
            record = json.loads(line)
            assert record["source"] == spec
            assert "row_labels" in record

    def test_single_input_json_flag(self, model_path, tmp_path, ckg_eval, capsys):
        import json

        path = tmp_path / "t.csv"
        path.write_text(table_to_csv(ckg_eval[0].table))
        assert (
            main(["classify", str(path), "--model", str(model_path), "--json"])
            == 0
        )
        record = json.loads(capsys.readouterr().out)
        assert record["hmd_depth"] >= 0

    def test_stdin_dash(self, model_path, ckg_eval, capsys, monkeypatch):
        import io
        import json

        monkeypatch.setattr(
            "sys.stdin", io.StringIO(table_to_csv(ckg_eval[0].table))
        )
        assert main(["classify", "-", "--model", str(model_path)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["name"] == "stdin"
        assert record["source"] == "-"


class TestBatch:
    @pytest.fixture
    def model_path(self, hashed_pipeline, tmp_path):
        return save_pipeline(hashed_pipeline, tmp_path / "model.npz")

    def test_directory_to_jsonl(self, model_path, tmp_path, ckg_eval, capsys):
        import json

        table_dir = tmp_path / "tables"
        table_dir.mkdir()
        for i in range(5):
            (table_dir / f"t{i}.csv").write_text(
                table_to_csv(ckg_eval[i].table)
            )
        out = tmp_path / "results.jsonl"
        assert (
            main(
                ["batch", str(table_dir), "--model", str(model_path),
                 "--workers", "2", "--out", str(out)]
            )
            == 0
        )
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(records) == 5
        assert all("row_labels" in r for r in records)
        assert "classified 5/5" in capsys.readouterr().err

    def test_stdout_default(self, model_path, tmp_path, ckg_eval, capsys):
        import json

        path = tmp_path / "t.csv"
        path.write_text(table_to_csv(ckg_eval[0].table))
        assert main(["batch", str(path), "--model", str(model_path)]) == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["n_rows"] == ckg_eval[0].table.n_rows

    def test_partial_failure_is_nonzero(
        self, model_path, tmp_path, ckg_eval, capsys
    ):
        table_dir = tmp_path / "tables"
        table_dir.mkdir()
        (table_dir / "good.csv").write_text(table_to_csv(ckg_eval[0].table))
        (table_dir / "bad.json").write_text("{not json")
        assert (
            main(["batch", str(table_dir), "--model", str(model_path)]) == 1
        )
        # The summary (with the error count) lands on stderr even
        # without --out.
        err = capsys.readouterr().err
        assert "classified 1/2" in err
        assert "1 errors" in err


class TestTrace:
    @pytest.fixture
    def model_path(self, hashed_pipeline, tmp_path):
        return save_pipeline(hashed_pipeline, tmp_path / "model.npz")

    def test_trace_prints_records_and_profile(
        self, model_path, tmp_path, ckg_eval, capsys
    ):
        import json

        path = tmp_path / "t.csv"
        path.write_text(table_to_csv(ckg_eval[0].table))
        assert main(["trace", str(path), "--model", str(model_path)]) == 0
        captured = capsys.readouterr()
        record = json.loads(captured.out.strip())
        assert record["row_labels"]
        # the top-spans profile lands on stderr
        assert "classify" in captured.err
        assert "self ms" in captured.err

    def test_trace_out_writes_chrome_trace(
        self, model_path, tmp_path, ckg_eval, capsys
    ):
        import json

        path = tmp_path / "t.csv"
        path.write_text(table_to_csv(ckg_eval[0].table))
        out = tmp_path / "trace.json"
        assert (
            main(["trace", str(path), "--model", str(model_path),
                  "--out", str(out)])
            == 0
        )
        document = json.loads(out.read_text())
        events = document["traceEvents"]
        names = {e["name"] for e in events if e["ph"] == "B"}
        assert {"table", "classify", "fused.pack", "fused.walk"} <= names
        assert sum(1 for e in events if e["ph"] == "B") == sum(
            1 for e in events if e["ph"] == "E"
        )

    def test_trace_leaves_tracing_disabled(self, model_path, tmp_path, ckg_eval):
        from repro import obs

        path = tmp_path / "t.csv"
        path.write_text(table_to_csv(ckg_eval[0].table))
        assert main(["trace", str(path), "--model", str(model_path)]) == 0
        assert not obs.get_tracer().enabled

    def test_batch_trace_out(self, model_path, tmp_path, ckg_eval, capsys):
        import json

        table_dir = tmp_path / "tables"
        table_dir.mkdir()
        for i in range(3):
            (table_dir / f"t{i}.csv").write_text(
                table_to_csv(ckg_eval[i].table)
            )
        out = tmp_path / "results.jsonl"
        trace_out = tmp_path / "trace.json"
        assert (
            main(["batch", str(table_dir), "--model", str(model_path),
                  "--out", str(out), "--trace-out", str(trace_out)])
            == 0
        )
        assert "wrote" in capsys.readouterr().err
        document = json.loads(trace_out.read_text())
        begins = [e for e in document["traceEvents"] if e["ph"] == "B"]
        names = {e["name"] for e in begins}
        # The streaming plane's span vocabulary: per-file "table" roots
        # with read/parse stages inside, chunk packing, fused classify.
        assert {
            "table", "ingest.read", "ingest.parse", "ingest.pack", "classify",
        } <= names
        # one root "table" span per input file
        assert sum(1 for e in begins if e["name"] == "table") == 3

    def test_batch_trace_out_jsonl(self, model_path, tmp_path, ckg_eval):
        import json

        path = tmp_path / "t.csv"
        path.write_text(table_to_csv(ckg_eval[0].table))
        trace_out = tmp_path / "spans.jsonl"
        assert (
            main(["batch", str(path), "--model", str(model_path),
                  "--out", str(tmp_path / "r.jsonl"),
                  "--trace-out", str(trace_out)])
            == 0
        )
        records = [
            json.loads(line) for line in trace_out.read_text().splitlines()
        ]
        assert any(r["name"] == "classify" for r in records)


class TestVerbose:
    def test_verbose_flag_accepted(self, capsys):
        assert main(["-v", "datasets"]) == 0
        assert "ckg" in capsys.readouterr().out


class TestConvert:
    @pytest.fixture
    def model_path(self, hashed_pipeline, tmp_path):
        return save_pipeline(hashed_pipeline, tmp_path / "model.npz")

    def test_npz_to_directory_and_back(
        self, model_path, tmp_path, ckg_eval, capsys
    ):
        from repro.core.persistence import is_pipeline_dir, load_pipeline

        store = tmp_path / "store"
        assert main(["convert", str(model_path), str(store)]) == 0
        assert is_pipeline_dir(store)
        assert "directory store" in capsys.readouterr().out

        back = tmp_path / "back.npz"
        assert main(["convert", str(store), str(back)]) == 0
        assert "npz archive" in capsys.readouterr().out

        table = ckg_eval[0].table
        assert (
            load_pipeline(store).classify(table)
            == load_pipeline(back).classify(table)
        )

    def test_missing_source_is_an_error(self, tmp_path, capsys):
        from repro.core.persistence import PersistenceError

        with pytest.raises(PersistenceError):
            main(["convert", str(tmp_path / "absent.npz"), str(tmp_path / "d")])


class TestBatchProcs:
    @pytest.fixture
    def model_dir(self, hashed_pipeline, tmp_path):
        from repro.core.persistence import save_pipeline_dir

        return save_pipeline_dir(hashed_pipeline, tmp_path / "model_dir")

    @pytest.fixture
    def table_dir(self, tmp_path, ckg_eval):
        d = tmp_path / "tables"
        d.mkdir()
        for i, item in enumerate(ckg_eval[:6]):
            (d / f"t{i}.csv").write_text(table_to_csv(item.table))
        return d

    def test_procs_matches_thread_path(
        self, model_dir, table_dir, tmp_path, capsys
    ):
        import json

        out_procs = tmp_path / "procs.jsonl"
        out_threads = tmp_path / "threads.jsonl"
        assert main([
            "batch", str(table_dir), "--model", str(model_dir),
            "--procs", "2", "--cache-size", "0", "--out", str(out_procs),
        ]) == 0
        assert main([
            "batch", str(table_dir), "--model", str(model_dir),
            "--workers", "2", "--cache-size", "0", "--out", str(out_threads),
        ]) == 0

        def normalize(path):
            records = [json.loads(l) for l in path.read_text().splitlines()]
            for record in records:
                record.pop("seconds", None)
                record.pop("cached", None)
            return records

        assert normalize(out_procs) == normalize(out_threads)

    def test_procs_trace_out_merges_worker_spans(
        self, model_dir, table_dir, tmp_path, capsys
    ):
        import json

        trace = tmp_path / "trace.json"
        assert main([
            "batch", str(table_dir), "--model", str(model_dir),
            "--procs", "2", "--out", str(tmp_path / "o.jsonl"),
            "--trace-out", str(trace),
        ]) == 0
        document = json.loads(trace.read_text())
        names = {e["name"] for e in document["traceEvents"]}
        assert "table" in names  # worker-side spans made it into the merge
