"""The classify, serve and worker import graph stays lean.

A fresh ``repro batch`` process, a ``repro serve`` process and every
``--procs`` worker start cold, so whatever they import is paid on each
launch.  These probes run in fresh interpreters and check that:

* nothing imports scipy (a fit-time dependency of the PPMI backend:
  about 0.25 s of start-up and 20+ MB of resident memory);
* nothing imports the linter, the experiment runners, the baselines,
  the corpus generator, or the fuzzer, mutators and ablation runner;
* ``repro batch`` does not import the HTTP front-end (``http.server``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

_SRC = str(Path(repro.__file__).resolve().parents[1])

_FORBIDDEN_PACKAGES = (
    "scipy",
    "repro.analysis",
    "repro.experiments",
    "repro.baselines",
    "repro.corpus",
)
_FORBIDDEN_MODULES = ("repro.quality.fuzzer", "repro.quality.mutators", "repro.quality.ablate")

_WORKER_PROBE = """
import json, sys
import repro.parallel._worker as worker
import repro.serve.httpd
from repro.connectors.chunks import SourceItem
from repro.tables.model import Table

worker.init_classify_worker({"m": sys.argv[1]}, "m", None, True, 0)
pipeline = worker.get_model("m")
rows = [["region", "year", "count"], ["area 1", "2001", "7"], ["area 2", "2002", "9"]]
one = pipeline.classify(Table(rows, name="one"))
batch = pipeline.classify_corpus([Table(rows, name=f"b{i}") for i in range(3)])
chunk = worker.classify_stream_chunk("m", [SourceItem(source="", table=Table(rows, name="c"))])
print(json.dumps({
    "modules": sorted(sys.modules),
    "labels": [one is not None, len(batch), len(chunk["records"])],
}))
"""

_BATCH_PROBE = """
import json, sys
from repro.cli import main

code = main(["batch", sys.argv[2], "--model", sys.argv[1], "--out", sys.argv[3]])
print(json.dumps({"modules": sorted(sys.modules), "code": code}))
"""


def _probe(source: str, *args: str) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", source, *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": _SRC},
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _forbidden(modules: list[str]) -> list[str]:
    return [
        name for name in modules
        if name in _FORBIDDEN_MODULES
        or any(name == pkg or name.startswith(pkg + ".") for pkg in _FORBIDDEN_PACKAGES)
    ]


def test_worker_and_serve_classify_without_scipy(model_dir):
    report = _probe(_WORKER_PROBE, str(model_dir))
    assert report["labels"] == [True, 3, 1]
    assert _forbidden(report["modules"]) == []


def test_batch_command_imports_only_the_classify_path(model_dir, table_files, tmp_path):
    out = tmp_path / "records.jsonl"
    report = _probe(_BATCH_PROBE, str(model_dir), str(Path(table_files[0]).parent), str(out))
    assert report["code"] == 0
    assert len(out.read_text().splitlines()) == len(table_files)
    assert _forbidden(report["modules"]) == []
    assert "http.server" not in report["modules"]

