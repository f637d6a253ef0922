"""The classify, serve and worker import graph stays free of scipy.

scipy is a fit-time dependency (the PPMI backend's sparse counts).
Importing ``scipy.sparse`` costs every classify process about 0.25 s of
start-up and 20+ MB of resident memory, so a fresh interpreter that
loads a saved store and classifies through the worker entry points
must never pull it in.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

_SRC = str(Path(repro.__file__).resolve().parents[1])

_PROBE = """
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
    "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
    "labels": [one is not None, len(batch), len(chunk["records"])],
}))
"""


def test_worker_and_serve_classify_without_scipy(model_dir):
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, str(model_dir)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": _SRC},
        check=True,
    )
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert report["labels"] == [True, 3, 1]
    assert report["scipy"] == []
