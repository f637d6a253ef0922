"""The ``train`` workload's program process: fit, save, label held-out.

Runs as a fresh process.  It fits ``MetadataPipeline`` with the
configuration ``repro fit`` uses, saves it with ``save_pipeline_dir``,
then labels the held-out split with the in-memory pipeline (untimed)
so the benchmark can compare the reloaded store against it.

Protocol on stdout: ``ready`` once imports are done and the corpus is
read (the set-up end), then one JSON line with the fit and save times.
``--trace-dir DIR`` (the traced run) installs the layer wrappers and
writes ``DIR/spans.jsonl`` and ``DIR/hooks.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path


def _read(path: Path) -> list:
    from repro.tables.labels import LevelLabel, TableAnnotation
    from repro.tables.model import AnnotatedTable, Table

    items = []
    for line in path.read_text().splitlines():
        obj = json.loads(line)
        table = Table(obj["rows"], name=obj["name"])
        # fit() ignores annotations (the pipeline is unsupervised); the
        # placeholder only gives the markup a carrier of the right shape.
        blank = TableAnnotation(
            (LevelLabel.data(),) * table.n_rows, (LevelLabel.data(),) * table.n_cols
        )
        items.append(AnnotatedTable(table, blank, html=obj["html"]))
    return items


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--corpus", type=Path, required=True)
    parser.add_argument("--heldout", type=Path, required=True)
    parser.add_argument("--store", type=Path, required=True)
    parser.add_argument("--labels", type=Path, required=True)
    parser.add_argument("--trace-dir", type=Path)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro import obs
    from repro.core import persistence
    from repro.core.pipeline import MetadataPipeline
    from repro.experiments.runner import SMOKE, pipeline_config_for

    hooks = None
    if args.trace_dir is not None:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import hooks as hooks_module

        hooks = hooks_module.install()
    corpus = _read(args.corpus)
    print("ready", flush=True)

    tracer = obs.Tracer() if args.trace_dir is not None else None
    with obs.tracing(tracer) if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        pipeline = MetadataPipeline(pipeline_config_for("ckg", SMOKE)).fit(corpus)
        fitted = time.perf_counter()
        persistence.save_pipeline_dir(pipeline, args.store)
        saved = time.perf_counter()
    print(json.dumps({"fit_s": fitted - start, "save_s": saved - fitted}), flush=True)
    if tracer is not None:
        obs.write_trace(tracer.spans(), args.trace_dir / "spans.jsonl")
        hooks.dump(str(args.trace_dir / "hooks.json"))

    heldout = _read(args.heldout)
    labels = [
        [[str(l) for l in a.row_labels], [str(l) for l in a.col_labels]]
        for a in (pipeline.classify(item.table) for item in heldout)
    ]
    args.labels.write_text(json.dumps(labels))
    return 0


if __name__ == "__main__":
    sys.exit(main())
