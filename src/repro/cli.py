"""Command-line interface.

Usage (also via ``python -m repro``):

    repro datasets
    repro fit --dataset ckg --n-train 160 --out model.npz
    repro classify table.csv [more.json -] --model model.npz [--evidence]
    repro serve --model model.npz --port 8080
    repro serve --model model_dir --procs 4
    repro batch tables/ --model model.npz --out results.jsonl
    repro experiment table5 --scale smoke
    repro experiment all --scale paper --out artifacts.txt
    repro trace table.csv --model model.npz --out trace.json
    repro batch tables/ --model model.npz --trace-out trace.json
    repro lint src --format json

Each subcommand imports what it runs, so ``repro batch`` and ``repro
serve`` load neither the fit, corpus and experiment code nor the
analysis and quality harnesses.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from repro.tables.model import Table


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tabular hierarchical metadata classification (ICDE 2025 reproduction)",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log INFO (-v) or DEBUG (-vv) to stderr",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("datasets", help="list the six dataset profiles")

    fit = commands.add_parser("fit", help="fit a pipeline on a dataset")
    fit.add_argument("--dataset", default="ckg", help="profile name")
    fit.add_argument("--n-train", type=int, default=160)
    fit.add_argument("--seed", type=int, default=1)
    fit.add_argument("--out", required=True, help="output .npz archive")

    classify = commands.add_parser(
        "classify", help="classify CSV/JSON tables with a saved pipeline"
    )
    classify.add_argument(
        "tables", nargs="+", metavar="table",
        help="paths to .csv/.json/.md tables, or '-' for CSV on stdin",
    )
    classify.add_argument("--model", required=True, help="saved .npz archive")
    classify.add_argument(
        "--evidence", action="store_true", help="print per-level angle evidence"
    )
    classify.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit one JSON document per input (implied for several inputs)",
    )

    serve = commands.add_parser(
        "serve", help="run the long-lived HTTP classification service"
    )
    serve.add_argument(
        "--model", required=True, action="append",
        help="saved .npz archive (repeatable; first is the default model)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument(
        "--procs", type=int, default=None,
        help="shard classification across N worker processes instead of "
             "threads (each loads the model once; directory stores are "
             "memory-mapped and shared)",
    )
    serve.add_argument("--cache-size", type=int, default=4096)
    serve.add_argument(
        "--trace-out", metavar="PATH",
        help="record spans for the service's lifetime and write them on "
             "shutdown (.jsonl: span lines; else Chrome trace_event JSON)",
    )

    batch = commands.add_parser(
        "batch", help="bulk-classify streaming sources to JSONL or a DB sink"
    )
    batch.add_argument(
        "inputs", nargs="+",
        help="table files, directories, glob patterns, 'sql:db#query', "
             "'jsonl:path', 'xlsx:path', or '-' for content-sniffed stdin",
    )
    batch.add_argument("--model", required=True, help="saved .npz archive")
    batch.add_argument(
        "--workers", type=int, default=None,
        help="with --procs: parse threads that feed the worker processes "
             "(default: CPU count, capped); without --procs, tables are "
             "parsed and classified on one thread",
    )
    batch.add_argument(
        "--procs", type=int, default=None,
        help="classify on N worker processes (true CPU parallelism; "
             "the model loads once per process, memory-mapped for "
             "directory stores)",
    )
    batch.add_argument(
        "--unordered", action="store_true",
        help="with --procs: emit records in completion order instead "
             "of input order (first results sooner, lower peak memory)",
    )
    batch.add_argument(
        "--out",
        help="output: JSONL path, 'sql:db#table' sink spec, or stdout "
             "by default",
    )
    batch.add_argument("--cache-size", type=int, default=4096)
    batch.add_argument(
        "--window-rows", type=int, default=None, metavar="K",
        help="bounded-memory windowed classification for row-streamable "
             "sources (CSV files, sql: cursors, stdin CSV): classify the "
             "first/last K rows plus a K-row reservoir body slab and "
             "stream DATA labels for the rest — tables larger than RAM "
             "stay classifiable",
    )
    batch.add_argument(
        "--window-cols", type=int, default=None, metavar="K",
        help="with --window-rows: keep only the leftmost K columns in "
             "the window",
    )
    batch.add_argument(
        "--trace-out", metavar="PATH",
        help="trace the run and write spans (.jsonl: span lines; "
             "else Chrome trace_event JSON for chrome://tracing / Perfetto). "
             "With --procs, per-worker spans are merged into one timeline "
             "(worker pid = tid)",
    )

    convert = commands.add_parser(
        "convert",
        help="convert a saved pipeline between .npz and the directory store",
    )
    convert.add_argument("src", help="saved pipeline (.npz or directory)")
    convert.add_argument(
        "dest",
        help="destination: *.npz writes a compressed archive, anything "
             "else writes a zero-copy directory store",
    )

    trace = commands.add_parser(
        "trace",
        help="classify tables with tracing enabled and print a profile",
    )
    trace.add_argument(
        "tables", nargs="+", metavar="table",
        help="paths to .csv/.json/.md tables, or '-' for CSV on stdin",
    )
    trace.add_argument("--model", required=True, help="saved .npz archive")
    trace.add_argument(
        "--out", metavar="PATH",
        help="also write the trace (.jsonl: span lines; else Chrome "
             "trace_event JSON)",
    )

    corpus = commands.add_parser(
        "corpus", help="generate a dataset corpus to JSONL and/or describe it"
    )
    corpus.add_argument("--dataset", default="ckg")
    corpus.add_argument("--n-tables", type=int, default=100)
    corpus.add_argument("--seed", type=int, default=0)
    corpus.add_argument("--out", help="write JSONL (.jsonl or .jsonl.gz)")

    diagnose = commands.add_parser(
        "diagnose",
        help="render the angle-geometry diagnostics for a saved pipeline",
    )
    diagnose.add_argument("--model", required=True, help="saved .npz archive")
    diagnose.add_argument("--dataset", default="ckg", help="corpus to probe with")
    diagnose.add_argument("--n-tables", type=int, default=60)
    diagnose.add_argument("--axis", choices=["rows", "cols"], default="rows")

    experiment = commands.add_parser(
        "experiment", help="regenerate a paper artifact"
    )
    experiment.add_argument(
        "artifact",
        choices=[
            "table1", "table2", "table3", "table4", "table5", "table6",
            "figure5", "figure6", "figure7", "runtime", "all",
        ],
    )
    experiment.add_argument("--scale", choices=["smoke", "paper"], default="smoke")
    experiment.add_argument("--out", help="also write the rendering to a file")

    _add_lint_parser(commands)
    _add_analyze_parser(commands)
    _add_fuzz_parser(commands)
    _add_ablate_parser(commands)
    return parser


# The lint/analyze and fuzz/ablate subparsers are declared here, not in
# repro.analysis.cli / repro.quality.cli, so that building the parser
# imports neither package; their runners are imported in _dispatch.

#: Default baseline location, resolved against the working directory —
#: the committed repo-root file when running from a checkout.
DEFAULT_BASELINE = "lint-baseline.json"


def _add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to check (default: src)",
    )
    parser.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format",
    )
    parser.add_argument(
        "--baseline", default=DEFAULT_BASELINE,
        help=f"baseline file of grandfathered findings (default: "
             f"{DEFAULT_BASELINE}; missing file = empty baseline)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline; report every finding",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="write all current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--select", metavar="IDS",
        help="comma-separated rule/pass ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore", metavar="IDS",
        help="comma-separated rule/pass ids to skip",
    )
    parser.add_argument(
        "--show-baselined", action="store_true",
        help="also print grandfathered findings (text format)",
    )
    parser.add_argument(
        "--check-stale", action="store_true",
        help="fail (exit 1) when baseline entries no longer match any "
             "finding — the fixed debt must leave the baseline too",
    )


def _add_lint_parser(commands: argparse._SubParsersAction) -> None:
    """Attach the ``lint`` subparser to the main CLI."""
    lint = commands.add_parser(
        "lint",
        help="run the project's static-analysis rules",
        description=(
            "AST lint tuned to this codebase: concurrency, NumPy "
            "contracts, determinism, API hygiene. See docs/LINTING.md."
        ),
    )
    _add_lint_arguments(lint)
    lint.add_argument(
        "--deep", action="store_true",
        help="also build the whole-program model and run the analyze "
             "passes (lock order, spawn safety, mmap writes)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )


def _add_analyze_parser(commands: argparse._SubParsersAction) -> None:
    """Attach the ``analyze`` subparser to the main CLI."""
    analyze = commands.add_parser(
        "analyze",
        help="run the whole-program concurrency/process-safety passes",
        description=(
            "Builds an intra-package call graph over the given paths "
            "and runs the whole-program passes: lock-order deadlock "
            "detection, spawn-boundary pickle safety, and mmap write "
            "safety. See docs/LINTING.md."
        ),
    )
    _add_lint_arguments(analyze)
    analyze.add_argument(
        "--list-passes", action="store_true",
        help="print the pass catalogue and exit",
    )


def _add_fuzz_parser(commands: argparse._SubParsersAction) -> None:
    """Attach the ``fuzz`` subparser to the main CLI."""
    fuzz = commands.add_parser(
        "fuzz",
        help="run the adversarial table fuzzer",
        description=(
            "Mutate real corpus tables (seeded, deterministic) and hunt "
            "parse crashes, fused-vs-reference divergence, and "
            "round-trip label flips. See docs/QUALITY.md."
        ),
    )
    fuzz.add_argument("--budget", type=int, default=200, help="cases to run")
    fuzz.add_argument("--seed", type=int, default=0, help="campaign seed")
    fuzz.add_argument("--dataset", default="ckg", help="corpus to mutate")
    fuzz.add_argument(
        "--backend", action="append", dest="backends", metavar="NAME",
        help="embedding backend to classify with (repeatable; "
        "default: hashed)",
    )
    fuzz.add_argument(
        "--mutators", metavar="NAMES",
        help="comma-separated mutator subset (default: all)",
    )
    fuzz.add_argument(
        "--bank", nargs="?", const="tests/quality/fixtures", default=None,
        metavar="DIR",
        help="bank minimized reproducers as fixtures (default dir: "
        "tests/quality/fixtures)",
    )
    fuzz.add_argument(
        "--report", metavar="PATH",
        help="write the campaign report as JSON",
    )
    fuzz.add_argument(
        "--procs", type=int, default=None,
        help="shard cases across worker processes (large budgets)",
    )
    fuzz.add_argument(
        "--list-mutators", action="store_true",
        help="print the mutator registry and exit",
    )
    fuzz.add_argument(
        "--trace-out", metavar="PATH",
        help="write an obs trace of the campaign",
    )


def _add_ablate_parser(commands: argparse._SubParsersAction) -> None:
    """Attach the ``ablate`` subparser to the main CLI."""
    ablate = commands.add_parser(
        "ablate",
        help="run the component-knockout ablation sweep",
        description=(
            "Fit the pipeline with one design choice disabled at a time "
            "and emit a machine-readable impact report. "
            "See docs/QUALITY.md."
        ),
    )
    ablate.add_argument(
        "--config", metavar="PATH",
        help="JSON ablation config (see docs/QUALITY.md for the schema)",
    )
    ablate.add_argument(
        "--quick", action="store_true",
        help="the CI preset: one cheap backend, small split",
    )
    ablate.add_argument(
        "--report", metavar="PATH",
        help="write the impact report as JSON",
    )
    ablate.add_argument(
        "--list-components", action="store_true",
        help="print the knockout registry and exit",
    )
    ablate.add_argument(
        "--trace-out", metavar="PATH",
        help="write an obs trace of the sweep",
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_datasets() -> int:
    from repro.corpus.profiles import list_profiles

    for profile in list_profiles():
        markup = "html markup" if profile.has_markup else "no markup"
        print(
            f"{profile.name:10s} HMD<= {profile.max_hmd_level}  "
            f"VMD<= {profile.max_vmd_level}  [{markup}]  {profile.description}"
        )
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    from repro.core.persistence import save_pipeline
    from repro.core.pipeline import MetadataPipeline
    from repro.corpus.profiles import get_profile
    from repro.corpus.registry import build_split
    from repro.experiments.runner import SMOKE, pipeline_config_for

    profile = get_profile(args.dataset)
    scale = SMOKE
    config = pipeline_config_for(args.dataset, scale)
    n_train = args.n_train * profile.train_multiplier
    print(f"generating {n_train} training tables for {args.dataset} ...")
    train, _ = build_split(args.dataset, n_train=n_train, n_eval=1, seed=args.seed)
    print("fitting (embeddings -> bootstrap -> contrastive -> centroids) ...")
    pipeline = MetadataPipeline(config).fit(train)
    if pipeline.fit_report is None:
        raise RuntimeError("fit() completed without producing a fit report")
    print(f"fit in {pipeline.fit_report.total_seconds:.1f}s")
    written = save_pipeline(pipeline, args.out)
    print(f"saved pipeline to {written}")
    return 0


def _load_input(spec: str) -> Table:
    """Load one classify input: a table path or ``-`` for stdin."""
    from repro.serve.bulk import table_from_path, table_from_text

    if spec == "-":
        # stdin carries no suffix; table_from_text content-sniffs
        # (json / jsonl / html / markdown / csv).
        return table_from_text(sys.stdin.read(), name="stdin")
    return table_from_path(Path(spec))


def _print_pretty(pipeline, table: Table, evidence: bool) -> None:
    result = pipeline.classify_result(table)
    print(table.to_text(max_width=16))
    print(f"\nHMD depth: {result.hmd_depth}   VMD depth: {result.vmd_depth}")
    print("row labels:", " ".join(str(l) for l in result.annotation.row_labels))
    print("col labels:", " ".join(str(l) for l in result.annotation.col_labels))
    if evidence:
        print("\nevidence:")
        for item in result.row_evidence:
            delta = (
                f"Δ={item.angle_to_prev:5.1f}°"
                if item.angle_to_prev is not None
                else "Δ= ---  "
            )
            print(
                f"  row {item.index}: {str(item.label):5s} {delta} "
                f"{item.rule}"
            )


def _cmd_classify(args: argparse.Namespace) -> int:
    from repro.core.persistence import load_pipeline
    from repro.serve.bulk import result_record

    pipeline = load_pipeline(args.model)
    as_json = args.as_json or len(args.tables) > 1 or "-" in args.tables
    if not as_json:
        _print_pretty(pipeline, _load_input(args.tables[0]), args.evidence)
        return 0
    for spec in args.tables:
        table = _load_input(spec)
        annotation = pipeline.classify(table)
        record = result_record(table, annotation, source=spec)
        print(json.dumps(record))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.httpd import ClassificationService, serve
    from repro.serve.registry import ModelRegistry

    registry = ModelRegistry()
    for spec in args.model:
        registry.register(spec)
    service = ClassificationService(
        registry, cache_capacity=args.cache_size, procs=args.procs
    )
    backend = (
        f"{args.procs} processes" if args.procs is not None
        else "request threads"
    )
    print(
        f"serving {', '.join(registry.names())} on "
        f"http://{args.host}:{args.port} ({backend})",
        file=sys.stderr,
    )
    if args.trace_out:
        from repro import obs

        with obs.tracing() as tracer:
            serve(service, host=args.host, port=args.port)
        _write_trace_file(tracer, args.trace_out)
    else:
        serve(service, host=args.host, port=args.port)
    return 0


def _write_trace_file(tracer, path: str) -> None:
    from repro import obs

    spans = tracer.spans()
    obs.write_trace(spans, path)
    dropped = f" ({tracer.dropped()} dropped)" if tracer.dropped() else ""
    print(f"wrote {len(spans)} spans{dropped} to {path}", file=sys.stderr)


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.serve.bulk import run_bulk

    def _run(trace_dir: str | None = None) -> list[dict]:
        return run_bulk(
            args.model,
            args.inputs,
            workers=args.workers,
            procs=args.procs,
            out=args.out,
            cache_capacity=args.cache_size,
            ordered=not args.unordered,
            trace_dir=trace_dir,
            window_rows=args.window_rows,
            window_cols=args.window_cols,
        )

    try:
        if args.trace_out:
            from repro import obs

            if args.procs is not None:
                # Worker processes flush their spans to per-pid files;
                # merge them with the parent's spans into one timeline.
                import tempfile

                from repro.parallel.traces import merge_traces

                with tempfile.TemporaryDirectory() as trace_dir:
                    with obs.tracing() as tracer:
                        records = _run(trace_dir)
                    spans = merge_traces(tracer.spans(), trace_dir)
                obs.write_trace(spans, args.trace_out)
                print(
                    f"wrote {len(spans)} spans to {args.trace_out}",
                    file=sys.stderr,
                )
            else:
                with obs.tracing() as tracer:
                    records = _run()
                _write_trace_file(tracer, args.trace_out)
        else:
            records = _run()
    except KeyboardInterrupt:
        print("repro batch: interrupted", file=sys.stderr)
        return 130
    errors = sum(1 for r in records if "error" in r)
    destination = f" -> {args.out}" if args.out else ""
    print(
        f"classified {len(records) - errors}/{len(records)} tables"
        f"{destination}" + (f" ({errors} errors)" if errors else ""),
        file=sys.stderr,
    )
    return 1 if errors else 0


def _cmd_convert(args: argparse.Namespace) -> int:
    from repro.core.persistence import load_pipeline, save_pipeline, save_pipeline_dir

    pipeline = load_pipeline(args.src)
    if args.dest.endswith(".npz"):
        written = save_pipeline(pipeline, args.dest)
        kind = "npz archive"
    else:
        written = save_pipeline_dir(pipeline, args.dest)
        kind = "directory store"
    print(f"converted {args.src} -> {written} ({kind})")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.core.persistence import load_pipeline
    from repro.serve.bulk import result_record

    pipeline = load_pipeline(args.model)
    with obs.tracing() as tracer:
        for spec in args.tables:
            with obs.span("table", source=spec) as table_span:
                table = _load_input(spec)
                annotation = pipeline.classify(table)
                table_span.set(table=table.name)
            print(json.dumps(result_record(table, annotation, source=spec)))
    spans = tracer.spans()
    print(obs.top_spans_report(spans), file=sys.stderr)
    if args.out:
        _write_trace_file(tracer, args.out)
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    from repro.corpus.io import save_corpus
    from repro.corpus.registry import build_corpus
    from repro.corpus.stats import describe_corpus

    corpus = build_corpus(args.dataset, n_tables=args.n_tables, seed=args.seed)
    print(describe_corpus(corpus, name=args.dataset))
    if args.out:
        written = save_corpus(corpus, args.out)
        print(f"wrote {written} tables to {args.out}")
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    from repro.core.bootstrap import bootstrap_corpus
    from repro.core.diagnostics import angle_spectrum, render_spectrum
    from repro.core.persistence import load_pipeline
    from repro.corpus.registry import build_corpus

    pipeline = load_pipeline(args.model)
    if pipeline.embedder is None:
        raise RuntimeError(
            f"model {args.model} loaded without an embedder; the archive "
            "is incomplete — re-fit and save it again"
        )
    corpus = build_corpus(args.dataset, n_tables=args.n_tables, seed=0)
    labeled = bootstrap_corpus(corpus)
    spectrum = angle_spectrum(pipeline.embedder, labeled, axis=args.axis)
    print(render_spectrum(spectrum))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import (
        PAPER, SMOKE, run_figure5, run_figure6, run_figure7, run_runtime,
        run_table1, run_table2, run_table3, run_table4, run_table5, run_table6,
    )

    scale = PAPER if args.scale == "paper" else SMOKE
    runners = {
        "table1": lambda: run_table1(scale).render(),
        "table2": lambda: run_table2(scale).render(),
        "table3": lambda: run_table3(scale).render(),
        "table4": lambda: run_table4(scale).render(),
        "table5": lambda: run_table5(scale).render(),
        "table6": lambda: run_table6(scale).render(),
        "figure5": lambda: run_figure5(scale).render(),
        "figure6": lambda: run_figure6(scale).render(),
        "figure7": lambda: run_figure7(scale).render(),
        "runtime": lambda: run_runtime(scale).render(),
    }
    names = list(runners) if args.artifact == "all" else [args.artifact]
    sections = []
    for name in names:
        print(f"[{name}] running ...", file=sys.stderr)
        sections.append(runners[name]())
    document = "\n\n".join(sections)
    print(document)
    if args.out:
        Path(args.out).write_text(document + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _configure_logging(verbosity: int) -> None:
    level = (
        logging.WARNING if verbosity == 0
        else logging.INFO if verbosity == 1
        else logging.DEBUG
    )
    logging.basicConfig(
        level=level,
        stream=sys.stderr,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    logging.getLogger("repro").setLevel(level)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    _configure_logging(args.verbose)
    try:
        return _dispatch(args)
    except FileNotFoundError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "datasets":
        return _cmd_datasets()
    if args.command == "fit":
        return _cmd_fit(args)
    if args.command == "classify":
        return _cmd_classify(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "batch":
        return _cmd_batch(args)
    if args.command == "convert":
        return _cmd_convert(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "corpus":
        return _cmd_corpus(args)
    if args.command == "diagnose":
        return _cmd_diagnose(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "lint":
        from repro.analysis.cli import run_lint_command

        return run_lint_command(args)
    if args.command == "analyze":
        from repro.analysis.cli import run_analyze_command

        return run_analyze_command(args)
    if args.command == "fuzz":
        from repro.quality.cli import run_fuzz_command

        return run_fuzz_command(args)
    if args.command == "ablate":
        from repro.quality.cli import run_ablate_command

        return run_ablate_command(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
