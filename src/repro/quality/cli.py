"""CLI verbs for the quality harness: ``repro fuzz`` and ``repro ablate``.

:mod:`repro.cli` declares the two subparsers and imports this module only
when one of the quality verbs runs, so the main entry point loads no
quality code otherwise (matching the ``repro.analysis.cli`` layout).

Exit codes: ``0`` clean, ``1`` the harness found failures (fuzz) or
could not produce a report (ablate), ``2`` usage errors.  The CI
quality job relies on the non-zero exit for any crash/divergence/flip.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import obs


def _list_mutators() -> int:
    from repro.quality.mutators import get_mutators

    for spec in get_mutators():
        print(
            f"{spec.name:20s} [{spec.kind}/{spec.relation}] "
            f"{spec.description}"
        )
    return 0


def _list_components() -> int:
    from repro.quality.ablate import get_components

    for spec in get_components():
        print(f"{spec.name:18s} [{spec.kind}] {spec.description}")
    return 0


class _maybe_tracing:
    """Enable a recording tracer only when ``--trace-out`` was given."""

    def __init__(self, trace_out: str | None) -> None:
        self.trace_out = trace_out
        self._previous: obs.TracerLike | None = None

    def __enter__(self) -> "_maybe_tracing":
        if self.trace_out:
            self._previous = obs.set_tracer(obs.Tracer())
        return self

    def __exit__(self, *exc_info: object) -> None:
        if not self.trace_out:
            return
        tracer = obs.get_tracer()
        spans = tracer.spans()  # type: ignore[attr-defined]
        obs.set_tracer(self._previous)
        obs.write_trace(spans, self.trace_out)
        print(f"wrote {len(spans)} spans to {self.trace_out}", file=sys.stderr)


def run_fuzz_command(args: argparse.Namespace) -> int:
    from repro.quality.ablate import write_report
    from repro.quality.bank import bank_case
    from repro.quality.fuzzer import FuzzConfig, run_fuzz

    if args.list_mutators:
        return _list_mutators()
    mutators = None
    if args.mutators:
        mutators = tuple(
            name.strip() for name in args.mutators.split(",") if name.strip()
        )
    try:
        config = FuzzConfig(
            budget=args.budget,
            seed=args.seed,
            dataset=args.dataset,
            backends=tuple(args.backends) if args.backends else ("hashed",),
            mutators=mutators,
        )
        with _maybe_tracing(args.trace_out):
            report = run_fuzz(config, procs=args.procs)
    except ValueError as exc:
        print(f"repro fuzz: {exc}", file=sys.stderr)
        return 2

    print(report.summary())
    for case in report.failures:
        print(
            f"  case {case.index}: {case.verdict} via {case.mutator} "
            f"on {case.table_name} — {case.detail}"
        )
    if args.bank:
        banked = 0
        for case in report.failures:
            if case.repro is None:
                continue
            if bank_case(case, args.bank, campaign_seed=config.seed):
                banked += 1
        print(f"banked {banked} new fixture(s) under {args.bank}")
    if args.report:
        write_report(report, args.report)
        print(f"wrote fuzz report to {args.report}")
    return 0 if report.ok else 1


def run_ablate_command(args: argparse.Namespace) -> int:
    from repro.quality.ablate import (
        load_ablation_config,
        quick_config,
        run_ablation,
        write_report,
    )

    if args.list_components:
        return _list_components()
    try:
        if args.config and args.quick:
            raise ValueError("--config and --quick are mutually exclusive")
        if args.config:
            config = load_ablation_config(args.config)
        elif args.quick:
            config = quick_config()
        else:
            from repro.quality.ablate import AblationConfig

            config = AblationConfig()
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"repro ablate: {exc}", file=sys.stderr)
        return 2

    with _maybe_tracing(args.trace_out):
        report = run_ablation(config)
    print(report.summary())
    for result in report.results:
        delta = (
            f" Δhmd1={result.delta_hmd1:+.3f}"
            if result.delta_hmd1 is not None
            else ""
        )
        hmd1 = f"{result.hmd1:.3f}" if result.hmd1 is not None else "n/a"
        print(
            f"  {result.backend:10s} {result.component:18s} "
            f"hmd1={hmd1}{delta}"
        )
    if args.report:
        write_report(report, args.report)
        print(f"wrote impact report to {args.report}")
    return 0 if report.baseline_hmd1 is not None else 1
