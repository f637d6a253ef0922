"""The ``repro lint`` and ``repro analyze`` subcommands.

``repro.cli`` declares the two subparsers, so building the argument
parser imports no analysis code; the runners, exit codes and reporters
live here.

``lint`` runs the per-file rules; ``analyze`` runs the whole-program
passes (call graph, lock order, spawn safety, mmap writes);
``lint --deep`` runs both over one parse of the tree.

Exit codes: 0 clean (modulo baseline/suppressions), 1 findings (or
stale baseline entries under ``--check-stale``), 2 usage or I/O error.
The text reporter's summary line always ends with the verdict
(``-- ok`` / ``-- FAIL (...)``) so the output and the exit code can
never tell different stories.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.baseline import Baseline
from repro.analysis.passes import all_passes
from repro.analysis.registry import all_rules
from repro.analysis.reporters import render_json, render_text
from repro.analysis.runner import (
    LintReport,
    analyze_paths,
    lint_paths,
    select_passes,
    select_rules,
)

def _list_rules() -> int:
    for rule in all_rules():
        scope = ", ".join(rule.scope) if rule.scope else "whole tree"
        print(f"{rule.id}  [{rule.family}]  (scope: {scope})")
        print(f"    {rule.description}")
    return 0


def _list_passes() -> int:
    for program_pass in all_passes():
        print(f"{program_pass.id}  [{program_pass.family}]")
        print(f"    {program_pass.description}")
    return 0


def _split(raw: str | None) -> list[str] | None:
    return raw.split(",") if raw else None


def _load_baseline(args: argparse.Namespace) -> Baseline | None | int:
    """The baseline to use, ``None`` to skip, or an exit code on error."""
    if args.no_baseline or args.write_baseline:
        return None
    try:
        return Baseline.load(Path(args.baseline))
    except ValueError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


def _emit(args: argparse.Namespace, report: LintReport) -> int:
    if args.write_baseline:
        written = Baseline.from_findings(
            report.findings, path=Path(args.baseline)
        ).save()
        print(
            f"wrote {len(report.findings)} finding(s) to {written}",
            file=sys.stderr,
        )
        return 0
    stale_fails = bool(args.check_stale and report.stale_baseline)
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report, show_baselined=args.show_baselined))
        if stale_fails:
            for entry in report.stale_baseline:
                print(
                    f"stale baseline entry: {entry['rule']} at "
                    f"{entry['path']} ({entry.get('content', '')!r}) "
                    "matches nothing — remove it",
                    file=sys.stderr,
                )
    if not report.ok:
        return 1
    return 1 if stale_fails else 0


def run_lint_command(args: argparse.Namespace) -> int:
    if args.list_rules:
        return _list_rules()
    try:
        rules = select_rules(
            select=_split(args.select), ignore=_split(args.ignore)
        )
    except KeyError as exc:
        print(f"repro lint: {exc.args[0]}", file=sys.stderr)
        return 2

    baseline = _load_baseline(args)
    if isinstance(baseline, int):
        return baseline

    if args.deep:
        report = analyze_paths(
            args.paths, baseline=baseline, rules=rules, with_rules=True
        )
    else:
        report = lint_paths(args.paths, baseline=baseline, rules=rules)
    if report.errors and report.n_files == 0:
        for message in report.errors:
            print(f"repro lint: {message}", file=sys.stderr)
        return 2
    return _emit(args, report)


def run_analyze_command(args: argparse.Namespace) -> int:
    if args.list_passes:
        return _list_passes()
    try:
        passes = select_passes(
            select=_split(args.select), ignore=_split(args.ignore)
        )
    except KeyError as exc:
        print(f"repro analyze: {exc.args[0]}", file=sys.stderr)
        return 2

    baseline = _load_baseline(args)
    if isinstance(baseline, int):
        return baseline

    report = analyze_paths(args.paths, baseline=baseline, passes=passes)
    if report.errors and report.n_files == 0:
        for message in report.errors:
            print(f"repro analyze: {message}", file=sys.stderr)
        return 2
    return _emit(args, report)
