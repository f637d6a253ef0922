"""Mmap write-safety pass.

The zero-copy model store opens every matrix ``np.load(...,
mmap_mode="r")``: one page-cached copy shared by every worker process.
That sharing is only sound because nobody writes.  An in-place mutation
of an mmap-backed array either crashes (``ValueError: assignment
destination is read-only`` for mode ``"r"``) or — catastrophically for
reproducibility — silently edits the *model file on disk* under every
other worker (for mode ``"r+"``).  Either way the mutation must be
caught before it ships.

Taint sources:

* a call to ``np.load`` / ``numpy.load`` carrying an ``mmap_mode=``
  keyword that is not the literal ``None`` (a variable mode taints
  conservatively — it *may* be mmap at runtime);
* any assignment whose line carries a ``# mmap-backed`` comment — the
  human annotation for arrays that arrive memory-mapped through an
  indirection the dataflow cannot see (directory-store lookups).
  Annotating ``self.x = ...`` taints the attribute for the whole class,
  program-wide;
* a call to a function in the analyzed set whose return value is
  tainted (one level of interprocedural return-taint);
* subscripts/attribute loads of tainted values.

Sinks (flagged on a tainted value ``T``):

* ``T += ...`` / ``T[...] += ...`` (augmented assignment)
* ``T[...] = ...`` (slice/element assignment)
* ``np.<fn>(..., out=T)`` (in-place output argument)
* ``T.sort()`` / ``T.fill()`` / ``T.partition()`` / ``T.put()`` /
  ``T.setflags(write=True)`` / ``T.resize()`` (mutating methods)

Fix pattern: copy before mutating (``arr = arr.copy()``), or keep the
mutation out of the mmap-backed plane entirely.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.callgraph import FunctionInfo, ProgramModel
from repro.analysis.findings import Finding
from repro.analysis.passes import register_pass
from repro.analysis.rules._ast_util import DEFERRED_NODES, dotted_name, self_attr

_MMAP_COMMENT = "mmap-backed"

_MUTATING_METHODS = {
    "sort": "in-place sort",
    "fill": "in-place fill",
    "partition": "in-place partition",
    "put": "in-place element write",
    "itemset": "in-place element write",
    "resize": "in-place resize",
}


def _is_mmap_load(call: ast.Call) -> bool:
    """``np.load(..., mmap_mode=<not None>)``."""
    name = dotted_name(call.func)
    if name is None or name.split(".")[-1] != "load":
        return False
    head = name.split(".")[0]
    if head not in ("np", "numpy"):
        return False
    for keyword in call.keywords:
        if keyword.arg == "mmap_mode":
            value = keyword.value
            if isinstance(value, ast.Constant) and value.value is None:
                return False
            return True
    return False


def _annotated_attrs(model: ProgramModel) -> set[str]:
    """``Class qualname.attr`` for every ``# mmap-backed`` annotated
    ``self.<attr> = ...`` assignment, program-wide."""
    tainted: set[str] = set()
    for cls in model.classes.values():
        for node in ast.walk(cls.node):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            comment = cls.context.comment_near(node.lineno) or ""
            if _MMAP_COMMENT not in comment:
                continue
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                attr = self_attr(target)
                if attr is not None:
                    tainted.add(f"{cls.qualname}.{attr}")
    return tainted


def _tainted_returns(model: ProgramModel) -> set[str]:
    """Functions whose return value is an mmap-backed array: they
    return an ``np.load(mmap_mode=...)`` result directly."""
    tainted: set[str] = set()
    for name, info in model.functions.items():
        for node in ast.walk(info.node):
            if (
                isinstance(node, ast.Return)
                and isinstance(node.value, ast.Call)
                and _is_mmap_load(node.value)
            ):
                tainted.add(name)
                break
    return tainted


class _TaintScan:
    """Per-function taint of local names + program-wide attr taint."""

    def __init__(
        self,
        model: ProgramModel,
        info: FunctionInfo,
        attr_taint: set[str],
        return_taint: set[str],
    ) -> None:
        self.model = model
        self.info = info
        self.attr_taint = attr_taint
        self.return_taint = return_taint
        self.names: set[str] = set()
        self._seed_names()

    def _seed_names(self) -> None:
        """Forward pass: taint local names assigned from taint sources.
        One sweep is enough for straight-line dataflow; loops that
        launder taint through two names are out of scope."""
        for node in ast.walk(self.info.node):
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
                value = node.value
            else:
                continue
            comment = self.info.context.comment_near(node.lineno) or ""
            via_comment = _MMAP_COMMENT in comment
            if via_comment or self.is_tainted(value):
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.names.add(target.id)

    def is_tainted(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Call):
            if _is_mmap_load(node):
                return True
            target = self._resolve(node)
            return target is not None and target in self.return_taint
        if isinstance(node, ast.Name):
            return node.id in self.names
        if isinstance(node, ast.Attribute):
            attr = self_attr(node)
            if attr is not None and self.info.cls is not None:
                return (
                    f"{self.info.cls.qualname}.{attr}" in self.attr_taint
                )
            # x.T / x.real / arrays["k"].base — views share the buffer
            return self.is_tainted(node.value)
        if isinstance(node, ast.Subscript):
            return self.is_tainted(node.value)
        return False

    def _resolve(self, call: ast.Call) -> str | None:
        for site in self.info.calls:
            if site.node is call and site.target is not None:
                return site.target.qualname
        return None

    def describe(self, node: ast.expr) -> str:
        text = dotted_name(node)
        if text is not None:
            return text
        if isinstance(node, ast.Subscript):
            inner = dotted_name(node.value)
            return f"{inner}[...]" if inner else "the subscripted array"
        return "this array"


@register_pass(
    "mmap-write",
    family="numpy-contract",
    description=(
        "in-place mutation (+=, slice assignment, out=, .sort/.fill) "
        "of an array that data-flows from an mmap_mode load or an "
        "'# mmap-backed' annotated attribute; read-only maps crash, "
        "writable maps silently edit the shared model file"
    ),
)
def check_mmap_write(model: ProgramModel) -> Iterator[Finding]:
    attr_taint = _annotated_attrs(model)
    return_taint = _tainted_returns(model)
    for info in model.functions.values():
        scan = _TaintScan(model, info, attr_taint, return_taint)
        if not scan.names and not attr_taint:
            continue
        yield from _check_function(scan)


def _check_function(scan: _TaintScan) -> Iterator[Finding]:
    info = scan.info
    context = info.context

    def finding(node: ast.AST, target: ast.expr, what: str) -> Finding:
        return context.finding(
            "mmap-write",
            node,
            f"{what} of {scan.describe(target)}, which may be "
            "mmap-backed (shared read-only across worker processes); "
            "copy it first (arr.copy()) or route the write elsewhere",
        )

    for node in ast.walk(info.node):
        if isinstance(node, DEFERRED_NODES) and node is not info.node:
            continue
        if isinstance(node, ast.AugAssign):
            root = _subscript_root(node.target)
            if scan.is_tainted(root):
                yield finding(node, root, "augmented assignment")
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and scan.is_tainted(
                    target.value
                ):
                    yield finding(node, target.value, "slice assignment")
        elif isinstance(node, ast.Call):
            yield from _check_call(scan, node, finding)


def _subscript_root(node: ast.expr) -> ast.expr:
    while isinstance(node, ast.Subscript):
        node = node.value
    return node


def _check_call(scan: _TaintScan, node: ast.Call, finding) -> Iterator[Finding]:
    for keyword in node.keywords:
        if keyword.arg == "out" and scan.is_tainted(keyword.value):
            yield finding(node, keyword.value, "out= argument")
    if isinstance(node.func, ast.Attribute):
        method = node.func.attr
        receiver = node.func.value
        if method in _MUTATING_METHODS and scan.is_tainted(receiver):
            yield finding(
                node, receiver, _MUTATING_METHODS[method]
            )
        elif method == "setflags" and scan.is_tainted(receiver):
            for keyword in node.keywords:
                if (
                    keyword.arg == "write"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value
                ):
                    yield finding(node, receiver, "setflags(write=True)")
