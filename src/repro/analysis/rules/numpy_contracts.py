"""NumPy contract rules for the numeric hot paths.

Scoped to ``repro.core`` and ``repro.embeddings`` — the packages whose
arrays flow into BLAS kernels and persisted archives, where an implicit
dtype or an exact float comparison is a silent portability/correctness
hazard.  The ``scalar-embed-loop`` rule pins the exact anti-pattern the
vectorized embedding plane removed: per-term ``.vector()`` calls inside
Python loops when the batched ``vectors()``/``batch_vectors()`` API
exists.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import FileContext
from repro.analysis.findings import Finding
from repro.analysis.registry import register_rule
from repro.analysis.rules._ast_util import LOOP_NODES, dotted_name

_SCOPE = ("repro.core", "repro.embeddings")


@register_rule(
    "np-array-dtype",
    family="numpy-contract",
    description=(
        "np.array(...) without an explicit dtype in a hot-path package; "
        "inferred dtypes drift with the input (object arrays, float32 "
        "vs float64) and change BLAS paths and archive layouts"
    ),
    scope=_SCOPE,
)
def check_np_array_dtype(context: FileContext) -> Iterator[Finding]:
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name not in ("np.array", "numpy.array"):
            continue
        if any(kw.arg == "dtype" for kw in node.keywords):
            continue
        yield context.finding(
            "np-array-dtype",
            node,
            f"{name}(...) without an explicit dtype; pass dtype= so the "
            "element type is part of the contract",
        )


def _is_float_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    # Unary minus on a float literal (-1.5) parses as UnaryOp.
    return (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, (ast.USub, ast.UAdd))
        and _is_float_literal(node.operand)
    )


@register_rule(
    "float-equality",
    family="numpy-contract",
    description=(
        "== / != against a float literal; rounding makes exact float "
        "equality flaky — compare against a tolerance (np.isclose, "
        "abs(a - b) < eps) or restructure"
    ),
    scope=_SCOPE,
)
def check_float_equality(context: FileContext) -> Iterator[Finding]:
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, (lhs, rhs) in zip(node.ops, zip(operands, operands[1:])):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_float_literal(lhs) or _is_float_literal(rhs):
                yield context.finding(
                    "float-equality",
                    node,
                    "exact ==/!= against a float literal; use a tolerance "
                    "(np.isclose) or an integer/flag representation",
                )
                break


@register_rule(
    "scalar-embed-loop",
    family="numpy-contract",
    description=(
        "per-term .vector() call inside a Python loop/comprehension; "
        "the batched TermEmbedder.resolve() / backend batch_vectors() "
        "API amortizes id-resolution costs"
    ),
    scope=_SCOPE,
)
def check_scalar_embed_loop(context: FileContext) -> Iterator[Finding]:
    seen: set[int] = set()  # nested loops must not double-report a call
    for loop in ast.walk(context.tree):
        if not isinstance(loop, LOOP_NODES):
            continue
        for node in ast.walk(loop):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "vector"
                and id(node) not in seen
            ):
                seen.add(id(node))
                yield context.finding(
                    "scalar-embed-loop",
                    node,
                    "per-term .vector() inside a loop; batch the lookup "
                    "through vectors()/batch_vectors() instead",
                )
