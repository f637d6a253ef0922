"""Spawn-boundary pickle-safety pass.

Everything shipped into a spawned process is pickled: the ``spawn``
start method (the only one this codebase uses — see
``repro.parallel.pool``) rebuilds worker
state from pickled bytes, so a ``threading.Lock``, an open file, a
tracer, or a memoized cache smuggled inside an argument either crashes
the spawn with ``TypeError: cannot pickle`` or — worse for the
reproduction — silently re-creates thread-local state in the child and
diverges from the parent.

The pass walks every spawn boundary in the analyzed file set:

* ``ProcessPoolExecutor(initializer=..., initargs=(...))``
* ``Process(target=..., args=(...), kwargs={...})`` (plain or via a
  ``multiprocessing.get_context("spawn")`` context)
* ``<executor>.submit(fn, ...)`` where the receiver looks like a pool
  or executor

and flags, per shipped value:

* ``lambda`` expressions and functions nested inside another function —
  spawn pickles callables *by reference*, so these fail outright;
* bound methods (``self.method``) and ``self`` itself when the
  enclosing class transitively holds unpicklable state;
* names and attributes whose class (inferred from the call graph's
  constructor/annotation index) transitively holds a lock, tracer,
  open file, socket, queue, or memoized cache.

Class "unpicklability" is the transitive closure computed by
:meth:`ProgramModel.unpicklable_classes`: a class is tainted when any
attribute assigned in its body constructs one of
:data:`~repro.analysis.callgraph.UNPICKLABLE_CONSTRUCTORS`, or holds an
instance of another tainted class.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.callgraph import (
    FunctionInfo,
    ProgramModel,
    UNPICKLABLE_CONSTRUCTORS,
    _infer_local_classes,
)
from repro.analysis.findings import Finding
from repro.analysis.passes import register_pass
from repro.analysis.rules._ast_util import dotted_name, self_attr

#: Receivers whose ``.submit``/``.map`` ship work across processes.
_POOLISH = re.compile(r"executor|pool|procs", re.IGNORECASE)

#: Constructor tails that open a spawn boundary.
_SPAWN_CONSTRUCTORS = {"ProcessPoolExecutor", "Process"}


def _nested_function_names(info: FunctionInfo) -> set[str]:
    """Names of functions defined *inside* this function's body."""
    nested: set[str] = set()
    for node in ast.walk(info.node):
        if node is info.node:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested.add(node.name)
    return nested


class _SpawnChecker:
    """Shared value-classification for every spawn boundary kind."""

    def __init__(self, model: ProgramModel) -> None:
        self.model = model
        self.unpicklable = model.unpicklable_classes()

    def reason_for(
        self, value: ast.expr, info: FunctionInfo,
        locals_: dict, nested: set[str],
    ) -> str | None:
        """Why ``value`` must not cross a spawn boundary, or None."""
        if isinstance(value, ast.Lambda):
            return "a lambda (spawn pickles callables by reference)"
        if isinstance(value, ast.Name):
            if value.id in nested:
                return (
                    f"nested function {value.id!r} (spawn pickles "
                    "callables by reference; hoist it to module level)"
                )
            cls = locals_.get(value.id)
            if cls is not None and cls.qualname in self.unpicklable:
                return (
                    f"a {cls.name} instance — {self.unpicklable[cls.qualname]}"
                )
            if value.id == "self" and info.cls is not None:
                reason = self.unpicklable.get(info.cls.qualname)
                if reason is not None:
                    return f"'self' ({info.cls.name}: {reason})"
            return None
        if isinstance(value, ast.Attribute):
            attr = self_attr(value)
            if attr is None or info.cls is None:
                return None
            if attr in info.cls.methods:
                return (
                    f"bound method self.{attr} (pickling it drags the "
                    f"whole {info.cls.name} instance across the spawn)"
                )
            ctor = info.cls.attr_constructors.get(attr)
            if ctor is None:
                return None
            tail = ctor.split(".")[-1]
            what = UNPICKLABLE_CONSTRUCTORS.get(tail)
            if what is not None:
                return f"self.{attr}, which holds {what}"
            inner = self.model.class_named(tail)
            if inner is not None and inner.qualname in self.unpicklable:
                return (
                    f"self.{attr}, a {inner.name} instance — "
                    f"{self.unpicklable[inner.qualname]}"
                )
            return None
        if isinstance(value, (ast.Tuple, ast.List)):
            for element in value.elts:
                reason = self.reason_for(element, info, locals_, nested)
                if reason is not None:
                    return reason
            return None
        if isinstance(value, ast.Starred):
            return self.reason_for(value.value, info, locals_, nested)
        return None

    def callable_reason(
        self, value: ast.expr, info: FunctionInfo, nested: set[str]
    ) -> str | None:
        """Stricter check for ``target=``/``initializer=`` callables."""
        if isinstance(value, ast.Lambda):
            return "a lambda (spawn pickles callables by reference)"
        if isinstance(value, ast.Name) and value.id in nested:
            return (
                f"nested function {value.id!r} (spawn pickles callables "
                "by reference; hoist it to module level)"
            )
        attr = self_attr(value)
        if attr is not None and info.cls is not None:
            return (
                f"bound method self.{attr} (pickling it drags the whole "
                f"{info.cls.name} instance — and its locks — across "
                "the spawn)"
            )
        return None


def _annotation_text(annotation: ast.expr | None) -> str | None:
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        return annotation.value
    return dotted_name(annotation)


def _is_process_pool(info: FunctionInfo, receiver: str) -> bool:
    """Constructor/annotation evidence that ``receiver`` is a
    ``ProcessPoolExecutor`` (``.submit`` on a *thread* pool ships
    nothing across a pickle boundary and must not be flagged)."""
    parts = receiver.split(".")
    if parts[0] == "self" and len(parts) == 2 and info.cls is not None:
        ctor = info.cls.attr_constructors.get(parts[1])
        return (
            ctor is not None
            and ctor.split(".")[-1] == "ProcessPoolExecutor"
        )
    if len(parts) == 1:
        name = parts[0]
        args = info.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.arg == name:
                text = _annotation_text(arg.annotation)
                if text is not None and "ProcessPoolExecutor" in text:
                    return True
        for node in ast.walk(info.node):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == name
                and isinstance(node.value, ast.Call)
            ):
                ctor = dotted_name(node.value.func)
                if (
                    ctor is not None
                    and ctor.split(".")[-1] == "ProcessPoolExecutor"
                ):
                    return True
    return False


def _spawn_call_kind(call: ast.Call, info: FunctionInfo) -> str | None:
    """Which spawn boundary this call opens, if any."""
    text = dotted_name(call.func)
    if text is None:
        return None
    tail = text.split(".")[-1]
    if tail in _SPAWN_CONSTRUCTORS:
        return tail
    if tail == "submit":
        receiver = text.rsplit(".", 1)[0]
        if _POOLISH.search(receiver) and _is_process_pool(info, receiver):
            return "submit"
    return None


@register_pass(
    "spawn-unsafe-arg",
    family="concurrency",
    description=(
        "a value shipped into a spawned worker (Process args, "
        "ProcessPoolExecutor initargs, pool submit) is a lambda, a "
        "nested function, a bound method, or an object transitively "
        "holding a lock/tracer/open file/cache — it cannot be pickled, "
        "or rebuilds thread-local state in the child"
    ),
)
def check_spawn_unsafe_arg(model: ProgramModel) -> Iterator[Finding]:
    checker = _SpawnChecker(model)
    for info in model.functions.values():
        nested = _nested_function_names(info)
        locals_ = _infer_local_classes(model, info)
        for site in info.calls:
            kind = _spawn_call_kind(site.node, info)
            if kind is None:
                continue
            yield from _check_boundary(
                checker, info, site.node, kind, locals_, nested
            )


def _check_boundary(
    checker: _SpawnChecker,
    info: FunctionInfo,
    call: ast.Call,
    kind: str,
    locals_: dict,
    nested: set[str],
) -> Iterator[Finding]:
    context = info.context

    def finding(node: ast.expr, reason: str, what: str) -> Finding:
        return context.finding(
            "spawn-unsafe-arg",
            node,
            f"{what} ships {reason} across the spawn boundary; pass "
            "plain data (paths, strings, numbers) and rebuild stateful "
            "objects inside the worker",
        )

    if kind == "submit":
        if call.args:
            reason = checker.callable_reason(call.args[0], info, nested)
            if reason is not None:
                yield finding(call.args[0], reason, "submit target")
        for value in call.args[1:]:
            reason = checker.reason_for(value, info, locals_, nested)
            if reason is not None:
                yield finding(value, reason, "submit argument")
        return
    for keyword in call.keywords:
        value = keyword.value
        if keyword.arg in ("initializer", "target"):
            reason = checker.callable_reason(value, info, nested)
            if reason is not None:
                yield finding(value, reason, f"{keyword.arg}=")
        elif keyword.arg in ("initargs", "args"):
            reason = checker.reason_for(value, info, locals_, nested)
            if reason is not None:
                yield finding(value, reason, f"{keyword.arg}=")
        elif keyword.arg == "kwargs" and isinstance(value, ast.Dict):
            for dict_value in value.values:
                reason = checker.reason_for(
                    dict_value, info, locals_, nested
                )
                if reason is not None:
                    yield finding(dict_value, reason, "kwargs=")
