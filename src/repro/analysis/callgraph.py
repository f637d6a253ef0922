"""Whole-program model: classes, functions, and a best-effort call graph.

The per-file rules in :mod:`repro.analysis.rules` see one parsed file at
a time, which is exactly the wrong shape for the bugs that have actually
hurt this codebase — the serve submit/collector deadlock and a worker
respawn-vs-unlink race both spanned *functions*.  The
:class:`ProgramModel` built here parses every file once, indexes every
class and function under its dotted qualname, and resolves call sites
well enough for the interprocedural passes (lock order, spawn safety,
mmap taint) to chase a value or a lock across
function boundaries.

Resolution is deliberately heuristic and *under*-approximate: a call we
cannot attribute to exactly one known function produces no edge.  A
missing edge can hide a real bug (acceptable — the per-file rules still
run); a wrong edge would manufacture deadlock cycles out of thin air
(not acceptable).  The heuristics, in order:

* ``self.m(...)`` resolves within the enclosing class, then its bases
  (by name, same program);
* ``f(...)`` resolves to a same-module function, else through the
  importing module's import table (``from mod import f``);
* ``mod.f(...)`` resolves through the importing module's import table;
* ``obj.m(...)`` resolves via the receiver's inferred class — from a
  parameter annotation, a local ``obj = ClassName(...)`` assignment or
  ``obj: ClassName = ...`` annotation, or the return annotation of a
  resolved call — and as a last resort by *unique method name* across
  the whole program (two candidates = unresolved).  A local annotated
  with a class the program does not define (``ex: ThreadPoolExecutor
  = ...``) never falls back to the unique name.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.analysis.context import FileContext
from repro.analysis.rules._ast_util import dotted_name, self_attr

#: Constructor names whose instances must never cross a spawn/pickle
#: boundary.  Matched against the dotted call name's tail, so both
#: ``threading.Lock()`` and ``Lock()`` hit.
UNPICKLABLE_CONSTRUCTORS = {
    "Lock": "a threading lock",
    "RLock": "a threading lock",
    "Condition": "a condition variable",
    "Event": "a threading event",
    "Semaphore": "a semaphore",
    "BoundedSemaphore": "a semaphore",
    "Barrier": "a thread barrier",
    "Thread": "a thread object",
    "Queue": "a queue (holds a lock)",
    "SimpleQueue": "a queue (holds a lock)",
    "LifoQueue": "a queue (holds a lock)",
    "PriorityQueue": "a queue (holds a lock)",
    "open": "an open file handle",
    "socket": "a socket",
    "socketpair": "a socket pair",
    "Tracer": "a tracer (holds a lock and open exporters)",
    "LRUCache": "a memoized cache (holds a lock)",
    "lru_cache": "a memoized cache",
    "ProcessPoolExecutor": "an executor",
    "ThreadPoolExecutor": "an executor",
    "memmap": "a memory-mapped array",
}


@dataclass
class CallSite:
    """One call expression inside a function body."""

    node: ast.Call
    #: Raw dotted text of the callee (``self._route``, ``handle.stats``).
    text: str | None
    #: Resolved target qualname, filled by :meth:`ProgramModel.resolve`.
    target: "FunctionInfo | None" = None


@dataclass
class FunctionInfo:
    """One function or method, addressable by dotted qualname."""

    qualname: str
    module: str | None
    cls: "ClassInfo | None"
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    context: FileContext
    calls: list[CallSite] = field(default_factory=list)

    @property
    def path(self) -> str:
        return self.context.path


@dataclass
class ClassInfo:
    """One class: methods, bases, and what its attributes hold."""

    qualname: str
    module: str | None
    name: str
    node: ast.ClassDef
    context: FileContext
    base_names: list[str] = field(default_factory=list)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: attr -> dotted constructor name assigned in a method body
    #: (``self.x = threading.Lock()`` -> ``{"x": "threading.Lock"}``).
    attr_constructors: dict[str, str] = field(default_factory=dict)
    #: attr -> lock name, from ``# guarded-by: <lock>`` comments.
    guarded_by: dict[str, str] = field(default_factory=dict)


_GUARDED_BY_RE = re.compile(r"guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")


def _constructor_name(value: ast.expr) -> str | None:
    """Dotted name of the constructor when ``value`` is ``Name(...)`` or
    ``mod.Name(...)``; None for anything else."""
    if isinstance(value, ast.Call):
        return dotted_name(value.func)
    return None


class ProgramModel:
    """Every analyzed file, cross-indexed for the program passes."""

    def __init__(self, contexts: Sequence[FileContext]) -> None:
        self.contexts = list(contexts)
        self.by_path: dict[str, FileContext] = {
            c.path: c for c in self.contexts
        }
        self.classes: dict[str, ClassInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        #: bare method/function name -> every FunctionInfo carrying it.
        self._by_name: dict[str, list[FunctionInfo]] = {}
        #: per-module import table: local alias -> dotted module/obj.
        self._imports: dict[str, dict[str, str]] = {}
        for context in self.contexts:
            self._index_file(context)
        for info in self.functions.values():
            self._collect_calls(info)
        self._resolve_all()

    # ------------------------------------------------------------------
    # indexing
    # ------------------------------------------------------------------
    def _module_key(self, context: FileContext) -> str:
        return context.module or context.path

    def imports_for(self, context: FileContext) -> dict[str, str]:
        """``local alias -> dotted name`` import table for one file.

        Passes use this to unify identities across files: ``from
        app.left import LEFT_LOCK`` lets a lock used in ``app.right``
        resolve to its defining module's key.
        """
        return self._imports.get(self._module_key(context), {})

    def _index_file(self, context: FileContext) -> None:
        module = self._module_key(context)
        imports: dict[str, str] = {}
        self._imports[module] = imports
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
        for stmt in context.tree.body:  # type: ignore[attr-defined]
            if isinstance(stmt, ast.ClassDef):
                self._index_class(context, module, stmt)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(context, module, None, stmt)

    def _index_class(
        self, context: FileContext, module: str, node: ast.ClassDef
    ) -> None:
        cls = ClassInfo(
            qualname=f"{module}.{node.name}",
            module=context.module,
            name=node.name,
            node=node,
            context=context,
            base_names=[
                base
                for base_node in node.bases
                if (base := dotted_name(base_node)) is not None
            ],
        )
        self.classes[cls.qualname] = cls
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = self._add_function(context, module, cls, stmt)
                cls.methods[stmt.name] = info
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Assign, ast.AnnAssign)):
                self._index_attr_assignment(context, cls, sub)

    def _index_attr_assignment(
        self,
        context: FileContext,
        cls: ClassInfo,
        node: ast.Assign | ast.AnnAssign,
    ) -> None:
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        value = node.value
        for target in targets:
            attr = self_attr(target)
            if attr is None:
                continue
            if value is not None:
                ctor = _constructor_name(value)
                if ctor is not None:
                    cls.attr_constructors.setdefault(attr, ctor)
            comment = context.comments.get(node.lineno)
            if comment:
                match = _GUARDED_BY_RE.search(comment)
                if match is not None:
                    cls.guarded_by[attr] = match.group(1)

    def _add_function(
        self,
        context: FileContext,
        module: str,
        cls: ClassInfo | None,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> FunctionInfo:
        qualname = (
            f"{cls.qualname}.{node.name}"
            if cls is not None
            else f"{module}.{node.name}"
        )
        info = FunctionInfo(
            qualname=qualname,
            module=context.module,
            cls=cls,
            name=node.name,
            node=node,
            context=context,
        )
        self.functions[qualname] = info
        self._by_name.setdefault(node.name, []).append(info)
        return info

    def _collect_calls(self, info: FunctionInfo) -> None:
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call):
                info.calls.append(
                    CallSite(node=node, text=dotted_name(node.func))
                )

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def _resolve_all(self) -> None:
        for info in self.functions.values():
            locals_ = _infer_local_classes(self, info)
            for site in info.calls:
                site.target = self._resolve_site(info, site, locals_)

    def _resolve_site(
        self,
        caller: FunctionInfo,
        site: CallSite,
        locals_: dict[str, ClassInfo | None],
    ) -> FunctionInfo | None:
        text = site.text
        if text is None:
            return None
        parts = text.split(".")
        if parts[0] == "self" and caller.cls is not None:
            if len(parts) == 2:
                return self._method_on(caller.cls, parts[1])
            return None  # self.a.b(...) — no attribute-chain typing
        if len(parts) == 1:
            module = self._module_key(caller.context)
            found = self.functions.get(f"{module}.{parts[0]}")
            if found is not None:
                return found
            # ``from mod import f`` — the import table maps the local
            # alias to the defining module's dotted name.
            imported = self._imports.get(module, {}).get(parts[0])
            if imported is not None:
                return self.functions.get(imported)
            return None
        if len(parts) == 2:
            head, meth = parts
            # a local variable with an inferred class; None marks a
            # type from outside the program, whose methods stay unresolved
            if head in locals_:
                cls = locals_[head]
                return self._method_on(cls, meth) if cls is not None else None
            # an imported module or class
            imported = self._imports.get(
                self._module_key(caller.context), {}
            ).get(head)
            if imported is not None:
                target = self.functions.get(f"{imported}.{meth}")
                if target is not None:
                    return target
                cls_info = self.classes.get(imported)
                if cls_info is not None:
                    return self._method_on(cls_info, meth)
            # last resort: globally unique method name
            return self._unique_method(meth)
        return None

    def _method_on(self, cls: ClassInfo, name: str) -> FunctionInfo | None:
        found = cls.methods.get(name)
        if found is not None:
            return found
        for base_name in cls.base_names:
            base = self.class_named(base_name.split(".")[-1])
            if base is not None:
                found = self._method_on(base, name)
                if found is not None:
                    return found
        return None

    def _unique_method(self, name: str) -> FunctionInfo | None:
        candidates = self._by_name.get(name, [])
        methods = [c for c in candidates if c.cls is not None]
        if len(methods) == 1:
            return methods[0]
        return None

    def class_named(self, name: str) -> ClassInfo | None:
        """The single program class with this bare name, else None."""
        found = [c for c in self.classes.values() if c.name == name]
        return found[0] if len(found) == 1 else None

    # ------------------------------------------------------------------
    # spawn-safety support: which classes can't cross a pickle boundary
    # ------------------------------------------------------------------
    def unpicklable_classes(self) -> dict[str, str]:
        """``class qualname -> reason`` for classes holding unpicklable
        state (directly or through an attribute of such a class)."""
        reasons: dict[str, str] = {}
        for cls in self.classes.values():
            for attr, ctor in cls.attr_constructors.items():
                tail = ctor.split(".")[-1]
                what = UNPICKLABLE_CONSTRUCTORS.get(tail)
                if what is not None:
                    reasons[cls.qualname] = (
                        f"attribute 'self.{attr}' holds {what}"
                    )
                    break
        # Transitive closure: holding an instance of an unpicklable
        # class is itself unpicklable.  Fixpoint over attr constructors.
        changed = True
        while changed:
            changed = False
            for cls in self.classes.values():
                if cls.qualname in reasons:
                    continue
                for attr, ctor in cls.attr_constructors.items():
                    inner = self.class_named(ctor.split(".")[-1])
                    if inner is not None and inner.qualname in reasons:
                        reasons[cls.qualname] = (
                            f"attribute 'self.{attr}' holds a "
                            f"{inner.name} ({reasons[inner.qualname]})"
                        )
                        changed = True
                        break
        return reasons

    # ------------------------------------------------------------------
    # iteration helpers
    # ------------------------------------------------------------------
    def functions_in(self, context: FileContext) -> Iterator[FunctionInfo]:
        for info in self.functions.values():
            if info.context is context:
                yield info


def _infer_local_classes(
    model: ProgramModel, info: FunctionInfo
) -> dict[str, ClassInfo | None]:
    """Best-effort ``local name -> ClassInfo`` inference inside one
    function: parameter annotations, ``x = ClassName(...)`` assignments,
    ``x: ClassName = ...`` annotations, and ``x = f(...)`` where ``f``'s
    return annotation names a class.  An annotated local whose class the
    program does not define maps to None."""
    out: dict[str, ClassInfo | None] = {}
    args = info.node.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        cls = _class_from_annotation(model, arg.annotation)
        if cls is not None:
            out[arg.arg] = cls
    for node in ast.walk(info.node):
        if isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            out[node.target.id] = _class_from_annotation(
                model, node.annotation
            )
            continue
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        value = node.value
        ctor = _constructor_name(value)
        if ctor is not None:
            cls = model.class_named(ctor.split(".")[-1])
            if cls is not None:
                out[target.id] = cls
                continue
            # x = f(...): follow f's return annotation
            callee = None
            if isinstance(value, ast.Call):
                text = dotted_name(value.func)
                if text is not None and text.startswith("self."):
                    parts = text.split(".")
                    if len(parts) == 2 and info.cls is not None:
                        callee = info.cls.methods.get(parts[1])
            if callee is not None:
                cls = _class_from_annotation(model, callee.node.returns)
                if cls is not None:
                    out[target.id] = cls
    return out


def _class_from_annotation(
    model: ProgramModel, annotation: ast.expr | None
) -> ClassInfo | None:
    """Resolve an annotation expression to a program class, looking
    through ``X | None`` unions and quoted names."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        name = annotation.value.strip().strip('"')
        return model.class_named(name.split(".")[-1].split("[")[0])
    if isinstance(annotation, ast.BinOp) and isinstance(
        annotation.op, ast.BitOr
    ):
        return _class_from_annotation(
            model, annotation.left
        ) or _class_from_annotation(model, annotation.right)
    name = dotted_name(annotation)
    if name is not None and name not in ("None",):
        return model.class_named(name.split(".")[-1])
    return None
