"""Registry of whole-program passes (``repro analyze``).

The per-file :class:`~repro.analysis.registry.Rule` sees one parsed
file; a :class:`ProgramPass` sees the :class:`~repro.analysis.callgraph.
ProgramModel` built from *every* analyzed file, so it can follow a lock
or a pickled value across function and process boundaries.  Passes
self-register at import time exactly like rules — write a check
function, decorate it, and list the module in ``_BUILTIN_MODULES``,
which is imported the first time the registry is read.

Findings from passes flow through the same suppression, baseline, and
reporting machinery as rule findings: a pass anchors each finding to a
concrete file/line, and a ``# repro-lint: disable=<pass-id>`` at that
site suppresses it.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.callgraph import ProgramModel
    from repro.analysis.findings import Finding

#: A pass takes the whole-program model and yields findings.
PassFunction = Callable[["ProgramModel"], Iterable["Finding"]]


@dataclass(frozen=True)
class ProgramPass:
    """One registered whole-program analysis pass."""

    id: str
    family: str
    description: str
    check: PassFunction


_PASSES: dict[str, ProgramPass] = {}


def register_pass(
    id: str, *, family: str, description: str
) -> Callable[[PassFunction], PassFunction]:
    """Decorator: register ``check`` under ``id``.  Ids must be unique
    across passes *and* rules (they share the suppression namespace)."""

    def decorate(check: PassFunction) -> PassFunction:
        if id in _PASSES:
            raise ValueError(f"duplicate pass id {id!r}")
        _PASSES[id] = ProgramPass(
            id=id, family=family, description=description, check=check
        )
        return check

    return decorate


#: Modules whose import registers the built-in passes.
_BUILTIN_MODULES = ("repro.analysis.locks", "repro.analysis.mmaps", "repro.analysis.spawn")


def _load_builtins() -> None:
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)


def all_passes() -> list[ProgramPass]:
    """Every registered pass, sorted by (family, id)."""
    _load_builtins()
    return sorted(_PASSES.values(), key=lambda p: (p.family, p.id))


def get_pass(pass_id: str) -> ProgramPass:
    _load_builtins()
    try:
        return _PASSES[pass_id]
    except KeyError:
        known = ", ".join(sorted(_PASSES))
        raise KeyError(
            f"unknown pass {pass_id!r}; known passes: {known}"
        ) from None
