"""Rule registry.

A rule is a named check over one parsed file.  Rules self-register at
import time via :func:`register_rule`, so adding a rule is: write a
``check`` function, decorate it, import the module from
``repro.analysis.rules``.  That package is imported the first time the
registry is read, so ``import repro.analysis`` loads no rule.

Scoping: most rules only make sense in part of the tree (the NumPy
contracts police hot paths, the determinism rules police the
reproduction-critical packages).  A rule declares dotted module
prefixes in ``scope``; the runner derives each file's module name from
its path and skips out-of-scope files.  Files whose module cannot be
derived (e.g. fixture snippets in a temp directory) are linted by
every rule — fail-open keeps fixtures honest.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.context import FileContext
    from repro.analysis.findings import Finding

#: A check takes the parsed file and yields findings.
CheckFunction = Callable[["FileContext"], Iterable["Finding"]]


@dataclass(frozen=True)
class Rule:
    """One registered lint rule."""

    id: str
    family: str
    description: str
    check: CheckFunction
    scope: tuple[str, ...] = field(default_factory=tuple)

    def applies_to(self, module: str | None) -> bool:
        """Whether this rule runs on ``module`` (fail-open on None)."""
        if not self.scope or module is None:
            return True
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.scope
        )


_REGISTRY: dict[str, Rule] = {}


def register_rule(
    id: str,
    *,
    family: str,
    description: str,
    scope: tuple[str, ...] = (),
) -> Callable[[CheckFunction], CheckFunction]:
    """Decorator: register ``check`` under ``id``.  Ids must be unique."""

    def decorate(check: CheckFunction) -> CheckFunction:
        if id in _REGISTRY:
            raise ValueError(f"duplicate rule id {id!r}")
        _REGISTRY[id] = Rule(
            id=id,
            family=family,
            description=description,
            check=check,
            scope=scope,
        )
        return check

    return decorate


def _load_builtins() -> None:
    importlib.import_module("repro.analysis.rules")


def all_rules() -> list[Rule]:
    """Every registered rule, sorted by (family, id)."""
    _load_builtins()
    return sorted(_REGISTRY.values(), key=lambda r: (r.family, r.id))


def get_rule(rule_id: str) -> Rule:
    _load_builtins()
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown rule {rule_id!r}; known rules: {known}") from None
