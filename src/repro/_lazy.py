"""PEP 562 lazy re-exports for package ``__init__`` modules.

A package that re-exports names from its submodules imports every one
of those submodules the moment anything under it is imported, so a
process that only classifies would load the fit, analysis and
experiment code too.  :func:`lazy_exports` builds a module-level
``__getattr__`` that imports a submodule only when one of its exported
names is first read; the package declares the same names under
``if TYPE_CHECKING:`` for static tools.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Callable[[str], Any]:
    """A module ``__getattr__`` resolving ``exports`` on first access.

    ``exports`` maps a submodule to the public names it defines.  A
    resolved value is stored in the package namespace, so later reads
    skip the hook.
    """
    owners = {name: module for module, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    return __getattr__
