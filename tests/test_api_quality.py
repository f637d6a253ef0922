"""Meta tests on the public API: docstrings, exports, importability.

Library-quality guards: everything listed in an ``__all__`` must exist,
be importable, and carry a docstring; the package's public modules must
document themselves.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PUBLIC_PACKAGES = [
    "repro",
    "repro.core",
    "repro.tables",
    "repro.text",
    "repro.embeddings",
    "repro.corpus",
    "repro.baselines",
    "repro.experiments",
]


def _walk_modules() -> list[str]:
    names = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(info.name)
    return names


class TestImportability:
    @pytest.mark.parametrize("name", PUBLIC_PACKAGES)
    def test_packages_import(self, name):
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} has no module docstring"

    def test_every_module_imports(self):
        for name in _walk_modules():
            module = importlib.import_module(name)
            assert module is not None

    def test_every_module_has_docstring(self):
        for name in _walk_modules():
            module = importlib.import_module(name)
            if name.endswith("__main__"):
                continue
            assert module.__doc__, f"{name} has no module docstring"


class TestAllExports:
    @pytest.mark.parametrize("name", PUBLIC_PACKAGES)
    def test_all_entries_resolve(self, name):
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", [])
        for symbol in exported:
            assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol}"

    @pytest.mark.parametrize("name", PUBLIC_PACKAGES)
    def test_exported_objects_documented(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            obj = getattr(module, symbol)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert inspect.getdoc(obj), f"{name}.{symbol} has no docstring"

    def test_public_classes_have_documented_methods(self):
        """Spot-check: the flagship classes document every public method."""
        from repro.core.pipeline import MetadataPipeline
        from repro.core.classifier import MetadataClassifier
        from repro.tables.query import StructuredTable

        for cls in (MetadataPipeline, MetadataClassifier, StructuredTable):
            for name, member in inspect.getmembers(cls, inspect.isfunction):
                if name.startswith("_"):
                    continue
                assert inspect.getdoc(member), f"{cls.__name__}.{name} undocumented"


class TestVersion:
    def test_version_string(self):
        major, minor, patch = repro.__version__.split(".")
        assert all(part.isdigit() for part in (major, minor, patch))


#: Packages whose ``__init__`` imports none of their submodules: the
#: names in ``__all__`` (if any) resolve on first access (PEP 562).
LAZY_PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.connectors",
    "repro.core",
    "repro.corpus",
    "repro.experiments",
    "repro.parallel",
    "repro.quality",
    "repro.serve",
]

_SRC = str(Path(repro.__file__).resolve().parents[1])

_IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
module = __import__(sys.argv[1], fromlist=["_"])
loaded = sorted(m for m in set(sys.modules) - before if m.startswith("repro"))
namespace = {}
exec(f"from {sys.argv[1]} import *", namespace)
print(json.dumps({
    "loaded": loaded,
    "star": sorted(n for n in namespace if n != "__builtins__"),
    "all": sorted(getattr(module, "__all__", [])),
}))
"""


class TestLazyExports:
    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_import_loads_no_submodule_and_star_import_works(self, name):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, name],
            capture_output=True, text=True, timeout=120, check=True,
            env={**os.environ, "PYTHONPATH": _SRC},
        )
        report = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(report["loaded"]) <= {"repro", "repro._lazy", name}
        assert report["star"] == report["all"]

    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_every_exported_name_resolves_to_its_definition(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            value = getattr(module, symbol)
            owner = getattr(value, "__module__", None)
            if owner is not None and owner.startswith("repro."):
                assert getattr(importlib.import_module(owner), symbol) is value

    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_static_declarations_match_all(self, name):
        """The ``if TYPE_CHECKING:`` imports are what ruff and mypy see."""
        module = importlib.import_module(name)
        tree = ast.parse(Path(module.__file__).read_text())
        declared = {
            alias.asname or alias.name
            for node in tree.body
            if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING"
            for stmt in node.body
            if isinstance(stmt, ast.ImportFrom)
            for alias in stmt.names
        }
        exported = set(getattr(module, "__all__", [])) - {"__version__"}
        assert declared == exported

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name
