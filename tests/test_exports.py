"""Every exported name resolves, and the package re-exports only names its modules export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import besselwave

MODULES = [importlib.import_module(f"besselwave.{m.name}") for m in pkgutil.iter_modules(besselwave.__path__)]


def test_every_all_name_resolves():
    missing = [f"{m.__name__}.{name}" for m in MODULES for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert missing == []


def test_package_reexports_are_module_exports():
    tree = ast.parse(Path(besselwave.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    stray = [
        f"besselwave.{node.module}.{alias.name}"
        for node in imports
        for alias in node.names
        if alias.name not in importlib.import_module(f"besselwave.{node.module}").__all__
    ]
    assert stray == []
