"""The package surface: each module's __all__, the names relukit re-exports
and README's "Library overview" table agree with the modules themselves."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import relukit

PACKAGE = Path(relukit.__file__).parent
MODULES = sorted(m.name for m in pkgutil.iter_modules(relukit.__path__))


def module(name):
    # importlib, since the attribute relukit.repair is the repair function
    return importlib.import_module(f"relukit.{name}")


def test_every_exported_name_resolves():
    for name in MODULES:
        mod = module(name)
        assert mod.__all__, name
        missing = [n for n in mod.__all__ if not hasattr(mod, n)]
        assert not missing, (name, missing)


def test_reexports_are_in_their_modules_all():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    reexports = [(node.module, alias.name) for node in tree.body
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 for alias in node.names]
    assert reexports
    for mod, name in reexports:
        assert name in module(mod).__all__, (mod, name)
        assert getattr(relukit, name) is getattr(module(mod), name)


def test_readme_library_overview_lists_every_module():
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    section = readme.split("## Library overview", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `relukit\.(\w+)` \|", section, re.MULTILINE)
    assert len(rows) == len(set(rows))
    assert sorted(rows) == MODULES
