"""Every name a module lists in `__all__` resolves under a star import, and
no module of the package reads another's private names."""
import ast
import importlib
from pathlib import Path

import pytest

import mfnet


@pytest.mark.parametrize("module", ["mfnet", "mfnet.meanfield"])
def test_star_import_resolves_every_exported_name(module):
    namespace: dict = {}
    # A name in `__all__` that the module does not define raises here.
    exec(f"from {module} import *", namespace)
    exported = importlib.import_module(module).__all__
    assert exported and all(name in namespace for name in exported)


PACKAGE = Path(mfnet.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


@pytest.mark.parametrize("module", MODULES)
def test_no_module_reads_a_private_name_of_another(module):
    """Modules share only public names: no `from .x import _name` and no
    `x._name` for a sibling module x."""
    others = set(MODULES) - {module}
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level and node.module in others:
            found += [f"{node.lineno}: from .{node.module} import {a.name}"
                      for a in node.names if _private(a.name)]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in others and _private(node.attr)):
            found.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    assert not found, f"{module}.py reads private names of other modules: {found}"
