"""Every import of a hololink module is at module level and used by that
module, and every module-level private name is referenced by some module.

The package's __init__ is left out of the unused-import check: its
imports are its public names.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hololink"
ALL_MODULES = sorted(SRC.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def _imported_names(tree):
    """(name, line) for each name a top-level import statement binds."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{path.name}:{line}: {name}"
              for name, line in _imported_names(tree) if name not in used]
    assert not unused, unused


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.name for p in ALL_MODULES])
def test_module_imports_only_at_module_level(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    nested = [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
              for func in ast.walk(tree)
              if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(func)
              if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not nested, nested


def _private_definitions(tree):
    """(name, line) for each module-level def, class or assignment target
    whose name starts with an underscore, dunders excepted."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            names = []
        for name in names:
            if name.startswith("_") and not (name.startswith("__")
                                             and name.endswith("__")):
                yield name, node.lineno


def test_every_private_name_is_referenced():
    # a helper that no module reads any more is dead code: a loaded name or
    # an attribute of that name anywhere in the package counts as a use
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in SRC.glob("*.py")}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [f"{name}:{line}: {private}"
              for name, tree in sorted(trees.items())
              for private, line in _private_definitions(tree)
              if private not in used]
    assert not unused, unused
