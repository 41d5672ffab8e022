"""No unused helpers or tables in `src/`: every function, class and method
that the package defines, and every name a module assigns at its top level,
is used somewhere in it, or is part of its public API.

A name counts as used when the code of `src/ontoarch/` reads it: as a name,
an attribute or an imported name. Assigning it does not count, and neither
do comments, docstrings and tests."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import ontoarch

SRC = Path(ontoarch.__file__).parent


def _definitions(tree: ast.Module) -> list[str]:
    """Module-level functions, classes and assigned names, and the methods of
    those classes. Dunders, such as a module's `__getattr__` or `__all__`, are
    read by Python itself."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for node in tree.body:
        if isinstance(node, defs):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out.extend(item.name for item in node.body if isinstance(item, defs[:2]))
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.extend(n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name))
    return [name for name in out if not (name.startswith("__") and name.endswith("__"))]


def _references(tree: ast.Module) -> Counter:
    refs: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name] += 1
    return refs


def test_every_definition_in_src_is_used_or_public():
    defined: list[tuple[str, str]] = []
    refs: Counter = Counter()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined += [(path.name, name) for name in _definitions(tree)]
        refs += _references(tree)
    assert len(defined) > 100  # the scan found the package
    public = set(ontoarch.__all__)
    unused = sorted(f"{file}: {name}" for file, name in defined if not refs[name] and name not in public)
    assert unused == []
