#!/usr/bin/env python
"""Unused-import gate: every imported name is read, or exported.

A stdlib-only stand-in for ruff's ``F401``: deleting code tends to leave
imports behind, and nothing else in a plain-Python checkout notices.  For
each module under the given roots this walks the AST and reports every
name an ``import`` or ``from ... import`` binds that the module never
reads (no ``Name`` load of it anywhere in the file) and that its
``__all__`` does not list.

Deliberately coarse, so it never flags a real use: one set of read names
per module, whatever the scope; ``import a.b`` binds and is used by ``a``;
``from __future__`` and star imports are skipped.

Run ``python tools/check_imports.py [ROOT ...]`` (default: ``src``,
``tests``, ``benchmarks``, ``tools`` and ``examples`` of this repository);
it exits 1
with one ``path:line: name`` per unused import.  ``tests/test_imports.py``
runs it over the same roots.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_ROOTS = ("src", "tests", "benchmarks", "tools", "examples")


def _bindings(tree):
    """``(name, line)`` for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                yield name, node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _exported(tree):
    """The string entries of a module-level ``__all__ = [...]``."""
    names = set()
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            names.update(
                element.value for element in node.value.elts
                if isinstance(element, ast.Constant)
            )
    return names


def unused_imports(path):
    """``(line, name)`` for each unused import in the module at ``path``."""
    tree = ast.parse(Path(path).read_text(encoding="utf-8"), filename=str(path))
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    kept = read | _exported(tree)
    return sorted(
        (line, name) for name, line in _bindings(tree) if name not in kept
    )


def check(roots):
    """Every unused import under ``roots`` as a ``path:line: name`` string."""
    problems = []
    for root in roots:
        for path in sorted(Path(root).rglob("*.py")):
            for line, name in unused_imports(path):
                problems.append("%s:%d: %s imported but unused" % (path, line, name))
    return problems


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    roots = argv or [REPO_ROOT / root for root in DEFAULT_ROOTS]
    problems = check(roots)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print("%d unused import(s)" % len(problems), file=sys.stderr)
        return 1
    print("import gate: ok (every imported name is read or exported)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
