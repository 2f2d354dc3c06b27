#!/usr/bin/env python
"""Reach gate: every ``src/repro`` module is reached from an entry point.

Deleting a feature tends to leave its modules behind, still imported by a
package ``__init__``, a test or an example, but by nothing that runs in
production.  This walks the AST from the entry points and fails on every
module it never reaches.  There are no exceptions: a module only tests use
belongs under ``tests/`` (the paper's reference semantics live in
``tests/spec/``).

- **Roots:** ``repro.cli``, ``repro.__main__``, ``repro.engine`` (which
  covers ``Engine``'s public methods) and every ``repro`` module a file
  under ``benchmarks/`` imports.
- **Edges:** every import in a reached module, inside functions too.
  ``from repro.pkg import name`` resolves through ``pkg/__init__.py`` to
  the module that defines ``name``; so does ``pkg.name`` after
  ``import repro.pkg``.  A package ``__init__`` is never walked on its
  own: a re-export reaches nothing until someone imports the name.
- **Failures:** every unreached module.

Run ``python tools/check_reach.py [REPO_ROOT]``; it exits 1 with one line
per problem.  ``tests/test_reach.py`` runs it on this repository.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
ROOT_MODULES = ("repro.cli", "repro.__main__", "repro.engine")


def _modules(src_root):
    """``{dotted name: path}`` for every module and package under ``src_root``."""
    found = {}
    for path in sorted((Path(src_root) / "repro").rglob("*.py")):
        parts = list(path.relative_to(src_root).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        found[".".join(parts)] = path
    return found


def _parse(path):
    return ast.parse(Path(path).read_text(encoding="utf-8"), filename=str(path))


class _Reach:
    """Import resolution over one source tree."""

    def __init__(self, src_root):
        self.modules = _modules(src_root)
        self._exports = {}

    def is_package(self, name):
        return self.modules.get(name, Path()).name == "__init__.py"

    def exports(self, package):
        """``{name: (module, name)}`` for a package ``__init__``'s re-exports."""
        if package not in self._exports:
            table = {}
            for node in _parse(self.modules[package]).body:
                if isinstance(node, ast.ImportFrom):
                    source = _absolute(node, package, True)
                    for alias in node.names:
                        table[alias.asname or alias.name] = (source, alias.name)
            self._exports[package] = table
        return self._exports[package]

    def resolve(self, module, name):
        """The modules that ``from module import name`` reaches."""
        submodule = "%s.%s" % (module, name)
        if submodule in self.modules:
            return self.module(submodule)
        if not self.is_package(module):
            return self.module(module)
        if name in self.exports(module):
            return self.resolve(*self.exports(module)[name])
        return set()

    def module(self, name):
        """``{name}`` for a plain module; a package alone reaches nothing."""
        if name in self.modules and not self.is_package(name):
            return {name}
        return set()

    def targets(self, tree, importer):
        """Every module the imports in ``tree`` reach."""
        reached = set()
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    reached |= self.module(alias.name)
                    if alias.asname:
                        bound[alias.asname] = alias.name
                    else:
                        head = alias.name.partition(".")[0]
                        bound[head] = head
            elif isinstance(node, ast.ImportFrom):
                source = _absolute(node, importer, False)
                for alias in node.names:
                    reached |= self.resolve(source, alias.name)
        for node in ast.walk(tree):
            dotted = _dotted(node)
            if dotted and dotted[0] in bound:
                path = bound[dotted[0]].split(".") + dotted[1:]
                for cut in range(1, len(path)):
                    owner = ".".join(path[:cut])
                    if self.is_package(owner):
                        reached |= self.resolve(owner, path[cut])
        return reached


def _absolute(node, importer, is_package):
    """The absolute module an ``ImportFrom`` names, relative or not."""
    if not node.level:
        return node.module or ""
    base = importer.split(".")
    base = base[: len(base) - node.level + (1 if is_package else 0)]
    return ".".join(base + ([node.module] if node.module else []))


def _dotted(node):
    """``["a", "b", "c"]`` for an ``a.b.c`` attribute load, else ``None``."""
    if not isinstance(node, ast.Attribute):
        return None
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id] + parts[::-1]


def reached(src_root, benchmark_root):
    """Every module the roots reach, transitively."""
    reach = _Reach(src_root)
    pending = {name for name in ROOT_MODULES if name in reach.modules}
    for path in sorted(Path(benchmark_root).rglob("*.py")):
        pending |= reach.targets(_parse(path), "benchmarks")
    seen = set()
    while pending:
        name = pending.pop()
        if name in seen:
            continue
        seen.add(name)
        pending |= reach.targets(_parse(reach.modules[name]), name) - seen
    return reach, seen


def check(src_root, benchmark_root):
    """Every unreached module, as printable strings."""
    reach, seen = reached(src_root, benchmark_root)
    return [
        "%s: repro.%s is reached by no entry point"
        % (path, name.partition(".")[2])
        for name, path in sorted(reach.modules.items())
        if name not in seen and not reach.is_package(name)
    ]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else REPO_ROOT
    problems = check(root / "src", root / "benchmarks")
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print("reach gate: %d problem(s)" % len(problems), file=sys.stderr)
        return 1
    print("reach gate: ok (every src module is reached from an entry point)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
