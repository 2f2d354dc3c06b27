#!/usr/bin/env python
"""Layering gate: query-side code must not import storage internals.

The Engine/Session/Backend split (DESIGN §11) puts every physical concern —
the columnar node table, the inverted index, document statistics — behind
the :class:`repro.backend.StorageBackend` seam.  The query-side packages
(``repro.topk``, ``repro.plans``, ``repro.stats``) may import the backend
package root and the shared id-kernels, but never the concrete storage
classes or modules; a direct import would quietly re-couple the layers and
break every non-default backend.

This script walks the AST of each module under the guarded packages and
fails (exit 1, one line per violation) on:

- ``import``/``from`` of a banned *module* (e.g. ``repro.ir.index``,
  ``repro.backend.memory``, ``repro.xmltree.storage``);
- ``from <anywhere> import <banned name>`` for the concrete storage
  classes (``NodeTable``, ``ColumnarStore``, ``InvertedIndex``,
  ``DocumentStatistics``, ``InMemoryBackend``, ``TagDictionary``,
  ``Posting``, ``ShardedBackend``);
- the reverse direction: modules under ``repro.backend`` (including the
  sharded topology in ``backend/sharded.py``) importing query-side
  packages (``repro.topk``, ``repro.plans``, the engine/session facades,
  ...) — storage must not reach back up;
- the two directions a second copy of the strategies would live in: no
  strategy module (``repro/topk/*.py`` but ``base.py``) reads a shard hook
  (an attribute in :data:`SHARD_HOOKS`: ``x.shards``,
  ``backend.translate_id(...)``, ``backend.keyword_ceilings(...)`` ...)
  — strategies are written against the scatter's sessions, never against
  the topology — and
  ``repro/topk/base.py``, where the context and the scatter live, imports
  nothing else from ``repro.topk``: it supplies sources, it does not wrap
  or re-implement a strategy.  ``topk/base.py`` is a required module;
- one evaluation cache per source: outside ``repro.plans`` only
  :data:`EVAL_CACHE_OWNERS` (the context, which builds one per source,
  and the package's public re-export) import ``repro.plans.eval_cache``
  or an ``EvaluationCache`` re-export — everyone else reads the context's
  ``eval_caches``, so no second cache view over the shards can grow back;
- the data layer: modules under ``repro.xmltree`` (the node table and its
  codec, which ``repro.backend`` builds on) import only ``repro.xmltree.*``,
  ``repro.errors`` and the standard library — no observability plane, no
  storage backend;
- one listener seam: outside ``repro.obs``, only ``repro/session.py`` and
  ``repro/engine.py`` (the entry points that emit ``query_end``) import
  ``repro.obs.events`` — storage, cache and strategy seams report to the
  metrics registry, so no second listener seam can grow back there.

The one sanctioned escape hatch is a module-level ``__getattr__`` (PEP
562): a lazy compatibility re-export may import a moved class inside that
function, because nothing executes it until a caller outside the guarded
packages asks for the name.  (No module uses it today.)

Run directly (``python tools/check_layering.py``) or through the pytest
wrapper in ``tests/test_layering.py``; CI runs both.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Packages that must stay physical-storage-agnostic.
GUARDED_PACKAGES = ("topk", "plans", "stats")

#: Modules the gate must actually have walked, relative to ``repro/``.
#: The plan lowering sits on the guarded side of the seam on purpose (it
#: sees only the statistics protocol, never a storage class), and the
#: scatter's module is the one place the strategy rules exempt; if either
#: file is moved out of a guarded package a guarantee silently lapses, so
#: its absence is itself a violation.
REQUIRED_GUARDED_MODULES = ("plans/lowering.py", "topk/base.py")

#: The one ``repro.topk`` module that may touch the topology.
SCATTER_MODULE = "topk/base.py"

#: Attributes only the scatter may read: the backend's shard list and the
#: sharded backend's hooks, and the context's pool that runs them.
SHARD_HOOKS = frozenset({
    "shards",
    "shard_count",
    "translate_id",
    "keyword_ceilings",
    "thread_pool",
})

#: Modules whose import from guarded code pierces the seam.
BANNED_MODULES = {
    "repro.xmltree.document",
    "repro.xmltree.storage",
    "repro.ir.index",
    "repro.backend.memory",
    "repro.backend.stats",
    "repro.backend.sharded",
}

#: Concrete storage names that must not be imported by name either.
BANNED_NAMES = {
    "NodeTable",
    "ColumnarStore",
    "InvertedIndex",
    "DocumentStatistics",
    "InMemoryBackend",
    "TagDictionary",
    "Posting",
    "ShardedBackend",
}

#: Backend modules guarded code MAY import (the seam itself).
ALLOWED_MODULES = {
    "repro.backend",
    "repro.backend.base",
    "repro.backend.kernels",
}

#: The reverse direction: the storage layer (``repro.backend``, including
#: the sharded coordinator's storage half) sits *below* the Engine/Session
#: split, so it must never import query-side packages back — an upward
#: import would make the layers circular and couple every backend to the
#: planner.  Prefix match: ``repro.topk.dpo`` trips on ``repro.topk``.
BACKEND_BANNED_PREFIXES = (
    "repro.topk",
    "repro.plans",
    "repro.stats",
    "repro.relax",
    "repro.rank",
    "repro.compiled",
    "repro.engine",
    "repro.session",
)


#: The modules outside ``repro.obs`` that may import ``repro.obs.events``,
#: relative to ``repro/``.
EVENT_EMITTERS = ("session.py", "engine.py")

#: The modules outside ``repro.plans`` that may import the evaluation
#: cache, relative to ``repro/``.
EVAL_CACHE_OWNERS = (SCATTER_MODULE, "__init__.py")


def _under(name, package):
    """True for ``package`` itself and any dotted name below it."""
    return (name + ".").startswith(package + ".")


def _walk_guarded(tree):
    """Walk the module AST, skipping module-level ``__getattr__`` bodies."""
    stack = [
        node for node in tree.body
        if not (
            isinstance(node, ast.FunctionDef) and node.name == "__getattr__"
        )
    ]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _module_violations(path, tree):
    """Yield ``(lineno, message)`` for every banned import in one module."""
    for node in _walk_guarded(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in BANNED_MODULES:
                    yield node.lineno, "imports banned module %r" % alias.name
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                # Relative import: resolve against the package the file
                # lives in so "from .storage import X" is caught too.
                parts = path.parts
                anchor = parts[parts.index("repro"): -1]
                base = list(anchor[: len(anchor) - node.level + 1])
                module = ".".join(base + ([module] if module else []))
            if module in BANNED_MODULES:
                yield node.lineno, "imports from banned module %r" % module
                continue
            allowed = module in ALLOWED_MODULES
            for alias in node.names:
                if alias.name in BANNED_NAMES and not allowed:
                    yield (
                        node.lineno,
                        "imports banned name %r from %r" % (alias.name, module),
                    )


def _backend_violations(path, tree):
    """Yield upward imports (storage → query side) in one backend module."""

    def banned(module):
        return any(_under(module, prefix) for prefix in BACKEND_BANNED_PREFIXES)

    for node in _walk_guarded(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if banned(alias.name):
                    yield (
                        node.lineno,
                        "storage layer imports query-side module %r"
                        % alias.name,
                    )
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "repro.backend" + ("." + module if module else "")
            if banned(module):
                yield (
                    node.lineno,
                    "storage layer imports query-side module %r" % module,
                )


def _import_statements(tree):
    """Yield ``(lineno, dotted names)`` per absolute import statement.

    ``from a import b`` names both ``a`` and ``a.b`` — ``b`` may be a
    submodule.
    """
    for node in _walk_guarded(tree):
        if isinstance(node, ast.Import):
            yield node.lineno, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, [node.module] + [
                "%s.%s" % (node.module, alias.name) for alias in node.names
            ]


def _strategy_violations(tree):
    """Yield topology reads in one strategy module (``repro/topk`` but base).

    A strategy that reads a shard hook off an object is how a second,
    sharded copy of its loop would start.  Only attribute reads count: a
    local or parameter that happens to be called ``shards`` reads nothing.
    """
    for node in _walk_guarded(tree):
        if isinstance(node, ast.Attribute) and node.attr in SHARD_HOOKS:
            yield node.lineno, (
                "strategy code reads shard hook %r (only %s may)"
                % (node.attr, SCATTER_MODULE)
            )


def _scatter_violations(tree):
    """Yield imports of another ``repro.topk`` module in the scatter's module.

    ``repro/topk/base.py`` supplies sources to the strategies; naming one
    (``repro.topk.dpo`` ..., or a re-export from the package root) is how a
    second copy of its loop would start.
    """
    for lineno, names in _import_statements(tree):
        if any(
            _under(name, "repro.topk") and not _under(name, "repro.topk.base")
            for name in names
        ):
            yield lineno, "scatter module imports a strategy (nothing from repro.topk)"


def _eval_cache_violations(tree):
    """Yield imports of the evaluation cache in one module outside its owners."""
    for lineno, names in _import_statements(tree):
        if any(
            _under(name, "repro.plans.eval_cache")
            or name.endswith(".EvaluationCache")
            for name in names
        ):
            yield lineno, "imports the evaluation cache (read each source's own)"


def _events_violations(tree):
    """Yield imports of the ``query_end`` seam in one non-emitting module."""
    for lineno, names in _import_statements(tree):
        if any(_under(name, "repro.obs.events") for name in names):
            yield lineno, (
                "imports repro.obs.events (only %s emit query_end)"
                % " and ".join(EVENT_EMITTERS)
            )


def _data_layer_violations(tree):
    """Yield imports from outside the data layer in one ``repro.xmltree`` module."""
    for node in _walk_guarded(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                # ``.x`` is repro.xmltree.x, ``..x`` is repro.x.
                anchor = ["repro", "xmltree"][: 3 - node.level]
                module = ".".join(anchor + ([module] if module else []))
            modules = [module]
        else:
            continue
        for module in modules:
            if _under(module, "repro"):
                allowed = _under(module, "repro.xmltree") or module == "repro.errors"
            else:
                allowed = module.partition(".")[0] in sys.stdlib_module_names
            if not allowed:
                yield node.lineno, "data layer imports %r" % module


def check(src_root):
    """All layering violations under ``src_root`` as printable strings."""
    violations = []
    walked = set()
    for package in GUARDED_PACKAGES:
        for path in sorted((src_root / "repro" / package).rglob("*.py")):
            walked.add(path.relative_to(src_root / "repro").as_posix())
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            found = list(_module_violations(path, tree))
            relative = path.relative_to(src_root / "repro").as_posix()
            if relative == SCATTER_MODULE:
                found.extend(_scatter_violations(tree))
            elif package == "topk":
                found.extend(_strategy_violations(tree))
            for lineno, message in found:
                violations.append("%s:%d: %s" % (path, lineno, message))
    for required in REQUIRED_GUARDED_MODULES:
        if required not in walked:
            violations.append(
                "%s: required guarded module not found under %s"
                % (required, src_root / "repro")
            )
    backend_root = src_root / "repro" / "backend"
    if backend_root.is_dir():
        for path in sorted(backend_root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for lineno, message in _backend_violations(path, tree):
                violations.append("%s:%d: %s" % (path, lineno, message))
    for path in sorted((src_root / "repro" / "xmltree").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for lineno, message in _data_layer_violations(tree):
            violations.append("%s:%d: %s" % (path, lineno, message))
    for path in sorted((src_root / "repro").rglob("*.py")):
        relative = path.relative_to(src_root / "repro").as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found = []
        if not (relative.startswith("obs/") or relative in EVENT_EMITTERS):
            found.extend(_events_violations(tree))
        if not (relative.startswith("plans/") or relative in EVAL_CACHE_OWNERS):
            found.extend(_eval_cache_violations(tree))
        for lineno, message in found:
            violations.append("%s:%d: %s" % (path, lineno, message))
    return violations


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    src_root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    violations = check(src_root)
    for violation in violations:
        print(violation, file=sys.stderr)
    if violations:
        print(
            "layering gate: %d violation(s) — topk/plans/stats must go"
            " through repro.backend" % len(violations),
            file=sys.stderr,
        )
        return 1
    print("layering gate: ok (topk/plans/stats import no storage internals)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
