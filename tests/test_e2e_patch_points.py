"""The e2e benchmark's patch table must keep finding what it wraps.

``benchmarks/e2e/spans.py`` attributes a query's time to layers by
wrapping the entry points in ``PATCH_POINTS`` from outside; a point it
cannot resolve is dropped and that layer silently reads 0.  This test
resolves every point exactly the way ``SpanRecorder.install`` does and
pins the unresolved set, so a rename fails here instead of in a benchmark
table nobody was looking at.  (``spans.py`` itself is read-only: it
belongs to the benchmark, see ``BENCHMARK.json``.)
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "e2e" / "spans.py"
)

#: Points whose owners no longer exist.  ``repro.sharding`` is deleted:
#: one ``QueryContext`` serves every backend and its sources are plan
#: executors, so a sharded query compiles in ``QueryContext.compile`` and
#: its time is recorded under the ``topk`` / ``rank`` / ``compiled``
#: points that do resolve.  The next ``benchmark``
#: PR re-points ``spans.py``; until then ``sharding.coordinator_self_ms``
#: reads 0.  The two ``StorageBackend`` kernels are deleted and were never
#: called by the executor before that, so dropping their wrappers moves no
#: ``backend.kernels.*`` per-layer number.  ``compile_query`` no longer
#: calls ``closure`` or ``minimize`` (the compiled artifact stored their
#: results and nothing read them), so ``query.closure_us`` and
#: ``query.minimize_us`` read 0 on every workload.  The e2e smoke step in
#: ``.github/workflows/ci.yml`` imports this set to check the traced
#: records' ``meta.unpatched``.
KNOWN_UNPATCHED = {
    "repro.sharding:ShardedQueryContext.compile",
    "repro.sharding.compile_query",
    "repro.sharding:ShardedStrategy.top_k",
    "repro.sharding.rank_answers",
    "repro.backend.base:StorageBackend.semi_join_descendant_ids",
    "repro.backend.base:StorageBackend.twig_filter_ids",
    "repro.compiled.closure",
    "repro.compiled.minimize",
}


def _load_spans():
    spec = importlib.util.spec_from_file_location("e2e_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _unresolved(patch_points):
    """The points ``SpanRecorder.install`` would list under ``unpatched``."""
    missing = set()
    for owner_path, attr, _layer, _fold, _amount in patch_points:
        module_name, _, class_name = owner_path.partition(":")
        try:
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            missing.add("%s.%s" % (owner_path, attr))
    return missing


def test_patch_points_resolve_except_the_known_ones():
    assert _unresolved(_load_spans().PATCH_POINTS) == KNOWN_UNPATCHED


def test_the_resolver_notices_a_missing_point():
    points = (
        ("repro.topk.dpo:DPO", "top_k", "topk", False, None),
        ("repro.topk.dpo:DPO", "no_such_method", "topk", False, None),
        ("repro.topk.dpo", "no_such_function", "rank", False, None),
        ("repro.no_such_module", "anything", "x", False, None),
        ("repro.topk.dpo:NoSuchClass", "top_k", "topk", False, None),
    )
    assert _unresolved(points) == {
        "repro.topk.dpo:DPO.no_such_method",
        "repro.topk.dpo.no_such_function",
        "repro.no_such_module.anything",
        "repro.topk.dpo:NoSuchClass.top_k",
    }
