"""Outside-in spans for the traced run.

Nothing under ``src/`` records where a query's time goes in the layer
vocabulary the benchmark reports, so the traced run wraps each layer's
public entry points from here, by attribute assignment, and restores them
afterwards.  A wrapper times the call and keeps a :class:`Span` record in
memory.  Because wrappers nest, a span's self time is ``busy_ns -
child_ns`` and the self times under a root span sum to it.

Two departures from one-record-per-call, both to keep tracing itself
inside the stated overhead (``trace_overhead_ratio`` <= 1.5):

- the per-tuple probes (IR engine, id kernels) are *folded*: all calls of
  one function under one parent span become one record carrying their
  count and summed time;
- shard plans run on the coordinator's thread pool, so their spans hang
  off the coordinator span that was open when they started, and the time
  they cover is taken off the coordinator's self time as one interval
  union (two shards running together are not counted twice).
"""

import importlib
import itertools
import json
import statistics
import threading
from collections import defaultdict, namedtuple
from time import perf_counter_ns

# ``id`` is None for a folded record (``count`` calls summed into one);
# ``op`` is the benchmark op the span belongs to; ``amount`` is what the
# patch point's ``amount`` function read off the call (ids, bytes, levels).
Span = namedtuple("Span", "id parent op main_thread name layer start_ns end_ns "
                          "busy_ns child_ns count amount")
# What a finished query's TopKResult says about its evaluation.
OpCounts = namedtuple("OpCounts", "levels restarts tuples_produced "
                                  "tuples_pruned shard_rounds shards_pruned")


def _levels(args, result):
    return len(result)  # CompiledQuery: relaxation levels beyond the original


def _bytes(args, result):
    return len(args[0])  # parse(text)


def _join_ids(args, result):
    return len(args[1]) + len(args[2])  # (self, ancestor_ids, descendant_ids, ...)


def _twig_ids(args, result):
    return sum(len(pool) for pool in args[1].values())  # (self, pools, ...)


def _per_descendant_ids(args, result):
    return len(args[1]) + len(args[3])  # (self, ancestor_ids, values, descendant_ids)


# (owner, attribute, layer, fold, amount).  An owner is "module" for a name
# bound in that module's namespace or "module:Class" for a method; a name a
# module imported with ``from x import f`` is patched where it is *used*.
_BACKEND = "repro.backend.base:StorageBackend"
PATCH_POINTS = (
    ("repro.session:Session", "query", "session", False, None),
    ("repro.cache:ResultCache", "get", "cache", False, None),
    ("repro.cache:ResultCache", "put", "cache", False, None),
    ("repro.session", "coerce_query", "query", False, None),
    ("repro.compiled", "closure", "query", False, None),
    ("repro.compiled", "minimize", "query", False, None),
    ("repro.topk.base:QueryContext", "compile", "compiled", False, _levels),
    ("repro.sharding:ShardedQueryContext", "compile", "compiled", False, _levels),
    ("repro.topk.base", "compile_query", "compiled", False, None),
    ("repro.sharding", "compile_query", "compiled", False, None),
    ("repro.relax.steps:RelaxationSchedule", "__init__", "relax", False, None),
    ("repro.topk.dpo:DPO", "top_k", "topk", False, None),
    ("repro.topk.sso:SSO", "top_k", "topk", False, None),  # Hybrid inherits it
    ("repro.sharding:ShardedStrategy", "top_k", "sharding", False, None),
    ("repro.plans.executor:PlanExecutor", "run", "plans", False, None),
    ("repro.topk.dpo", "rank_answers", "rank", False, None),
    ("repro.topk.sso", "rank_answers", "rank", False, None),
    ("repro.sharding", "rank_answers", "rank", False, None),
    (_BACKEND, "structural_join_ids", "backend.kernels", True, _join_ids),
    (_BACKEND, "semi_join_ancestor_ids", "backend.kernels", True, _join_ids),
    (_BACKEND, "semi_join_descendant_ids", "backend.kernels", True, _join_ids),
    (_BACKEND, "twig_filter_ids", "backend.kernels", True, _twig_ids),
    (_BACKEND, "max_value_per_ancestor", "backend.kernels", True, _join_ids),
    (_BACKEND, "max_value_per_descendant", "backend.kernels", True, _per_descendant_ids),
    ("repro.ir.engine:IREngine", "most_specific_matches", "ir", True, None),
    ("repro.ir.engine:IREngine", "score", "ir", True, None),
    ("repro.ir.engine:IREngine", "satisfies", "ir", True, None),
    ("repro.ir.engine:IREngine", "count_satisfying", "ir", True, None),
    ("repro.ir.engine:IREngine", "extend", "ir", False, None),
    ("repro.backend.stats:DocumentStatistics", "extend", "stats", False, None),
    ("repro", "parse", "xmltree", False, _bytes),
    ("repro.collection:Corpus", "add_document", "collection", False, None),
    ("repro.backend.disk:DiskBackend", "add_document", "backend.disk", False, None),
    ("repro.backend.disk:DiskBackend", "open", "backend.disk", False, None),
    ("repro.backend.disk:DiskBackend", "create", "backend.disk", False, None),
    ("repro.backend.disk:DiskBackend", "compact", "backend.disk", False, None),
    ("repro.backend.sharded:ShardedBackend", "add_document", "backend.sharded", False, None),
    ("repro.backend.sharded:ShardedBackend", "open", "backend.sharded", False, None),
)


class NullRecorder:
    """What the untraced run passes where the traced run passes a recorder."""

    enabled = False

    def begin(self, kind):
        pass

    def note(self, result):
        pass


class SpanRecorder:
    """Installs the wrappers, holds the records, writes them out."""

    enabled = True

    def __init__(self):
        self.records = []
        self.op_kinds = []  # op id -> "query" | "ingest" | "reopen" | ...
        self.op_results = {}  # op id -> counts read off the TopKResult
        self.unpatched = []  # patch points this checkout does not have
        self._op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_open = None  # innermost span open on the main thread
        self._restore = []

    # -- op boundaries (called by the workloads, outside timed windows) -------

    def begin(self, kind):
        """Start the next op; spans recorded from now on belong to it."""
        self._op = len(self.op_kinds)
        self.op_kinds.append(kind)

    def note(self, result):
        """Keep the counts a finished query's result carries."""
        self.op_results[self._op] = OpCounts(
            result.levels_evaluated,
            result.restarts,
            sum(stats.tuples_produced for stats in result.stats),
            sum(stats.tuples_pruned for stats in result.stats),
            result.shard_rounds,
            result.shards_pruned,
        )

    # -- install / restore ------------------------------------------------------

    def install(self):
        for owner_path, attr, layer, fold, amount in PATCH_POINTS:
            module_name, _, class_name = owner_path.partition(":")
            try:
                owner = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name)
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                # A later refactor moved or removed it: the layer reads 0
                # and the result names what was skipped.
                self.unpatched.append("%s.%s" % (owner_path, attr))
                continue
            name = "%s.%s" % (class_name, attr) if class_name else attr
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(
                    self._wrap(raw.__func__, name, layer, fold, amount)
                )
            else:
                wrapped = self._wrap(raw, name, layer, fold, amount)
            setattr(owner, attr, wrapped)
            self._restore.append((owner, attr, raw))

    def uninstall(self):
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _wrap(self, fn, name, layer, fold, amount):
        recorder = self
        records = self.records
        stack_of = self._stack
        next_id = self._ids.__next__
        clock = perf_counter_ns
        main_thread = self._main_thread
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            stack = stack_of()
            on_main = get_ident() == main_thread
            if stack:
                parent = stack[-1][0]
            else:
                parent = None if on_main else recorder._main_open
            span_id = next_id()
            frame = [span_id, 0, {}]
            stack.append(frame)
            if on_main:
                recorder._main_open = span_id
            units = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if amount is not None:
                    units = amount(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                if on_main:
                    recorder._main_open = parent
                op = recorder._op
                records.append(Span(span_id, parent, op, on_main, name, layer,
                                    start, end, end - start, frame[1], 1, units))
                for folded_name, entry in frame[2].items():
                    records.append(
                        Span(None, span_id, op, on_main, folded_name, *entry))

        def folded(*args, **kwargs):
            stack = stack_of()
            if not stack:  # a probe outside every span (set-up touches)
                return fn(*args, **kwargs)
            owner = stack[-1]
            frame = [owner[0], 0, owner[2]]  # nested spans report to the owner
            stack.append(frame)
            units = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if amount is not None:
                    units = amount(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                owner[1] += end - start
                entry = owner[2].get(name)
                if entry is None:
                    # Span's fields from ``layer`` on
                    owner[2][name] = [layer, start, end, end - start,
                                      frame[1], 1, units]
                else:
                    entry[2] = end
                    entry[3] += end - start
                    entry[4] += frame[1]
                    entry[5] += 1
                    entry[6] += units

        return folded if fold else traced

    # -- output -----------------------------------------------------------------

    def write(self, path):
        """One JSON object per record, in the order spans closed."""
        with open(path, "w") as handle:
            for record in self.records:
                row = record._asdict()
                row["kind"] = self.op_kinds[record.op] if record.op >= 0 else None
                handle.write(json.dumps(row))
                handle.write("\n")

    # -- aggregation -------------------------------------------------------------

    def _scatter_runs(self):
        """Plan runs on scatter threads, by the coordinator span they hang off."""
        main_ids = {record.id for record in self.records if record.main_thread}
        runs = defaultdict(list)
        for record in self.records:
            if (not record.main_thread and record.id is not None
                    and record.parent in main_ids):
                runs[record.parent].append(record)
        return runs

    def per_op(self, kind):
        """Self time and counts per op of ``kind``, by layer and by span name.

        Returns ``(layers, names, ops)``: ``layers[op][layer]`` is self ns;
        ``names[op][name]`` is ``[self_ns, count, amount]``; ``ops`` lists
        the op ids of that kind in order.
        """
        scattered = {
            parent: covered_ns([(run.start_ns, run.end_ns) for run in runs])
            for parent, runs in self._scatter_runs().items()
        }
        ops = [op for op, op_kind in enumerate(self.op_kinds) if op_kind == kind]
        layers = {op: defaultdict(int) for op in ops}
        names = {op: defaultdict(lambda: [0, 0, 0]) for op in ops}
        for record in self.records:
            if record.op not in layers:
                continue
            self_ns = record.busy_ns - record.child_ns - scattered.get(record.id, 0)
            layers[record.op][record.layer] += self_ns
            entry = names[record.op][record.name]
            entry[0] += self_ns
            entry[1] += record.count
            entry[2] += record.amount or 0
        return layers, names, ops

    def shard_runs(self, ops):
        """Per op: (summed ns, covered ns) of plan runs on scatter threads."""
        by_op = defaultdict(list)
        for runs in self._scatter_runs().values():
            for run in runs:
                by_op[run.op].append((run.start_ns, run.end_ns))
        return [
            (sum(end - start for start, end in by_op[op]), covered_ns(by_op[op]))
            for op in ops
        ]


def covered_ns(intervals):
    """Length of the union of ``(start, end)`` intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


EVALUATIONS = ("DPO.top_k", "SSO.top_k", "ShardedStrategy.top_k")
KERNELS = tuple(
    "StorageBackend." + attr
    for owner, attr, layer, _fold, _amount in PATCH_POINTS
    if layer == "backend.kernels"
)
PROBES = tuple(
    "IREngine." + attr
    for owner, attr, layer, fold, _amount in PATCH_POINTS
    if layer == "ir" and fold
)


def layer_metrics(recorder, per_query_op, speed):
    """The per-layer metrics that come from spans (README has the table).

    ``per_query_op`` is ``recorder.per_op("query")``; ``speed`` scales
    every time to reference speed, like the end-to-end timings
    (``workloads.speed_kernel``).

    Times are the mean over *all* query ops of the layer's self time in
    that op — means add up, so the layers sum to the mean query latency; a
    median would read 0 for every layer fewer than half the ops reach.
    Counts are means over the query ops that were evaluated (reached a
    ``top_k``): they repeat exactly for a seed and do not depend on how
    long the run was.
    """
    layers, names, ops = per_query_op

    def layer_ns(layer):
        return speed * mean([layers[op].get(layer, 0) for op in ops])

    def name_ns(name):
        return speed * mean([names[op][name][0] if name in names[op] else 0
                             for op in ops])

    def total(op_names, field):
        return sum(names[op][name][field]
                   for op in ops for name in op_names if name in names[op])

    evaluated = [op for op in ops if any(name in names[op] for name in EVALUATIONS)]
    results = [recorder.op_results[op] for op in evaluated
               if op in recorder.op_results]
    per_query = (lambda value: value / len(evaluated)) if evaluated else (lambda value: 0.0)
    compiles = ("QueryContext.compile", "ShardedQueryContext.compile")
    shard_runs = recorder.shard_runs(ops)
    pruned = sum(result.shards_pruned for result in results)
    shard_plans = sum(result.levels for result in results if result.shard_rounds)
    metrics = {
        "session.self_us": layer_ns("session") / 1e3,
        "cache.result_get_us": name_ns("ResultCache.get") / 1e3,
        "query.closure_us": name_ns("closure") / 1e3,
        "query.minimize_us": name_ns("minimize") / 1e3,
        "compiled.compile_ms": layer_ns("compiled") / 1e6,
        "relax.schedule_ms": layer_ns("relax") / 1e6,
        "relax.levels_per_query": (
            total(compiles, 2) / total(compiles, 1) if total(compiles, 1) else 0.0),
        "topk.self_ms": layer_ns("topk") / 1e6,
        "topk.levels_evaluated": mean([result.levels for result in results]),
        "topk.restarts": mean([result.restarts for result in results]),
        "rank.self_ms": layer_ns("rank") / 1e6,
        "plans.run_ms": layer_ns("plans") / 1e6,
        "plans.runs_per_query": per_query(total(("PlanExecutor.run",), 1)),
        "plans.tuples_produced": mean([result.tuples_produced for result in results]),
        "plans.tuples_pruned": mean([result.tuples_pruned for result in results]),
        "backend.kernels.self_ms": layer_ns("backend.kernels") / 1e6,
        "backend.kernels.calls_per_query": per_query(total(KERNELS, 1)),
        "backend.kernels.ids_in_per_call": (
            total(KERNELS, 2) / total(KERNELS, 1) if total(KERNELS, 1) else 0.0),
        "ir.contains_self_ms": layer_ns("ir") / 1e6,
        "ir.calls_per_query": per_query(total(PROBES, 1)),
        "sharding.coordinator_self_ms": layer_ns("sharding") / 1e6,
        "sharding.shard_top_k_ms": speed * mean([run[0] for run in shard_runs]) / 1e6,
        "sharding.shard_top_k_max_ms": speed * mean([run[1] for run in shard_runs]) / 1e6,
        "sharding.rounds_per_query": mean([result.shard_rounds for result in results]),
        "sharding.pruned_share": (
            pruned / (pruned + shard_plans) if pruned + shard_plans else 0.0),
    }

    # Ingest-side layers: one record per document, over set-up and ingest ops.
    parse_bytes = parse_ns = 0
    add_ns = defaultdict(list)
    open_ns = defaultdict(int)
    first_touch_ns = []
    for record in recorder.records:
        kind = recorder.op_kinds[record.op] if record.op >= 0 else None
        name = record.name
        self_ns = record.busy_ns - record.child_ns
        if name == "parse" and kind in ("setup", "ingest"):
            parse_bytes += record.amount or 0
            parse_ns += record.busy_ns
        elif name.endswith(".add_document") and kind in ("setup", "ingest"):
            add_ns[name].append(self_ns)
        elif name.endswith(".extend") and kind == "ingest":
            add_ns[name].append(self_ns)
        elif kind == "reopen" and name.endswith(".open"):
            open_ns[record.op] += self_ns
        elif kind == "reopen" and name == "Session.query":
            first_touch_ns.append(record.busy_ns)
    def per_document_ms(name):
        return speed * median(add_ns[name]) / 1e6

    metrics.update({
        "xmltree.parse_mb_per_s": (
            parse_bytes / 1e6 / (speed * parse_ns / 1e9) if parse_ns else 0.0),
        "collection.add_document_ms": per_document_ms("Corpus.add_document"),
        "ir.extend_ms": per_document_ms("IREngine.extend"),
        "stats.extend_ms": per_document_ms("DocumentStatistics.extend"),
        "backend.disk.add_document_ms": per_document_ms("DiskBackend.add_document"),
        "backend.sharded.add_document_ms": per_document_ms("ShardedBackend.add_document"),
        "backend.disk.open_ms": speed * median(list(open_ns.values())) / 1e6,
        "backend.disk.first_touch_ms": speed * median(first_touch_ns) / 1e6,
    })
    return metrics


def layer_shares(layers):
    """Each layer's share of all self time in ``per_op(kind)[0]`` (README check)."""
    totals = defaultdict(int)
    for by_layer in layers.values():
        for layer, self_ns in by_layer.items():
            totals[layer] += self_ns
    whole = sum(totals.values())
    return {layer: value / whole for layer, value in sorted(totals.items())} if whole else {}


def median_op_layers(layers):
    """Layer self times (us) of the op whose total is the median one."""
    if not layers:
        return {}
    ranked = sorted(layers.values(), key=lambda by_layer: sum(by_layer.values()))
    return {layer: self_ns / 1e3
            for layer, self_ns in sorted(ranked[len(ranked) // 2].items())}
