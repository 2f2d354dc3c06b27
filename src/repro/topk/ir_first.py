"""IR-first evaluation — the §5.1 alternative the paper left unexplored.

    "An alternative possibility would first use an inverted index to
    evaluate the contains predicates and filter out potential answers, and
    then match structural predicates. The efficiency of each approach
    depends on the types of queries. A comparison of these two approaches
    would be interesting but is outside the scope of this paper."

This strategy realizes that alternative on top of DPO's level walk: before
evaluating a level's plan, the inverted index computes, for every variable
carrying a ``contains`` predicate, the set of elements (of that variable's
tag) whose subtree satisfies the expression. Structural matching is then
seeded with exactly those elements instead of the full tag list.

When the full-text expression is selective this skips almost all
structural work; when it is unselective (or the contains sits high in the
pattern, where most elements satisfy it) the filtering is pure overhead —
the trade-off the paper predicted, measurable with
``benchmarks/bench_ablation_ir_first.py``.

The walk itself is :meth:`repro.topk.dpo.DPO.execute`; this module only
supplies the per-source restriction.  Satisfier sets are in the source's
own node ids, read off that source's ``contains`` table
(:meth:`~repro.plans.executor.PlanExecutor.contains_table`).
"""

from __future__ import annotations

from repro.topk.dpo import DPO


class IRFirstDPO(DPO):
    """DPO with contains-satisfier pre-filtering from the inverted index."""

    name = "IRFirstDPO"

    def _source_arguments(self, session, query):
        arguments = super()._source_arguments(session, query)
        with session.tracer.span("ir_filter"):
            arguments["pool_restrictions"] = _restrictions_for(
                session.source, query, session.satisfiers
            )
        return arguments


def _satisfiers(source, ftexpr, tag):
    """Node ids (with the given tag) whose subtree satisfies ``ftexpr``.

    Read off the source executor's ``contains`` table for the expression
    over the tag's ids, so the pre-filter and the plans' later ``contains``
    checks on the expression share one table, across levels and queries.
    """
    backend = source.backend
    ids = range(len(backend)) if tag is None else backend.node_ids_with_tag(tag)
    table = source.contains_table(ftexpr, set(ids), len(ids))
    return frozenset(node_id for node_id in ids if table[node_id] is not None)


def _restrictions_for(source, query, memo):
    """Per-variable satisfier sets for one level's query on one source.

    ``memo`` maps ``(expression, tag)`` to its satisfier set for the rest
    of the walk (the session's ``satisfiers``): successive levels often
    keep a ``contains`` on the same tag, and a set is computed once.
    """
    restrictions = {}
    for predicate in query.contains:
        key = (predicate.ftexpr, query.tag_of(predicate.var))
        satisfiers = memo.get(key)
        if satisfiers is None:
            satisfiers = memo[key] = _satisfiers(source, *key)
        current = restrictions.get(predicate.var)
        if current is None:
            restrictions[predicate.var] = satisfiers
        else:
            restrictions[predicate.var] = current & satisfiers
    return restrictions
