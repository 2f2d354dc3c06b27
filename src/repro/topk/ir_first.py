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
own node ids and live in that source's shared (locked)
:class:`~repro.plans.eval_cache.EvaluationCache`.
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
                session.source, query
            )
        return arguments


def _satisfiers(source, ftexpr, tag):
    """Node ids (with the given tag) whose subtree satisfies ``ftexpr``.

    The set lives in the source executor's shared :class:`EvaluationCache`
    (``satisfiers`` tier), so it survives across queries, is shared
    with any other strategy asking the same question, and is invalidated
    when the corpus grows.
    """

    def compute():
        backend = source.backend
        if tag is None:
            ids = range(len(backend))
        else:
            ids = backend.node_ids_with_tag(tag)
        return frozenset(
            node_id
            for node_id, score in source.ir.contains_scores(ftexpr, ids).items()
            if score is not None
        )

    return source.eval_cache.value("satisfiers", (ftexpr, tag), compute)


def _restrictions_for(source, query):
    """Per-variable satisfier sets for one level's query on one source."""
    restrictions = {}
    for predicate in query.contains:
        satisfiers = _satisfiers(
            source, predicate.ftexpr, query.tag_of(predicate.var)
        )
        current = restrictions.get(predicate.var)
        if current is None:
            restrictions[predicate.var] = satisfiers
        else:
            restrictions[predicate.var] = current & satisfiers
    return restrictions
