"""Ablation — pattern pre-order vs selectivity-ordered joins.

The paper fixes the join order to pattern pre-order; this ablation measures
what a statistics-driven reorder (most selective tag first, dependencies
respected) buys on the fully relaxed Q3 plan.
"""

import pytest

from benchmarks.harness import context_for, query, warm
from repro.plans import SSO_MODE, build_encoded_plan, lower_plan
from repro.rank import STRUCTURE_FIRST

SIZE = "10MB"
QUERY = "Q3"
K = 50


@pytest.fixture(scope="module")
def setup():
    context = context_for(SIZE)
    warm(context, QUERY)
    schedule = context.schedule(query(QUERY))
    plan = build_encoded_plan(schedule, len(schedule))
    reordered = lower_plan(plan, context.statistics, strict=False)
    return context, {"preorder": plan, "selectivity": reordered}


@pytest.mark.parametrize("ordering", ["preorder", "selectivity"])
def test_ablation_join_order(benchmark, setup, ordering):
    context, plans = setup
    plan = plans[ordering]

    def run():
        return context.executor.run(
            plan, k=K, scheme=STRUCTURE_FIRST, mode=SSO_MODE
        )

    result = benchmark.pedantic(run, rounds=3, warmup_rounds=1)
    benchmark.extra_info["max_intermediate"] = result.stats.max_intermediate
    benchmark.extra_info["tuples"] = result.stats.tuples_produced
