"""Lowering: from a plan as built to the plan the executor runs.

The builders in :mod:`repro.plans.plan` emit a plan's joins in pattern
pre-order.  :func:`lower_plan` returns the same
:class:`~repro.plans.plan.Plan` record with the two corpus-dependent
decisions made — join order (:func:`order_joins`: required joins before
optional ones, cheapest first within each) and per-operator cardinality
estimates — each a pure function of the plan and the backend's
counts surface (``tag_count`` / ``pc_count`` / ``ad_count`` /
``total_elements``) under §6's uniform-independence assumption.  The
operators estimated are those of the plan's family, which the caller
names: a strict plan runs under the twig operator, an encoded plan under
the binary pipeline.  Nothing a run observes reaches a later lowering: a
lowered plan is a function of its query and the corpus version, which is
why the plan cache keys on the request alone.

The operator vocabulary (``OperatorEstimate.kind``):

- ``seed-scan`` — materialize one variable's candidate pool (tag index
  scan plus attribute/restriction filters);
- ``binary-join`` — extend the intermediate tuple list across one
  :class:`~repro.plans.plan.PlanJoin` (the classic pipeline step; carries
  liveness collapsing inside the executor);
- ``semi-join`` — the same step for a join whose binding nobody reads
  (:meth:`~repro.plans.plan.Plan.existential`): one tuple out per tuple in,
  the first alternative with any candidate wins, nothing is enumerated;
- ``contains-filter`` — apply one variable's ``contains`` checks;
- ``twig-join`` — the holistic operator: one variable's subtree table,
  built bottom-up from its pool and one kernel call per child table
  (:mod:`repro.backend.kernels`) and cached across relaxation levels, no
  intermediate tuple lists at all.

Twig eligibility: the holistic operator evaluates *conjunctive* twigs —
every join must have exactly one alternative and be required, and every
contains check must sit at its original context level.  Every strict plan
is one; the executor refuses a strict-mode run of any other plan
(:func:`twig_eligible`).  Encoded plans run on the binary pipeline at every
level, level 0 included, because it is the operator that can apply
threshold / ``maxScoreGrowth`` pruning (it needs scored intermediates,
which the holistic operator never materializes).

Layering: this module sees only the statistics *protocol* served by the
backend seam — never a storage class — and the backend never imports it
back; ``tools/check_layering.py`` enforces both directions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import EvaluationError


@dataclass(frozen=True)
class OperatorEstimate:
    """One operator of a lowered plan with its predicted output cardinality.

    ``estimate`` is None for an operator the lowering does not estimate (a
    ``contains-filter``: its selectivity needs IR probes, and a level's
    plan is lowered, from corpus counts alone, when a strategy first asks
    for it).  The executor reports the
    matching actual per run (``ExecutionResult.operators``) so
    ``explain --analyze`` can print the two side by side.
    """

    # "seed-scan" | "binary-join" | "semi-join" | "twig-join" | "contains-filter"
    kind: str
    var: str
    detail: str
    estimate: float

    def as_dict(self):
        return {
            "kind": self.kind,
            "var": self.var,
            "detail": self.detail,
            "estimate": self.estimate,
        }

    def describe(self):
        estimate = "-" if self.estimate is None else "%.1f" % self.estimate
        return "  %-15s %-10s est=%s  %s" % (
            self.kind, self.var, estimate, self.detail
        )


def join_cost_key(cardinality, join, original_rank):
    """The greedy ordering key of one join.

    Required joins before optional ones: a required join can only shrink
    the intermediate and an optional one never does, and a tuple whose
    remaining joins are all optional already feeds the pipeline's pruning
    threshold, so putting them last starts the guarantees sooner.
    Within each group, cheapest (smallest estimated candidate pool) first.
    A tag absent from the corpus estimates to zero everywhere, so
    zero-cardinality joins tie-break *deterministically by variable name*
    instead of falling back to plan position — without this, two absent
    tags rank by accident of pre-order and the "cheapest" choice is
    unstable across equivalent plans.  Other ties keep plan position.
    """
    return (
        join.optional,
        cardinality,
        join.var if cardinality == 0 else "",
        original_rank[join.var],
    )


def order_joins(plan, statistics):
    """Greedily reorder ``plan.joins``, dependencies permitting.

    Every alternative's connect variable and every contains-chain variable
    must be bound before a join runs; within that constraint the ready join
    with the least :func:`join_cost_key` goes next: a required join before
    any optional one, then the smallest ``tag_count``.  A strict plan has
    required joins only, so its order is cheapest-first.  Returns the joins
    as a tuple — the caller rebuilds the plan (plans are shared, never
    mutated).
    """
    joins_by_var = {join.var: join for join in plan.joins}
    original_rank = {join.var: index for index, join in enumerate(plan.joins)}
    needed = {}
    for join in plan.joins:
        requires = {alt.connect_var for alt in join.alternatives}
        for check in plan.checks_by_var.get(join.var, ()):
            requires.update(level.var for level in check.levels)
        requires.discard(join.var)
        needed[join.var] = requires

    bound = {plan.root_var}
    ordered = []
    remaining = set(joins_by_var)

    def cost(var):
        join = joins_by_var[var]
        return join_cost_key(
            statistics.tag_count(join.tag), join, original_rank
        )

    while remaining:
        ready = [var for var in remaining if needed[var] <= bound]
        if not ready:
            raise EvaluationError(
                "join dependencies are cyclic; cannot order %s"
                % ", ".join(sorted(remaining))
            )
        chosen = min(ready, key=cost)
        ordered.append(joins_by_var[chosen])
        bound.add(chosen)
        remaining.discard(chosen)
    return tuple(ordered)


def twig_eligible(plan):
    """True when the holistic twig operator can evaluate ``plan`` exactly.

    Requires a purely conjunctive twig: single-alternative required joins
    (no encoded relaxation alternatives, no optional variables) and
    contains checks anchored at their original context variable.
    """
    for join in plan.joins:
        if len(join.alternatives) != 1 or join.optional:
            return False
    for var, checks in plan.checks_by_var.items():
        for check in checks:
            if len(check.levels) != 1:
                return False
            if check.levels[0].var != check.attach_var:
                return False
            if check.attach_var != var:
                return False
    return True


def join_fanout(statistics, base_tag, axis, tag):
    """Estimated matches per base node across one (axis, tag) edge."""
    if base_tag is None or tag is None:
        # Unconstrained edge: assume every candidate survives.
        total = max(statistics.total_elements, 1)
        return statistics.tag_count(tag) / total if tag is not None else 1.0
    base_count = statistics.tag_count(base_tag)
    if base_count == 0:
        return 0.0
    if axis == "pc":
        pairs = statistics.pc_count(base_tag, tag)
    else:
        pairs = statistics.ad_count(base_tag, tag)
    return pairs / base_count


def estimate_pipeline(plan, statistics):
    """Per-position estimated cardinalities of the binary pipeline.

    Returns ``[seed_estimate, after_join_1, ...]`` for ``plan`` in its
    *current* join order: the seed pool's ``tag_count`` multiplied through
    each join's best per-alternative fan-out, an optional join never
    shrinking its input.
    """
    tags = {plan.root_var: plan.root_tag}
    for join in plan.joins:
        tags[join.var] = join.tag
    estimates = [float(statistics.tag_count(plan.root_tag))]
    current = estimates[0]
    for join in plan.joins:
        fanout = max(
            join_fanout(statistics, tags.get(alt.connect_var), alt.axis, join.tag)
            for alt in join.alternatives
        )
        current = current * fanout
        if join.optional and current < estimates[-1]:
            current = estimates[-1]
        estimates.append(current)
    return estimates


def lower_plan(plan, statistics, strict):
    """``plan`` with join order and estimates decided.

    ``statistics`` is the backend-seam counts surface.  ``strict`` names
    the plan's family: a strict plan is estimated as the twig operator's
    ``twig-join`` steps, an encoded one as the binary pipeline's
    ``binary-join`` / ``semi-join`` steps.  ``plan`` itself is never
    mutated; the lowered copy shares its joins and checks.
    """
    ordered = replace(plan, joins=order_joins(plan, statistics))
    pipeline = estimate_pipeline(ordered, statistics)
    return replace(
        ordered,
        estimates=_operator_estimates(ordered, strict, pipeline, statistics),
    )


def _operator_estimates(plan, strict, pipeline, statistics):
    """Per-step descriptors with predicted cardinalities."""
    out = [
        OperatorEstimate(
            kind="seed-scan",
            var=plan.root_var,
            detail="tag=%s" % (plan.root_tag or "*"),
            estimate=pipeline[0],
        )
    ]
    if strict:
        for join in plan.joins:
            alt = join.alternatives[0]
            out.append(
                OperatorEstimate(
                    kind="twig-join",
                    var=join.var,
                    detail="%s(%s) tag=%s" % (
                        alt.axis, alt.connect_var, join.tag or "*"
                    ),
                    estimate=float(statistics.tag_count(join.tag)),
                )
            )
    else:
        existential = plan.existential()
        for index, join in enumerate(plan.joins):
            axes = "|".join(
                "%s(%s)" % (alt.axis, alt.connect_var)
                for alt in join.alternatives
            )
            estimate = pipeline[index + 1]
            if existential[index]:
                # One tuple out per tuple in, at most.
                estimate = min(estimate, out[-1].estimate)
            out.append(
                OperatorEstimate(
                    kind="semi-join" if existential[index] else "binary-join",
                    var=join.var,
                    detail="%s tag=%s%s" % (
                        axes,
                        join.tag or "*",
                        " optional" if join.optional else "",
                    ),
                    estimate=estimate,
                )
            )
    for var, checks in sorted(plan.checks_by_var.items()):
        for check in checks:
            out.append(
                OperatorEstimate(
                    kind="contains-filter",
                    var=var,
                    detail="contains(%s)" % (check.ftexpr,),
                    estimate=None,
                )
            )
    return tuple(out)
