"""Physical-operator plan IR: what the executor actually runs.

PR 5 split the lifecycle into compile and execute, but the compiled
artifact still carried only *logical* plans — the executor hard-coded one
physical strategy (seed scan + binary structural-join pipeline).  This
module makes the physical side explicit: a logical
:class:`~repro.plans.plan.Plan` lowers, through a
:class:`~repro.plans.cost.CostModel`, into a :class:`PhysicalPlan` that
records the chosen join order, the chosen top-level operator (holistic
twig join vs. binary pipeline), and per-operator cardinality estimates.

The operator vocabulary:

- ``seed-scan`` — materialize one variable's candidate pool (tag index
  scan plus attribute/restriction filters);
- ``binary-join`` — extend the intermediate tuple list across one
  :class:`~repro.plans.plan.PlanJoin` (the classic pipeline step; carries
  liveness collapsing inside the executor);
- ``semi-join`` — the same step for a join whose binding nobody reads
  (:meth:`~repro.plans.plan.Plan.existential`): one tuple out per tuple in,
  the first alternative with any candidate wins, nothing is enumerated;
- ``contains-filter`` — apply one variable's ``contains`` checks;
- ``twig-join`` — the holistic operator: match the *entire* twig in a
  constant number of passes over the id-sorted pools
  (TwigStack-family; kernel in :mod:`repro.backend.kernels`), no
  intermediate pair lists at all.

A :class:`PhysicalPlan` is a frozen, picklable value object: the sharded
scatter path ships it to forked workers exactly like the logical plans it
wraps, and the :class:`~repro.compiled.PlanCache` version-fences it
through the compile key's cost-model fingerprint.

Twig eligibility: the holistic operator evaluates *conjunctive* twigs —
every join must have exactly one alternative and be required, and every
contains check must sit at its original context level.  Strict plans at
every relaxation level and encoded plans at level 0 qualify; encoded
plans past level 0 (alternative chains, optional joins, promoted contains
levels) fall back to the binary pipeline, which is also the only operator
that can apply threshold / ``maxScoreGrowth`` pruning (it needs scored
intermediates, which the holistic operator never materializes).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Physical operator kinds (``PhysicalPlan.operator`` uses the first two).
TWIG = "twig"
BINARY = "binary"


@dataclass(frozen=True)
class OperatorEstimate:
    """One lowered operator with its cost-model estimate.

    ``estimate`` is the model's predicted output cardinality; the executor
    reports the matching actual per run (``ExecutionResult.operators``) so
    ``explain --analyze`` can print them side by side.
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


@dataclass(frozen=True)
class PhysicalPlan:
    """A logical plan plus the physical decisions made for it.

    ``logical`` is the (re-ordered) logical plan — the binary pipeline
    executes it directly; the twig operator reads its joins/checks as the
    twig structure.  ``operator`` is the chosen top-level strategy;
    ``operators`` the per-step descriptors with estimates;
    ``cost_model`` the deciding model's name (for traces and explain).
    """

    logical: object  # the ordered repro.plans.plan.Plan
    operator: str  # TWIG or BINARY
    operators: tuple  # OperatorEstimate, pipeline-ordered
    cost_model: str
    twig_eligible: bool

    def describe(self):
        lines = [
            "physical operator: %s (cost model: %s)"
            % (self.operator, self.cost_model)
        ]
        for op in self.operators:
            lines.append(
                "  %-15s %-10s est=%.1f  %s"
                % (op.kind, op.var, op.estimate, op.detail)
            )
        return "\n".join(lines)


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


def lower_plan(plan, cost_model):
    """Lower one logical plan into a :class:`PhysicalPlan`.

    Join order and operator choice come from ``cost_model``; the logical
    plan itself is never mutated (a new ordered plan is built when the
    order changes, sharing joins/checks structurally).
    """
    from repro.plans.plan import Plan

    ordered_joins = cost_model.order_joins(plan)
    if ordered_joins == plan.joins:
        ordered = plan
    else:
        ordered = Plan(
            root_var=plan.root_var,
            root_tag=plan.root_tag,
            root_attr_predicates=plan.root_attr_predicates,
            joins=ordered_joins,
            checks_by_var=plan.checks_by_var,
            distinguished=plan.distinguished,
            fallback_chain=plan.fallback_chain,
            base_score=plan.base_score,
        )

    eligible = twig_eligible(ordered)
    operator = cost_model.choose_operator(ordered, eligible)
    operators = _operator_estimates(ordered, operator, cost_model)
    return PhysicalPlan(
        logical=ordered,
        operator=operator,
        operators=operators,
        cost_model=cost_model.name,
        twig_eligible=eligible,
    )


def _operator_estimates(plan, operator, cost_model):
    """Per-step descriptors with predicted cardinalities."""
    out = []
    if operator == TWIG:
        out.append(
            OperatorEstimate(
                kind="seed-scan",
                var=plan.root_var,
                detail="tag=%s" % (plan.root_tag or "*"),
                estimate=float(cost_model.tag_cardinality(plan.root_tag)),
            )
        )
        for join in plan.joins:
            out.append(
                OperatorEstimate(
                    kind="twig-join",
                    var=join.var,
                    detail="%s(%s) tag=%s" % (
                        join.alternatives[0].axis,
                        join.alternatives[0].connect_var,
                        join.tag or "*",
                    ),
                    estimate=float(cost_model.tag_cardinality(join.tag)),
                )
            )
    else:
        pipeline = cost_model.estimate_pipeline(plan)
        existential = plan.existential()
        out.append(
            OperatorEstimate(
                kind="seed-scan",
                var=plan.root_var,
                detail="tag=%s" % (plan.root_tag or "*"),
                estimate=pipeline[0],
            )
        )
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
                    estimate=0.0,
                )
            )
    return tuple(out)
