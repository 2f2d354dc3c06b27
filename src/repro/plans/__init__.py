"""Join plans: relaxation-encoded plans, cost-model-driven physical
lowering, executor; the structural-join id kernels (physical-layer code in
:mod:`repro.backend.kernels`) are re-exported for the join planners."""

from repro.backend.kernels import (
    semi_join_ancestor_ids,
    semi_join_descendant_ids,
    structural_join_ids,
)
from repro.plans.cost import (
    CostModel,
    FeedbackStatistics,
    MeasuredCostModel,
    StaticCostModel,
    order_joins,
)
from repro.plans.eval_cache import EvaluationCache
from repro.plans.executor import (
    HYBRID_MODE,
    SSO_MODE,
    STRICT,
    ExecutionResult,
    ExecutionStats,
    PlanExecutor,
)
from repro.plans.physical import (
    OperatorEstimate,
    PhysicalPlan,
    lower_plan,
    twig_eligible,
)
from repro.plans.plan import (
    Alternative,
    ContainsCheck,
    ContainsLevel,
    Plan,
    PlanJoin,
    build_encoded_plan,
    build_strict_plan,
)

__all__ = [
    "Alternative",
    "ContainsCheck",
    "ContainsLevel",
    "CostModel",
    "EvaluationCache",
    "ExecutionResult",
    "ExecutionStats",
    "FeedbackStatistics",
    "HYBRID_MODE",
    "MeasuredCostModel",
    "OperatorEstimate",
    "PhysicalPlan",
    "Plan",
    "PlanExecutor",
    "PlanJoin",
    "SSO_MODE",
    "STRICT",
    "StaticCostModel",
    "build_encoded_plan",
    "build_strict_plan",
    "lower_plan",
    "order_joins",
    "twig_eligible",
    "semi_join_ancestor_ids",
    "semi_join_descendant_ids",
    "structural_join_ids",
]
