"""Join plans: relaxation-encoded plans, their lowering from corpus counts,
executor; the structural-join id kernels (physical-layer code in
:mod:`repro.backend.kernels`) are re-exported for the join planners."""

from repro.backend.kernels import (
    semi_join_ancestor_ids,
    semi_join_descendant_ids,
    structural_join_ids,
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
from repro.plans.lowering import (
    OperatorEstimate,
    lower_plan,
    order_joins,
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
    "EvaluationCache",
    "ExecutionResult",
    "ExecutionStats",
    "HYBRID_MODE",
    "OperatorEstimate",
    "Plan",
    "PlanExecutor",
    "PlanJoin",
    "SSO_MODE",
    "STRICT",
    "build_encoded_plan",
    "build_strict_plan",
    "lower_plan",
    "order_joins",
    "twig_eligible",
    "semi_join_ancestor_ids",
    "semi_join_descendant_ids",
    "structural_join_ids",
]
