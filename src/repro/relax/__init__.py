"""Query relaxation: operators, penalties and schedules."""

from repro.relax.operators import (
    axis_generalization,
    contains_promotion,
    leaf_deletion,
    subtree_promotion,
)
from repro.relax.penalties import UNIFORM_WEIGHTS, PenaltyModel, WeightAssignment
from repro.relax.steps import (
    GAMMA,
    KAPPA,
    LAMBDA,
    SIGMA,
    RelaxationSchedule,
    candidate_steps,
)

__all__ = [
    "GAMMA",
    "KAPPA",
    "LAMBDA",
    "PenaltyModel",
    "RelaxationSchedule",
    "SIGMA",
    "UNIFORM_WEIGHTS",
    "WeightAssignment",
    "axis_generalization",
    "candidate_steps",
    "contains_promotion",
    "leaf_deletion",
    "subtree_promotion",
]
