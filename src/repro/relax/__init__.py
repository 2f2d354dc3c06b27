"""Query relaxation: operators, penalties, schedules, and the full space."""

from repro.relax.operators import (
    axis_generalization,
    contains_promotion,
    leaf_deletion,
    subtree_promotion,
)
from repro.relax.penalties import UNIFORM_WEIGHTS, PenaltyModel, WeightAssignment
from repro.relax.space import (
    applicable_relaxations,
    enumerate_relaxations,
    relaxation_distance,
)
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
    "applicable_relaxations",
    "axis_generalization",
    "candidate_steps",
    "contains_promotion",
    "enumerate_relaxations",
    "leaf_deletion",
    "relaxation_distance",
    "subtree_promotion",
]
