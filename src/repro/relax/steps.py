"""Atomic relaxation steps and the penalty-ordered relaxation schedule.

The paper's algorithms reason about relaxation as *dropping one closure
predicate at a time*, each drop realized by an operator application
(§3.5: "we often refer to 'the next predicate dropped' ... even though the
algorithms are based on the operators"). This module makes that
correspondence executable:

- a :class:`RelaxationStep` pairs the closure predicate being dropped with
  the operator application that realizes the drop and the penalty it incurs;
- a :class:`RelaxationSchedule` greedily applies the cheapest valid step
  until none remain, yielding the sequence of relaxed queries
  ``Q = Q_0 ⊂ Q_1 ⊂ Q_2 ⊂ ...`` that DPO walks dynamically and SSO/Hybrid
  encode statically.

Valid single drops on the current query are:

- drop ``pc(p, v)`` where the edge into ``v`` is pc  → γ (edge becomes ad);
- drop ``ad(p, v)`` where the edge into ``v`` is ad:
    - ``p`` is not the root → σ (``v``'s subtree re-hangs off the
      grandparent),
    - ``p`` is the root and ``v`` is a leaf → λ (leaf deletion; value
      predicates on ``v`` drop automatically, a ``contains`` on ``v``
      contributes its promotion penalty since the closure retains it at
      ancestors);
- drop ``contains(v, E)`` with ``v`` not the root → κ (promotion to the
  parent).

Dropping ``ad(p, v)`` while ``pc(p, v)`` is still present would leave an
equivalent query (the predicate is derivable), and dropping the edge into a
non-leaf root child would disconnect the pattern — exactly the two pitfalls
Definition 1 excludes — so neither appears as a step.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.query.predicates import Ad, Pc
from repro.query.tpq import PC
from repro.relax.operators import (
    axis_generalization,
    contains_promotion,
    leaf_deletion,
    subtree_promotion,
)

GAMMA = "axis-generalization"
LAMBDA = "leaf-deletion"
SIGMA = "subtree-promotion"
KAPPA = "contains-promotion"


@dataclass(frozen=True)
class RelaxationStep:
    """One predicate drop: the operator that realizes it and its penalty."""

    operator: str
    dropped: object  # the closure predicate being dropped
    target: str  # the variable (or contains var) the operator acts on
    penalty: float

    def apply(self, query):
        if self.operator == GAMMA:
            return axis_generalization(query, self.target)
        if self.operator == SIGMA:
            return subtree_promotion(query, self.target)
        if self.operator == LAMBDA:
            return leaf_deletion(query, self.target)
        if self.operator == KAPPA:
            predicate = next(
                p for p in query.contains
                if p.var == self.target and p.ftexpr == self.dropped.ftexpr
            )
            return contains_promotion(query, predicate)
        raise ValueError("unknown operator %r" % self.operator)

    def describe(self):
        return "%s dropping %s" % (self.operator, self.dropped)


def _deletable(query, var):
    """True if λ may delete ``var`` within a schedule.

    Three guards beyond "is a leaf":

    - a leaf still carrying a ``contains`` must have it promoted (κ) first —
      deletion would silently discard the full-text obligation, which §3.1
      rules out;
    - the distinguished variable is never deleted inside a schedule: λ's
      re-designation of the parent changes *what kind of node* is returned,
      so the result would not contain the original query's answers — the
      containment invariant every algorithm relies on.
    """
    return (
        query.is_leaf(var)
        and not query.contains_on(var)
        and var != query.distinguished
    )


def candidate_steps(query, penalty_model):
    """Enumerate the valid single drops on ``query`` with their penalties.

    γ steps whose tag pair has no ancestor-descendant pairs beyond the
    parent-child ones are omitted: on this document the relaxation cannot
    admit any new answer (this is how "edge generalization is enabled by
    recursive nodes in the DTD" — §6 — shows up in the statistics).
    """
    steps = []
    for parent, child, axis in query.edges():
        if axis == PC:
            predicate = Pc(parent, child)
            parent_tag = query.tag_of(parent)
            child_tag = query.tag_of(child)
            ad_pairs = penalty_model.statistics.ad_count(parent_tag, child_tag)
            pc_pairs = penalty_model.statistics.pc_count(parent_tag, child_tag)
            if ad_pairs > pc_pairs:
                steps.append(
                    RelaxationStep(
                        GAMMA,
                        predicate,
                        child,
                        penalty_model.pc_drop_penalty(query, predicate),
                    )
                )
            else:
                # γ adds nothing on this document (every ad pair is already
                # pc), but promotion / deletion may still pay off. Offer a
                # combined drop of both pc and ad in one step.
                ad_predicate = Ad(parent, child)
                combined = penalty_model.pc_drop_penalty(
                    query, predicate
                ) + penalty_model.ad_drop_penalty(query, ad_predicate)
                if parent != query.root:
                    steps.append(
                        RelaxationStep(SIGMA, ad_predicate, child, combined)
                    )
                elif _deletable(query, child):
                    steps.append(
                        RelaxationStep(LAMBDA, ad_predicate, child, combined)
                    )
        else:
            predicate = Ad(parent, child)
            if parent != query.root:
                steps.append(
                    RelaxationStep(
                        SIGMA,
                        predicate,
                        child,
                        penalty_model.ad_drop_penalty(query, predicate),
                    )
                )
            elif _deletable(query, child):
                penalty = penalty_model.ad_drop_penalty(query, predicate)
                steps.append(RelaxationStep(LAMBDA, predicate, child, penalty))
    for contains in query.contains:
        if contains.var != query.root:
            steps.append(
                RelaxationStep(
                    KAPPA,
                    contains,
                    contains.var,
                    penalty_model.contains_drop_penalty(query, contains),
                )
            )
    return steps


@dataclass(frozen=True)
class ScheduleEntry:
    """One level of the relaxation schedule."""

    index: int  # 0 = the original query
    query: object  # the TPQ at this level
    step: object  # the RelaxationStep that produced it (None at level 0)
    cumulative_penalty: float

    def structural_score(self, base_score):
        """Compile-time structural score of answers first seen at this level."""
        return base_score - self.cumulative_penalty


class RelaxationSchedule:
    """Penalty-ordered cumulative relaxation of one query.

    Level 0 is the original query; level ``i`` applies the cheapest valid
    step to level ``i-1``. The schedule is what DPO walks one level at a
    time and what SSO prefixes to encode into a single plan.
    """

    def __init__(self, query, penalty_model, max_steps=None):
        self.query = query
        self.penalty_model = penalty_model
        self.base_score = sum(
            penalty_model.weight(p) for p in query.structural_predicates()
        )
        self.entries = [ScheduleEntry(0, query, None, 0.0)]
        current = query
        cumulative = 0.0
        while max_steps is None or len(self.entries) - 1 < max_steps:
            steps = candidate_steps(current, penalty_model)
            if not steps:
                break
            step = min(steps, key=lambda s: (s.penalty, str(s.dropped)))
            current = step.apply(current)
            cumulative += step.penalty
            self.entries.append(
                ScheduleEntry(len(self.entries), current, step, cumulative)
            )

    def __len__(self):
        """Number of relaxation levels beyond the original query."""
        return len(self.entries) - 1

    def level(self, index):
        return self.entries[index]

    def queries(self):
        """The chain Q_0 ⊆ Q_1 ⊆ ... of relaxed queries."""
        return [entry.query for entry in self.entries]

    def structural_score(self, index):
        """Structural score of answers introduced at level ``index``."""
        return self.base_score - self.entries[index].cumulative_penalty

    def describe(self):
        lines = ["level 0: %s (score %.3f)" % (self.query.to_xpath(), self.base_score)]
        for entry in self.entries[1:]:
            lines.append(
                "level %d: %s  [%s, penalty %.3f, score %.3f]"
                % (
                    entry.index,
                    entry.query.to_xpath(),
                    entry.step.describe(),
                    entry.step.penalty,
                    self.structural_score(entry.index),
                )
            )
        return "\n".join(lines)
