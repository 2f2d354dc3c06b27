"""The cost-model seam: who decides join order and physical operator.

FleXPath §6 estimates selectivities from corpus counts under a uniform-
independence assumption; ROADMAP item 3 calls for replacing those guesses
with *measured* statistics — the metrics plane already observes true pool
cardinalities and join fan-outs, so feed them back.  This module makes the
decision surface explicit so both live behind one seam:

- :class:`CostModel` — the abstract contract the plan lowering
  (:mod:`repro.plans.physical`) consumes: per-tag cardinalities, per-edge
  fan-outs, a cache fingerprint, plus the two concrete decisions built on
  them (greedy join ordering, twig-vs-binary operator choice);
- :class:`StaticCostModel` — §6's uniform-independence estimator as a cost
  model: cardinalities and fan-outs come straight from the corpus counts
  the :class:`~repro.backend.base.StorageBackend` statistics surface
  serves;
- :class:`MeasuredCostModel` — the feedback-driven model: observed
  cardinalities and fan-outs from :class:`FeedbackStatistics` (recorded by
  the executor during real runs) override the static estimates wherever a
  measurement exists;
- :class:`FeedbackStatistics` — the thread-safe store of observations.
  Every plan compiled after an observation is lowered through it; plans
  already in the plan cache stay as compiled until ``refresh()`` or
  ``clear()`` advances the store's ``epoch`` (part of the fingerprint).

Layering: this module sees only the statistics *protocol* (``tag_count``
etc. served by the backend seam) — never a storage class — and the
backend never imports it back; ``tools/check_layering.py`` enforces both
directions.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod

from repro.errors import EvaluationError

#: Operator policies a cost model may be pinned to (tests, ablations).
OPERATOR_POLICIES = ("auto", "binary", "twig")


def join_cost_key(cardinality, join, original_rank):
    """The greedy ordering key shared by every cost model.

    Cheapest (smallest estimated candidate pool) first; required joins
    before optional among equals (required joins only shrink the
    intermediate, optional ones only grow it).  A tag absent from the
    corpus estimates to zero everywhere, so zero-cardinality joins
    tie-break *deterministically by variable name* instead of falling back
    to plan position — without this, two absent tags rank by accident of
    pre-order and the "cheapest" choice is unstable across equivalent
    plans.
    """
    return (
        cardinality,
        join.optional,
        join.var if cardinality == 0 else "",
        original_rank[join.var],
    )


def order_joins(plan, cost_model):
    """Greedily reorder ``plan.joins`` cheapest-first, dependencies permitting.

    Every alternative's connect variable and every contains-chain variable
    must be bound before a join runs; within that constraint the join with
    the smallest estimated cardinality goes first.  Returns the joins as a
    tuple — the caller rebuilds the plan (plans are shared, never mutated).
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
            cost_model.tag_cardinality(join.tag), join, original_rank
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


class CostModel(ABC):
    """What the plan lowering asks before choosing operators.

    Concrete models answer two numeric questions — how many candidates a
    tag pool holds, and how many matches one base node fans out to across
    an edge — and stamp a :meth:`fingerprint` into the plan-cache key so
    one model's physical plans are never served for another.

    ``operator_policy`` pins the twig-vs-binary choice for ablations and
    equivalence tests: ``"auto"`` (cost-based), ``"binary"`` or ``"twig"``
    (forced, eligibility permitting).
    """

    name = "abstract"

    def __init__(self, operator_policy="auto"):
        if operator_policy not in OPERATOR_POLICIES:
            raise ValueError(
                "operator_policy must be one of %r" % (OPERATOR_POLICIES,)
            )
        self.operator_policy = operator_policy

    @abstractmethod
    def tag_cardinality(self, tag):
        """Estimated number of elements carrying ``tag`` (None = all)."""

    @abstractmethod
    def join_fanout(self, base_tag, axis, tag):
        """Estimated matches per base node across one (axis, tag) edge."""

    @abstractmethod
    def fingerprint(self):
        """Hashable token; cached plans are reused while it is unchanged."""

    # -- the decisions built on the numbers ----------------------------------

    def order_joins(self, plan):
        """Greedy cheapest-first join order under dependency constraints."""
        return order_joins(plan, self)

    def estimate_pipeline(self, plan):
        """Per-position estimated cardinalities of the binary pipeline.

        Returns ``[seed_estimate, after_join_1, ...]`` for ``plan`` in its
        *current* join order; the lowering records these next to the
        actuals for ``explain --analyze``.
        """
        tags = {plan.root_var: plan.root_tag}
        for join in plan.joins:
            tags[join.var] = join.tag
        estimates = [float(self.tag_cardinality(plan.root_tag))]
        current = estimates[0]
        for join in plan.joins:
            fanout = max(
                self.join_fanout(
                    tags.get(alt.connect_var), alt.axis, join.tag
                )
                for alt in join.alternatives
            )
            current = current * fanout
            if join.optional and current < estimates[-1]:
                current = estimates[-1]
            estimates.append(current)
        return estimates

    def choose_operator(self, plan, eligible):
        """Pick ``"twig"`` or ``"binary"`` for a lowered plan.

        The holistic operator's cost is a constant number of linear merges
        over the per-variable pools — Σ pool sizes per edge — while the
        binary pipeline pays per *intermediate tuple* per join.  Twig wins
        whenever the estimated intermediates outgrow the pools; the forced
        policies short-circuit the comparison.
        """
        if not eligible:
            return "binary"
        if self.operator_policy != "auto":
            return self.operator_policy
        pool_cost = float(self.tag_cardinality(plan.root_tag))
        for join in plan.joins:
            pool_cost += float(self.tag_cardinality(join.tag))
        pipeline = self.estimate_pipeline(plan)
        binary_cost = sum(pipeline)
        return "twig" if pool_cost <= binary_cost else "binary"


class StaticCostModel(CostModel):
    """§6's uniform-independence estimates as a cost model.

    ``statistics`` is the backend-seam counts surface (``tag_count`` /
    ``pc_count`` / ``ad_count``); the fingerprint is constant because the
    counts are already version-fenced by the plan-cache key's backend
    version.
    """

    name = "static"

    def __init__(self, statistics, operator_policy="auto"):
        super().__init__(operator_policy=operator_policy)
        self._statistics = statistics

    def tag_cardinality(self, tag):
        return self._statistics.tag_count(tag)

    def join_fanout(self, base_tag, axis, tag):
        stats = self._statistics
        if base_tag is None or tag is None:
            # Unconstrained edge: assume every candidate survives.
            total = max(stats.total_elements, 1)
            return stats.tag_count(tag) / total if tag is not None else 1.0
        base_count = stats.tag_count(base_tag)
        if base_count == 0:
            return 0.0
        if axis == "pc":
            pairs = stats.pc_count(base_tag, tag)
        else:
            pairs = stats.ad_count(base_tag, tag)
        return pairs / base_count

    def fingerprint(self):
        return (self.name, self.operator_policy)


class FeedbackStatistics:
    """Thread-safe store of observed pool sizes and join fan-outs.

    The executor records here during real runs (only for measurements
    whose semantics are clean: unrestricted pools without attribute
    predicates, required single-alternative joins).  Recording never
    touches ``epoch``: observations shape the plans compiled after them,
    and only :meth:`refresh` / :meth:`clear` make the plan cache re-lower
    what it already holds.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._pools = {}  # tag -> [samples, total]
        self._fanouts = {}  # (base_tag, axis, tag) -> [bases, produced]
        self.epoch = 0

    def record_pool(self, tag, size):
        with self._lock:
            entry = self._pools.get(tag)
            if entry is None:
                self._pools[tag] = [1, size]
            else:
                entry[0] += 1
                entry[1] += size

    def record_join(self, base_tag, axis, tag, bases, produced):
        if bases <= 0:
            return
        key = (base_tag, axis, tag)
        with self._lock:
            entry = self._fanouts.get(key)
            if entry is None:
                self._fanouts[key] = [bases, produced]
            else:
                entry[0] += bases
                entry[1] += produced

    def pool_size(self, tag):
        """Mean observed pool size for ``tag``, or None."""
        with self._lock:
            entry = self._pools.get(tag)
            if entry is None:
                return None
            return entry[1] / entry[0]

    def fanout(self, base_tag, axis, tag):
        """Observed produced-per-base across an edge, or None."""
        with self._lock:
            entry = self._fanouts.get((base_tag, axis, tag))
            if entry is None or entry[0] == 0:
                return None
            return entry[1] / entry[0]

    def refresh(self):
        """Advance the epoch, if any observation exists.

        Makes the next compile of every cached query re-lower through the
        measured numbers — what the ablation benchmark (and an operator
        who just warmed a workload) calls.
        """
        with self._lock:
            if self._pools or self._fanouts:
                self.epoch += 1

    def clear(self):
        """Forget every observation (corpus growth made them stale)."""
        with self._lock:
            had = bool(self._pools or self._fanouts)
            self._pools.clear()
            self._fanouts.clear()
            if had:
                self.epoch += 1

    def info(self):
        with self._lock:
            return {
                "pools": len(self._pools),
                "fanouts": len(self._fanouts),
                "epoch": self.epoch,
            }

    def __repr__(self):
        info = self.info()
        return "FeedbackStatistics(pools=%d, fanouts=%d, epoch=%d)" % (
            info["pools"], info["fanouts"], info["epoch"]
        )


class MeasuredCostModel(StaticCostModel):
    """Feedback-driven model: observed numbers override §6 estimates.

    Falls back to the static estimate wherever nothing has been measured
    yet, so a cold context behaves exactly like :class:`StaticCostModel`;
    the fingerprint carries the feedback epoch, so ``refresh()`` re-lowers
    plans through the plan cache instead of mutating anything compiled.
    """

    name = "measured"

    def __init__(self, statistics, feedback=None, operator_policy="auto"):
        super().__init__(statistics, operator_policy=operator_policy)
        self.feedback = feedback if feedback is not None else FeedbackStatistics()

    def tag_cardinality(self, tag):
        observed = self.feedback.pool_size(tag)
        if observed is not None:
            return observed
        return super().tag_cardinality(tag)

    def join_fanout(self, base_tag, axis, tag):
        observed = self.feedback.fanout(base_tag, axis, tag)
        if observed is not None:
            return observed
        return super().join_fanout(base_tag, axis, tag)

    def fingerprint(self):
        return (self.name, self.operator_policy, self.feedback.epoch)
