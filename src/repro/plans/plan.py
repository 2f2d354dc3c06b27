"""Left-deep join plans with encoded relaxations (§5.2.1, Figure 8).

A plan binds the query variables in (original) pre-order; each
:class:`PlanJoin` extends partial tuples with a binding for one variable.
Relaxations are *encoded* in the plan exactly as Figure 8 shows — a join
predicate and its relaxed derivations grouped together, e.g. for Q3::

    c(section, algorithm)  or  if not c(section, algorithm)
                               then d(article, algorithm)

Here that is an ordered list of :class:`Alternative` values (strict first);
a candidate node matched by several alternatives is credited with the first
(best-scoring) one. A variable whose connection was fully dropped (leaf
deletion) gets an ``optional_delta``: tuples with no match survive unbound
at that score.

``contains`` predicates become :class:`ContainsCheck` chains — the original
context variable plus one level per encoded κ promotion — attached after
the deepest chain variable is bound.

Plans are built in two ways:

- :func:`build_strict_plan` — one alternative per edge, everything
  required; this evaluates a single TPQ exactly (used by DPO per level);
- :func:`build_encoded_plan` — replay a prefix of a
  :class:`~repro.relax.steps.RelaxationSchedule` into alternatives,
  optional joins, and contains chains (used by SSO and Hybrid).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EvaluationError
from repro.query.tpq import PC
from repro.relax.steps import GAMMA, KAPPA, LAMBDA, SIGMA

#: The two top-level operators a plan can run under (``Plan.operator``): the
#: binary structural-join pipeline, and the holistic twig join.
BINARY = "binary"
TWIG = "twig"


@dataclass(frozen=True)
class Alternative:
    """One way a variable may connect to an already-bound variable."""

    connect_var: str
    axis: str  # "pc" or "ad"
    delta: float  # structural-score contribution when matched this way
    label: str


@dataclass(frozen=True)
class ContainsLevel:
    """One context level of a (possibly promoted) contains predicate."""

    var: str
    delta: float  # 0 at the original level; −Σ κ penalties when promoted


@dataclass
class ContainsCheck:
    """A contains predicate with its encoded promotion chain.

    ``levels`` are ordered deepest (original context) first; evaluation
    takes the first bound, satisfying level. An unsatisfied check kills the
    tuple — contains is never dropped outright (§3.1).
    """

    ftexpr: object
    levels: tuple
    attach_var: str  # the join after which the check runs

    def max_delta(self):
        return max(level.delta for level in self.levels)


@dataclass
class PlanJoin:
    """Binding step for one variable."""

    var: str
    tag: str  # None = unconstrained
    alternatives: tuple  # best-first Alternative list
    optional_delta: float = None  # None = required
    attr_predicates: tuple = ()

    @property
    def optional(self):
        return self.optional_delta is not None

    def best_delta(self):
        return self.alternatives[0].delta

    def worst_case_delta(self):
        if self.optional:
            return self.optional_delta
        return min(alt.delta for alt in self.alternatives)


@dataclass
class Plan:
    """An executable left-deep plan.

    The builders below leave ``joins`` in pre-order, ``operator`` binary and
    ``estimates`` empty; :func:`~repro.plans.lowering.lower_plan` returns a
    copy with all three decided from the corpus counts.
    """

    root_var: str
    root_tag: str
    root_attr_predicates: tuple
    joins: tuple  # PlanJoin per non-root variable, in execution order
    checks_by_var: dict  # attach var -> list[ContainsCheck]
    distinguished: str
    fallback_chain: tuple  # distinguished's original ancestors, nearest first
    base_score: float
    operator: str = BINARY  # what PlanExecutor.run dispatches on
    estimates: tuple = ()  # OperatorEstimate per operator, pipeline order

    def contains_count(self):
        return sum(len(checks) for checks in self.checks_by_var.values())

    def join_count(self):
        return len(self.joins)

    # -- who reads a binding (projection and semi-joins key on this) ---------

    def live_after(self):
        """Per join position, the variables still referenced afterwards.

        A variable is live after join ``i`` when a later join's alternative
        connects through it, a later contains check reads it, or the answer
        node may come from it (distinguished variable and its fallback
        chain). Dead variables are projected away so tuples that differ
        only in exhausted branches collapse — without this, relaxed plans
        enumerate the cross product of every branch's matches.
        """
        acc = {self.distinguished, self.root_var}
        acc.update(self.fallback_chain)
        live = [None] * len(self.joins)
        for index in range(len(self.joins) - 1, -1, -1):
            live[index] = frozenset(acc)
            join = self.joins[index]
            for alt in join.alternatives:
                acc.add(alt.connect_var)
            for check in self.checks_by_var.get(join.var, ()):
                for level in check.levels:
                    acc.add(level.var)
            acc.add(join.var)
        return live

    def existential(self):
        """Per join, whether nobody ever reads the binding it makes.

        True for a variable that is dead the moment it is bound: no join
        connects through it, no ``contains`` level reads it (a check's
        first level is the variable it is attached to) and no answer can
        come from it — a pattern leaf that is not the distinguished node.
        That is "not in :meth:`live_after` at its own join, and no check of
        its own", in one pass: every plan of every level is lowered at
        compile time.  Such a join only asks *whether* a match exists
        (Figure 8's "``c(section, algorithm)`` or if not … then
        ``d(article, algorithm)``"), so the executor runs it as a semi-join
        and the lowering names it one.
        """
        read = {self.distinguished, self.root_var, *self.fallback_chain}
        for join in self.joins:
            for alt in join.alternatives:
                read.add(alt.connect_var)
        for checks in self.checks_by_var.values():
            for check in checks:
                for level in check.levels:
                    read.add(level.var)
        return tuple(join.var not in read for join in self.joins)

    # -- static score-bound tables (used for threshold pruning, §5.2.2) ------

    def growth_tables(self):
        """Per plan position, the maximum remaining structural and keyword
        additions (``maxScoreGrowth``) and, where defined, the guaranteed
        remaining structural addition.

        Position ``i`` means "about to process joins[i]"; position
        ``len(joins)`` means all joins done (checks attached to the last
        join's variable included at their join's position).
        """
        positions = len(self.joins) + 1
        growth_ss = [0.0] * positions
        growth_ks = [0.0] * positions
        guaranteed_ss = [0.0] * positions
        guaranteed_defined = [True] * positions

        for index in range(len(self.joins) - 1, -1, -1):
            join = self.joins[index]
            checks = self.checks_by_var.get(join.var, ())
            check_ks = float(len(checks))
            check_ss_best = sum(check.max_delta() for check in checks)
            growth_ss[index] = growth_ss[index + 1] + join.best_delta() + check_ss_best
            growth_ks[index] = growth_ks[index + 1] + check_ks
            if guaranteed_defined[index + 1] and join.optional and not checks:
                guaranteed_ss[index] = guaranteed_ss[index + 1] + join.optional_delta
                guaranteed_defined[index] = True
            else:
                guaranteed_ss[index] = 0.0
                guaranteed_defined[index] = False
        return growth_ss, growth_ks, guaranteed_ss, guaranteed_defined

    def describe(self):
        lines = ["seed %s:%s" % (self.root_var, self.root_tag or "*")]
        for join in self.joins:
            options = " | ".join(
                "%s(%s) %+0.3f" % (alt.axis, alt.connect_var, alt.delta)
                for alt in join.alternatives
            )
            optional = (
                "  [optional %+0.3f]" % join.optional_delta if join.optional else ""
            )
            lines.append(
                "join %s:%s  %s%s" % (join.var, join.tag or "*", options, optional)
            )
            for check in self.checks_by_var.get(join.var, ()):
                chain = " -> ".join(
                    "%s %+0.3f" % (level.var, level.delta) for level in check.levels
                )
                lines.append("  contains(%s): %s" % (check.ftexpr, chain))
        for check in self.checks_by_var.get(self.root_var, ()):
            chain = " -> ".join(
                "%s %+0.3f" % (level.var, level.delta) for level in check.levels
            )
            lines.append("root contains(%s): %s" % (check.ftexpr, chain))
        if self.estimates:
            lines.append("physical operator: %s" % self.operator)
            lines.extend(op.describe() for op in self.estimates)
        return "\n".join(lines)


def _attr_predicates_for(query, var):
    return tuple(p for p in query.attr_predicates if p.var == var)


def _edge_weight(query, weights, var):
    from repro.query.predicates import Ad, Pc

    parent = query.parent_of(var)
    if query.axis_of(var) == PC:
        return weights.weight(Pc(parent, var))
    return weights.weight(Ad(parent, var))


def build_strict_plan(query, weights):
    """Plan evaluating ``query`` exactly: single alternatives, all required."""
    joins = []
    base = 0.0
    for var in query.variables:
        if var == query.root:
            continue
        weight = _edge_weight(query, weights, var)
        base += weight
        joins.append(
            PlanJoin(
                var=var,
                tag=query.tag_of(var),
                alternatives=(
                    Alternative(
                        connect_var=query.parent_of(var),
                        axis=query.axis_of(var),
                        delta=weight,
                        label="strict",
                    ),
                ),
                attr_predicates=_attr_predicates_for(query, var),
            )
        )
    checks_by_var = {}
    for predicate in query.contains:
        checks_by_var.setdefault(predicate.var, []).append(
            ContainsCheck(
                ftexpr=predicate.ftexpr,
                levels=(ContainsLevel(predicate.var, 0.0),),
                attach_var=predicate.var,
            )
        )
    fallback = tuple(query.ancestors_of(query.distinguished))
    return Plan(
        root_var=query.root,
        root_tag=query.tag_of(query.root),
        root_attr_predicates=_attr_predicates_for(query, query.root),
        joins=tuple(joins),
        checks_by_var=checks_by_var,
        distinguished=query.distinguished,
        fallback_chain=fallback,
        base_score=base,
    )


def build_encoded_plan(schedule, level):
    """Encode the first ``level`` steps of ``schedule`` into one plan.

    The plan evaluates the union of relaxation levels 0..level in a single
    pass; each tuple's score reflects the exact set of predicates it
    satisfies (finer-grained than DPO's per-level compile-time scores,
    §5.2.1).
    """
    if not 0 <= level <= len(schedule):
        raise EvaluationError(
            "schedule has %d levels; asked for %d" % (len(schedule), level)
        )
    query = schedule.query
    weights = schedule.penalty_model.weights

    # Per-variable alternative chains, seeded with the strict edge.
    alternatives = {}
    optional_delta = {}
    for var in query.variables:
        if var == query.root:
            continue
        weight = _edge_weight(query, weights, var)
        alternatives[var] = [
            Alternative(query.parent_of(var), query.axis_of(var), weight, "strict")
        ]
    # Contains chains keyed by identity in the evolving query: the chain
    # whose current (last) level var matches a κ step's dropped predicate.
    chains = {}
    for position, predicate in enumerate(query.contains):
        chains[position] = [ContainsLevel(predicate.var, 0.0)]

    for entry in schedule.entries[1 : level + 1]:
        step = entry.step
        before = schedule.entries[entry.index - 1].query
        # Every derivation scores at most what it was derived from, so each
        # chain below comes out best-first with non-increasing deltas — the
        # executor's semi-join step takes the first alternative that matches
        # for the best one.
        assert step.penalty >= 0, step
        if step.operator == GAMMA:
            var = step.target
            last = alternatives[var][-1]
            alternatives[var].append(
                Alternative(last.connect_var, "ad", last.delta - step.penalty, "γ")
            )
        elif step.operator == SIGMA:
            var = step.target
            old_parent = before.parent_of(var)
            new_parent = before.parent_of(old_parent)
            last = alternatives[var][-1]
            alternatives[var].append(
                Alternative(new_parent, "ad", last.delta - step.penalty, "σ")
            )
        elif step.operator == LAMBDA:
            var = step.target
            last = alternatives[var][-1]
            optional_delta[var] = last.delta - step.penalty
        elif step.operator == KAPPA:
            dropped = step.dropped
            position = _chain_for(chains, query, dropped)
            last_level = chains[position][-1]
            new_var = before.parent_of(dropped.var)
            chains[position].append(
                ContainsLevel(new_var, last_level.delta - step.penalty)
            )
        else:
            raise EvaluationError("unknown operator %r" % step.operator)

    joins = []
    base = 0.0
    for var in query.variables:
        if var == query.root:
            continue
        base += alternatives[var][0].delta
        joins.append(
            PlanJoin(
                var=var,
                tag=query.tag_of(var),
                alternatives=tuple(alternatives[var]),
                optional_delta=optional_delta.get(var),
                attr_predicates=_attr_predicates_for(query, var),
            )
        )

    checks_by_var = {}
    for position, predicate in enumerate(query.contains):
        levels = tuple(chains[position])
        checks_by_var.setdefault(predicate.var, []).append(
            ContainsCheck(
                ftexpr=predicate.ftexpr,
                levels=levels,
                attach_var=predicate.var,
            )
        )

    fallback = tuple(query.ancestors_of(query.distinguished))
    return Plan(
        root_var=query.root,
        root_tag=query.tag_of(query.root),
        root_attr_predicates=_attr_predicates_for(query, query.root),
        joins=tuple(joins),
        checks_by_var=checks_by_var,
        distinguished=query.distinguished,
        fallback_chain=fallback,
        base_score=base,
    )


def _chain_for(chains, query, dropped):
    """Find the chain whose current top level matches a κ-dropped predicate."""
    for position, levels in chains.items():
        if (
            levels[-1].var == dropped.var
            and query.contains[position].ftexpr == dropped.ftexpr
        ):
            return position
    raise EvaluationError("no contains chain matches dropped %s" % (dropped,))
