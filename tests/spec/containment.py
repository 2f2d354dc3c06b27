"""Containment of tree pattern queries.

``Q ⊆ Q'`` means every answer of ``Q`` on every database is an answer of
``Q'`` (§2.1). Containment underlies the definition of relaxation ("a
relaxation of a query is any query which contains the former") and is what
the soundness half of Theorem 2 asserts for the operator outputs.

We decide containment with *containment mappings* (homomorphisms): a map
``h`` from the variables of ``Q'`` to the variables of ``Q`` such that

- ``h`` maps the distinguished variable of ``Q'`` to that of ``Q``,
- every predicate of ``Q'``, with variables renamed by ``h``, belongs to
  the **closure** of ``Q`` (pc maps to pc; ad may be witnessed by any
  derived ad; contains and tag predicates likewise).

Homomorphism existence is sound for containment in general and complete on
the relaxation lattices this library generates (which contain no wildcard
interactions of the kind behind the coNP-hardness of [24]); the test suite
exercises it against brute-force evaluation on sample documents.
"""

from __future__ import annotations

from repro.query.predicates import Ad, AttrCompare, Contains, Pc, Tag
from tests.spec.closure import closure


def find_homomorphism(superset_query, subset_query):
    """Return a containment mapping ``h: vars(Q') -> vars(Q)`` or None.

    ``superset_query`` plays the role of ``Q'`` (the containing query) and
    ``subset_query`` the role of ``Q``.
    """
    target_closure = closure(subset_query)
    sub_vars = subset_query.variables
    sup_vars = superset_query.variables

    # Candidate targets per source variable, pruned by unary predicates.
    sup_tags = {var: superset_query.tag_of(var) for var in sup_vars}
    candidates = {}
    for var in sup_vars:
        tag = sup_tags[var]
        options = []
        for target in sub_vars:
            if tag is not None and Tag(target, tag) not in target_closure:
                continue
            options.append(target)
        if var == superset_query.distinguished:
            options = [
                t for t in options if t == subset_query.distinguished
            ]
        if not options:
            return None
        candidates[var] = options

    sup_predicates = _binary_predicates(superset_query)
    unary = _unary_predicates(superset_query)

    def consistent(assignment):
        for predicate in unary:
            mapped = _rename_unary(predicate, assignment)
            if mapped is not None and mapped not in target_closure:
                return False
        for predicate in sup_predicates:
            mapped = _rename_binary(predicate, assignment)
            if mapped is not None and mapped not in target_closure:
                return False
        return True

    # Backtracking search in pre-order (parents assigned before children,
    # so edge predicates prune early).
    order = list(sup_vars)
    assignment = {}

    def search(index):
        if index == len(order):
            return True
        var = order[index]
        for target in candidates[var]:
            assignment[var] = target
            if consistent(assignment) and search(index + 1):
                return True
            del assignment[var]
        return False

    if search(0):
        return dict(assignment)
    return None


def is_contained_in(subset_query, superset_query):
    """Return True if ``subset_query ⊆ superset_query``."""
    return find_homomorphism(superset_query, subset_query) is not None


def are_equivalent(first, second):
    """Return True if the two queries contain each other."""
    return is_contained_in(first, second) and is_contained_in(second, first)


def is_strictly_contained_in(subset_query, superset_query):
    """Return True if containment holds and the queries are not equivalent."""
    return is_contained_in(subset_query, superset_query) and not is_contained_in(
        superset_query, subset_query
    )


# -- helpers ------------------------------------------------------------------


def _binary_predicates(query):
    predicates = []
    for parent, child, axis in query.edges():
        if axis == "pc":
            predicates.append(Pc(parent, child))
        else:
            predicates.append(Ad(parent, child))
    return predicates


def _unary_predicates(query):
    predicates = []
    for var in query.variables:
        tag = query.tag_of(var)
        if tag is not None:
            predicates.append(Tag(var, tag))
    predicates.extend(query.contains)
    predicates.extend(query.attr_predicates)
    return predicates


def _rename_unary(predicate, assignment):
    var = predicate.variables()[0]
    if var not in assignment:
        return None
    target = assignment[var]
    if isinstance(predicate, Tag):
        return Tag(target, predicate.name)
    if isinstance(predicate, Contains):
        return Contains(target, predicate.ftexpr)
    if isinstance(predicate, AttrCompare):
        return AttrCompare(target, predicate.attr, predicate.rel_op, predicate.value)
    return None


def _rename_binary(predicate, assignment):
    first, second = predicate.variables()
    if first not in assignment or second not in assignment:
        return None
    if isinstance(predicate, Pc):
        return Pc(assignment[first], assignment[second])
    return Ad(assignment[first], assignment[second])
