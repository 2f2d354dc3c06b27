"""Core (minimization) of tree pattern queries (§3.2, Theorem 1).

A predicate in (a subset of) a closure is *redundant* if it is derivable
from the remaining predicates via the inference rules. A set is *minimal*
if it has no redundant predicates. The **core** of a TPQ is the minimal set
equivalent to its closure; Theorem 1 states it is unique, which makes the
result of the straightforward remove-while-redundant loop well defined.

:func:`reconstruct_tpq` turns a minimal predicate set back into a
:class:`~repro.query.tpq.TPQ` when its structure forms a tree — the test
used by Definition 1 ("the core of C − S is a tree pattern query").
"""

from __future__ import annotations

from repro.errors import InvalidQueryError
from repro.query.predicates import Ad, AttrCompare, Contains, Pc, Tag
from repro.query.tpq import AD, PC, TPQ
from tests.spec.closure import closure_set, derives


def minimize(predicates):
    """Return the unique minimal subset equivalent to ``predicates``.

    Predicates are visited in a deterministic order; by Theorem 1 the order
    does not change the result for sets drawn from TPQ closures.
    """
    remaining = set(predicates)
    for predicate in sorted(predicates, key=str):
        if predicate not in remaining:
            continue
        candidate = remaining - {predicate}
        if derives(candidate, predicate):
            remaining = candidate
    return frozenset(remaining)


class NotATreePattern(InvalidQueryError):
    """The predicate set does not describe a single tree pattern query."""


def reconstruct_tpq(predicates, distinguished):
    """Rebuild a TPQ from a *minimal* predicate set.

    Raises :class:`NotATreePattern` when the structural predicates do not
    form a single rooted tree, when a variable has two incoming edges, or
    when the distinguished variable is absent.
    """
    variables = set()
    incoming = {}
    tags = {}
    contains = []
    attrs = []

    for predicate in predicates:
        if isinstance(predicate, Pc):
            variables.update(predicate.variables())
            if predicate.child in incoming:
                raise NotATreePattern(
                    "variable %s has two incoming edges" % predicate.child
                )
            incoming[predicate.child] = (predicate.parent, PC)
        elif isinstance(predicate, Ad):
            variables.update(predicate.variables())
            if predicate.descendant in incoming:
                raise NotATreePattern(
                    "variable %s has two incoming edges" % predicate.descendant
                )
            incoming[predicate.descendant] = (predicate.ancestor, AD)
        elif isinstance(predicate, Tag):
            variables.add(predicate.var)
            tags[predicate.var] = predicate.name
        elif isinstance(predicate, Contains):
            variables.add(predicate.var)
            contains.append(predicate)
        elif isinstance(predicate, AttrCompare):
            variables.add(predicate.var)
            attrs.append(predicate)
        else:
            raise NotATreePattern("unknown predicate %r" % (predicate,))

    if not variables:
        # A single unconstrained variable has an empty predicate set; the
        # distinguished variable is the whole pattern.
        variables = {distinguished}
    roots = sorted(variables - set(incoming))
    if len(roots) != 1:
        raise NotATreePattern(
            "pattern graph has %d roots (%s); expected exactly one"
            % (len(roots), ", ".join(roots) or "none")
        )
    if distinguished not in variables:
        raise NotATreePattern(
            "distinguished variable %s was dropped" % distinguished
        )
    # TPQ.__init__ validates acyclicity / connectivity.
    return TPQ(roots[0], incoming, tags, distinguished, contains=contains,
               attr_predicates=attrs)


def core(tpq):
    """Return the core of a TPQ — the unique minimal equivalent TPQ."""
    minimal = minimize(closure_set(tpq.logical_predicates()))
    return reconstruct_tpq(minimal, tpq.distinguished)


def core_of_set(predicates, distinguished):
    """Minimize a predicate set and rebuild it as a TPQ.

    This is the Definition 1 check: relaxing drops predicates from a closure
    and requires the core of the remainder to still be a tree pattern.
    """
    return reconstruct_tpq(minimize(closure_set(predicates)), distinguished)
