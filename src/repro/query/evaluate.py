"""Reference evaluator for TPQs — exact match semantics of §2.1.

This is the *specification* evaluator: a direct implementation of the match
definition (a function from pattern variables to data nodes preserving all
predicates). It is exponential in pattern size in the worst case and exists
to serve as ground truth for the join-plan engine, the relaxation operators
(containment soundness), and the top-K algorithms in tests. Production
evaluation goes through :mod:`repro.plans`.
"""

from __future__ import annotations

from repro.ir.matching import ftexpr_matches
from repro.ir.tokenizer import tokenize_and_stem


def default_contains_oracle(document):
    """Return a ``(node, ftexpr) -> bool`` oracle that scans subtree text.

    Results are memoized per (node id, expression).
    """
    cache = {}

    def oracle(node, ftexpr):
        key = (node.node_id, ftexpr)
        if key not in cache:
            tokens = tokenize_and_stem(document.full_text(node))
            cache[key] = ftexpr_matches(ftexpr, tokens)
        return cache[key]

    return oracle


def find_matches(query, document, contains_oracle=None, virtual_root_id=None):
    """Yield complete matches as ``{variable: XMLNode}`` dicts.

    ``virtual_root_id`` names a corpus' synthetic collection root, which
    binds no variable (the plan executor's pools leave it out the same
    way).
    """
    if contains_oracle is None:
        contains_oracle = default_contains_oracle(document)

    order = list(query.variables)

    def node_satisfies_unary(var, node):
        for predicate in query.attr_predicates:
            if predicate.var == var and not predicate.evaluate(
                node.attributes.get(predicate.attr)
            ):
                return False
        for predicate in query.contains_on(var):
            if not contains_oracle(node, predicate.ftexpr):
                return False
        return True

    candidates = {}
    for var in order:
        tag = query.tag_of(var)
        if tag is not None:
            pool = document.nodes_with_tag(tag)
        else:
            pool = list(document.nodes())
        pool = [
            node for node in pool
            if node.node_id != virtual_root_id and node_satisfies_unary(var, node)
        ]
        if not pool:
            return
        candidates[var] = pool

    assignment = {}

    def edge_ok(var, node):
        parent_var = query.parent_of(var)
        if parent_var is None:
            return True
        parent_node = assignment[parent_var]
        if query.axis_of(var) == "pc":
            return parent_node.is_parent_of(node)
        return parent_node.is_ancestor_of(node)

    def search(index):
        if index == len(order):
            yield dict(assignment)
            return
        var = order[index]
        parent_var = query.parent_of(var)
        if parent_var is not None:
            parent_node = assignment[parent_var]
            pool = (
                node
                for node in candidates[var]
                if parent_node.start < node.start and node.end <= parent_node.end
            )
        else:
            pool = candidates[var]
        for node in pool:
            if not edge_ok(var, node):
                continue
            assignment[var] = node
            yield from search(index + 1)
            del assignment[var]

    yield from search(0)


def evaluate(query, document, contains_oracle=None, virtual_root_id=None):
    """Return the answer set: data nodes matched by the distinguished variable.

    Matches §2.1: ``Q(D) = {x | ∃ match f with f($d) = x}``; the result is a
    list of distinct nodes in document order.  The arguments are
    :func:`find_matches`'.
    """
    seen = set()
    answers = []
    for match in find_matches(
        query, document, contains_oracle=contains_oracle,
        virtual_root_id=virtual_root_id,
    ):
        node = match[query.distinguished]
        if node.node_id not in seen:
            seen.add(node.node_id)
            answers.append(node)
    answers.sort(key=lambda node: node.node_id)
    return answers
