"""Keyword relevance scoring, normalized to [0, 1].

The paper assumes "the score returned by the IR engine for contains is
normalized to be in the range [0, 1]" (§4.1) and otherwise delegates the
choice of keyword scoring to the IR engine. We use a bounded tf-idf:

    score(node, expr) = Σ_t idf(t) · sat(t, node)  /  Σ_t idf(t)

over the positive terms t of the expression, where

    sat(t, node) = tf / (tf + 1)        (tf = occurrences in the subtree)
    idf(t)       = log(1 + N / df(t))   (N = #text elements, df = doc freq)

``tf/(tf+1)`` is the classic saturating term-frequency transform; it keeps
each term's contribution in [0, 1) and the weighted average keeps the total
there too. Terms the index has never seen get idf of log(1 + N) and a zero
satisfaction, so unknown terms lower scores rather than crashing.
"""

from __future__ import annotations

import math

from repro.ir.ftexpr import Not


def positive_terms(expression):
    """Return the terms of an expression outside any negation, in order."""
    terms = []

    def walk(expr, negated):
        if isinstance(expr, Not):
            walk(expr.child, not negated)
            return
        children = getattr(expr, "children", None)
        if children is not None:
            for child in children:
                walk(child, negated)
            return
        if not negated:
            terms.extend(expr.terms())

    walk(expression, False)
    # Deduplicate preserving order.
    seen = set()
    unique = []
    for term in terms:
        if term not in seen:
            seen.add(term)
            unique.append(term)
    return unique


def idf(index, term):
    """Inverse document frequency of a stemmed term."""
    total = max(index.text_element_count, 1)
    frequency = index.document_frequency(term)
    return math.log(1.0 + total / (frequency + 1.0))


def tf_saturation(frequency):
    """Map a raw term frequency to [0, 1)."""
    return frequency / (frequency + 1.0)


def score_subtree(index, node, stemmed_terms, idf_index=None):
    """Score a node's subtree for a list of stemmed terms; in [0, 1).

    ``idf_index`` optionally supplies the corpus-wide ``idf`` statistics
    (``text_element_count`` / ``document_frequency``) while term
    frequencies still come from ``index``.  A sharded corpus scores each
    node against its shard-local postings but must weight terms by the
    *global* document frequencies, or per-shard scores would diverge from
    the unsharded engine's.
    """
    bound = [(term, index.posting(term)) for term in stemmed_terms]
    score = region_scorer(index if idf_index is None else idf_index, bound)
    return score(node.start, node.end)


def region_scorer(idf_index, bound_terms):
    """``score(start, end)``: the region ``[start, end)``'s score for
    ``(term, posting)`` pairs.

    The one implementation of the formula in the module docstring.  The IR
    engine binds each term to its posting (``None`` for a term the index
    has never seen) once per expression and builds a scorer per call of
    its ``contains`` door.  The ``idf`` weights are read here, once per
    scorer: a sharded corpus' aggregate moves whenever any shard ingests,
    so a scorer lives no longer than the read-locked call that built it.
    Sums run in term order, so every score is bit-equal to the per-term
    accumulation ``Σ idf · sat / Σ idf``.
    """
    weighted = []
    denominator = 0.0
    for term, posting in bound_terms:
        weight = idf(idf_index, term)
        denominator += weight
        if posting is not None:
            weighted.append((weight, posting))

    def score(start, end):
        if denominator == 0.0:
            return 0.0
        numerator = 0.0
        for weight, posting in weighted:
            numerator += weight * tf_saturation(
                posting.subtree_occurrences(start, end)
            )
        return numerator / denominator

    return score
