"""Retrieval-quality metrics for flexible vs strict evaluation.

The paper's motivation is a *recall* argument: strict XPath semantics
"penalize the user for providing context" by missing relevant answers that
relaxations recover. This module provides the standard IR metrics to
quantify that claim against a ground-truth relevance set:

- precision / recall / F1 at K,
- average precision (AP) and mean average precision over query sets,
- normalized discounted cumulative gain (nDCG) for graded relevance.

`tests/test_quality.py` and `examples/collection_search.py` use these to
show the strict-vs-flexible recall gap on the archetype corpus, where
ground truth is known by construction.
"""

from __future__ import annotations

import math


def precision_at_k(ranked_ids, relevant_ids, k):
    """Fraction of the top-K that is relevant."""
    if k <= 0:
        raise ValueError("k must be positive")
    top = list(ranked_ids)[:k]
    if not top:
        return 0.0
    hits = sum(1 for item in top if item in relevant_ids)
    return hits / len(top)


def recall_at_k(ranked_ids, relevant_ids, k):
    """Fraction of the relevant set found in the top-K."""
    if k <= 0:
        raise ValueError("k must be positive")
    if not relevant_ids:
        return 0.0
    top = set(list(ranked_ids)[:k])
    hits = len(top & set(relevant_ids))
    return hits / len(relevant_ids)


def f1_at_k(ranked_ids, relevant_ids, k):
    """Harmonic mean of precision and recall at K."""
    precision = precision_at_k(ranked_ids, relevant_ids, k)
    recall = recall_at_k(ranked_ids, relevant_ids, k)
    if precision + recall == 0.0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def average_precision(ranked_ids, relevant_ids):
    """AP: mean of precision at each relevant hit's rank."""
    relevant = set(relevant_ids)
    if not relevant:
        return 0.0
    hits = 0
    total = 0.0
    for rank, item in enumerate(ranked_ids, start=1):
        if item in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


def mean_average_precision(runs):
    """MAP over ``(ranked_ids, relevant_ids)`` pairs."""
    runs = list(runs)
    if not runs:
        return 0.0
    return sum(
        average_precision(ranked, relevant) for ranked, relevant in runs
    ) / len(runs)


def dcg_at_k(ranked_ids, gains, k):
    """Discounted cumulative gain with log2 discounting.

    ``gains`` maps item id -> graded relevance (missing items gain 0).
    """
    total = 0.0
    for rank, item in enumerate(list(ranked_ids)[:k], start=1):
        gain = gains.get(item, 0.0)
        if gain:
            total += gain / math.log2(rank + 1)
    return total


def ndcg_at_k(ranked_ids, gains, k):
    """DCG normalized by the ideal ordering's DCG."""
    ideal = sorted(gains.values(), reverse=True)[:k]
    ideal_dcg = sum(
        gain / math.log2(rank + 1)
        for rank, gain in enumerate(ideal, start=1)
        if gain
    )
    if ideal_dcg == 0.0:
        return 0.0
    return dcg_at_k(ranked_ids, gains, k) / ideal_dcg


def compare_strict_vs_flexible(engine, query, relevant_ids, k):
    """One-call summary of the paper's motivating claim for a query.

    Returns a dict with precision/recall/F1 at K for strict evaluation and
    for flexible top-K (hybrid algorithm, structure-first ranking).
    """
    strict_ids = [node.node_id for node in engine.exact(query)]
    flexible = engine.query(query, k=k)
    flexible_ids = [answer.node_id for answer in flexible.answers]
    return {
        "strict": {
            "precision": precision_at_k(strict_ids, relevant_ids, k),
            "recall": recall_at_k(strict_ids, relevant_ids, k),
            "f1": f1_at_k(strict_ids, relevant_ids, k),
            "returned": len(strict_ids),
        },
        "flexible": {
            "precision": precision_at_k(flexible_ids, relevant_ids, k),
            "recall": recall_at_k(flexible_ids, relevant_ids, k),
            "f1": f1_at_k(flexible_ids, relevant_ids, k),
            "returned": len(flexible_ids),
        },
    }
