"""Answer scores: structural and keyword components (§4.3.2).

An answer to a (possibly relaxed) query carries two orthogonal scores:

- the **structural score** ``ss = Σ w(p_i) − Σ π(p)`` — the sum of the
  weights of the original query's structural predicates minus the penalties
  of the closure predicates dropped to admit the answer;
- the **keyword score** ``ks`` — the weighted sum of the IR engine scores of
  the ``contains`` predicates the answer satisfies (each ``contains`` has
  weight 1 and an engine score in [0, 1], §4.1).

Theorem 3 (order invariance) holds by construction: both components are
aggregate functions of the multiset of weights/penalties of satisfied
predicates, independent of the order relaxations were applied in.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AnswerScore:
    """The (structural, keyword) score pair of one answer."""

    structural: float
    keyword: float

    def combined(self):
        return self.structural + self.keyword

    def __str__(self):
        return "(ss=%.3f, ks=%.3f)" % (self.structural, self.keyword)


class ScratchScore:
    """A reusable ``(structural, keyword)`` pair to hand ``scheme.sort_key``.

    The binary pipeline asks the scheme for a sort key per tuple when it
    prunes and per collision when it projects, and DPO's level walk one per
    match when it picks the K best; one scratch instance per phase,
    overwritten before each call, stands in for the ``AnswerScore`` each of
    those calls would otherwise allocate.  ``sort_key`` returns a fresh
    tuple, so nothing aliases the scratch value.
    """

    __slots__ = ("structural", "keyword")

    def combined(self):
        return self.structural + self.keyword


def structural_score(base_score, dropped_penalties):
    """``Σ w(p_i) − Σ π(p)`` over the dropped closure predicates."""
    return base_score - sum(dropped_penalties)


def keyword_score(ir_scores, weights=None):
    """Weighted sum of per-``contains`` IR scores (default weight 1)."""
    if weights is None:
        return sum(ir_scores)
    return sum(w * s for w, s in zip(weights, ir_scores))


class ScoredAnswer:
    """A query answer: the matched distinguished node plus its scores.

    ``relaxation_level`` records the schedule level at which the answer
    first qualified (0 = exact match); ``satisfied`` optionally carries the
    set of satisfied closure predicates for introspection.

    Given a ``node`` the answer holds that view.  The executor instead
    hands out ``node_id`` and the ``source`` whose ``node(id)`` makes the
    view, and ``node`` builds it on first read: ranking, merging and
    deduplication read ids and scores only, so a query pays for the views
    its caller reads and no others.  Equality compares ``node``,
    ``score``, ``relaxation_level`` and ``satisfied``, as the fields of a
    dataclass would.
    """

    __slots__ = (
        "node_id", "score", "relaxation_level", "satisfied", "_node", "_source",
    )
    __hash__ = None

    def __init__(self, node=None, score=None, relaxation_level=0,
                 satisfied=frozenset(), node_id=None, source=None):
        self._node = node
        self._source = source
        self.node_id = node_id if node is None else node.node_id
        self.score = score
        self.relaxation_level = relaxation_level
        self.satisfied = satisfied

    @property
    def node(self):
        node = self._node
        if node is None:
            node = self._node = self._source.node(self.node_id)
        return node

    @node.setter
    def node(self, node):
        self._node = node
        self.node_id = node.node_id

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.node, self.score, self.relaxation_level, self.satisfied
        ) == (other.node, other.score, other.relaxation_level, other.satisfied)

    def __repr__(self):
        return "ScoredAnswer(node=%d, %s, level=%d)" % (
            self.node_id,
            self.score,
            self.relaxation_level,
        )
