"""Ranking: scores, schemes, and ordering of answers."""

from repro.rank.schemes import (
    COMBINED,
    KEYWORD_FIRST,
    STRUCTURE_FIRST,
    Combined,
    rank_answers,
    scheme_by_name,
)
from repro.rank.scores import (
    AnswerScore,
    ScoredAnswer,
    keyword_score,
    structural_score,
)

__all__ = [
    "COMBINED",
    "KEYWORD_FIRST",
    "STRUCTURE_FIRST",
    "AnswerScore",
    "Combined",
    "ScoredAnswer",
    "keyword_score",
    "rank_answers",
    "scheme_by_name",
    "structural_score",
]
