"""The three ranking schemes of §4.3 and their shared properties.

- **structure-first**: answers ordered by the pair ``(ss, ks)``
  lexicographically;
- **keyword-first**: ordered by ``(ks, ss)``;
- **combined**: ordered by an arithmetic combination, by default ``ss + ks``.

All three are instances of the Theorem 3 form (aggregates over weights of
satisfied predicates), hence order invariant; relevance scoring (property 1)
holds because penalties are non-negative, so relaxing never raises a
structural score.

The scheme also dictates evaluation strategy (§5.1):

- structure-first lets the algorithms stop as soon as K answers from the
  best levels are found (later levels only score lower);
- keyword-first forces **all** relaxations to be encoded — an answer with
  the worst structural score may still have the best keyword score;
- combined admits the §5.1 cut: with ``m`` contains predicates (weight 1,
  engine score ≤ 1 each), once levels ``Q_1..Q_i`` hold ≥ K answers, any
  level ``s`` with ``ss_s ≤ ss_i − m`` can be ignored.
"""

from __future__ import annotations


class RankingScheme:
    """Strategy interface: how to order answers and when to stop relaxing."""

    name = "abstract"

    #: keyword-first must see every relaxation level before it can rank.
    requires_all_relaxations = False

    def sort_key(self, score):
        """Return a tuple that sorts *descending* relevance first.

        Python sorts ascending, so callers use ``sorted(..., key=...,
        reverse=True)`` or negate; we standardize on reverse=True.
        """
        raise NotImplementedError

    def keyword_headroom(self, contains_count):
        """Maximum amount the keyword component can add beyond structure.

        Used by the §5.1 pruning rule for the combined scheme; zero for the
        lexicographic schemes (keyword never overturns structure there).
        """
        return 0.0

    def __repr__(self):
        return "<%s>" % self.name


class StructureFirst(RankingScheme):
    """Order by structural score, keyword score breaks ties."""

    name = "structure-first"

    def sort_key(self, score):
        return (score.structural, score.keyword)


class KeywordFirst(RankingScheme):
    """Order by keyword score, structural score breaks ties."""

    name = "keyword-first"
    requires_all_relaxations = True

    def sort_key(self, score):
        return (score.keyword, score.structural)


class Combined(RankingScheme):
    """Order by an arithmetic combination of the two scores (default sum)."""

    name = "combined"

    def __init__(self, combine=None):
        self._combine = combine

    def sort_key(self, score):
        if self._combine is None:
            value = score.structural + score.keyword
        else:
            value = self._combine(score.structural, score.keyword)
        return (value,)

    def keyword_headroom(self, contains_count):
        # Each contains predicate has weight 1 and an engine score in [0,1].
        return float(contains_count)


STRUCTURE_FIRST = StructureFirst()
KEYWORD_FIRST = KeywordFirst()
COMBINED = Combined()

#: Scheme name → built-in scheme; the names ``scheme_by_name`` accepts.
SCHEMES = {
    STRUCTURE_FIRST.name: STRUCTURE_FIRST,
    KEYWORD_FIRST.name: KEYWORD_FIRST,
    COMBINED.name: COMBINED,
}


def scheme_by_name(name):
    """Look up a built-in scheme ("structure-first", "keyword-first",
    "combined")."""
    try:
        return SCHEMES[name]
    except KeyError:
        raise ValueError(
            "unknown ranking scheme %r (choose from %s)"
            % (name, ", ".join(sorted(SCHEMES)))
        ) from None


def rank_answers(answers, scheme, k=None):
    """Sort scored answers by the scheme (descending); truncate to top-K."""
    ordered = sorted(
        answers,
        key=lambda answer: (scheme.sort_key(answer.score), -answer.node_id),
        reverse=True,
    )
    if k is not None:
        return ordered[:k]
    return ordered
