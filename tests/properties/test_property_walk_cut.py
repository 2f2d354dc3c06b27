"""Property: the level walk's K-best cut equals ranking a record per match.

DPO, naive and IR-first keep each level's ``{node id: keyword score}``
table and build answer records for the K best only, picked by one
``heapq.nlargest`` over ``(sort key, -node id)``.  The reference here is
the walk that builds a record for every match, with the same levels,
answer memory and source retirement, and ranks them all with
``rank_answers(..., k)``.  The two must return the same ids, scores,
levels and satisfied-predicate sets in the same order — on documents of
identical siblings, so answers tie and the cut falls inside a tie — under
all three schemes, on one source and on two shards.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Engine
from repro.backend.sharded import RoundRobinRouter
from repro.collection import Corpus
from repro.rank import COMBINED, KEYWORD_FIRST, STRUCTURE_FIRST, rank_answers
from repro.rank.scores import AnswerScore, ScoredAnswer
from repro.topk import DPO, IRFirstDPO, NaiveRewriting
from repro.topk.base import combined_level_cutoff

from tests.properties.strategies import tree_patterns
from tests.properties.test_property_truncation import tied_documents

SCHEMES = (STRUCTURE_FIRST, KEYWORD_FIRST, COMBINED)
KS = (1, 3, 10)


class _RecordPerMatch:
    """The walk with a record per match and ``rank_answers`` at the end."""

    def execute(self, compiled, scatter, k, scheme=STRUCTURE_FIRST):
        schedule = compiled.schedule
        contains_count = compiled.contains_count()
        remembers = self._remembers_answers
        backend = scatter.context.backend
        sort_key = scheme.sort_key
        collected = []
        best = {}
        answers = collected if remembers else best.values()
        cutoff = len(schedule)
        reached_level = None
        last_level = 0
        for level in range(len(schedule) + 1):
            if level > cutoff or not scatter.runnable:
                break
            last_level = level
            query = schedule.level(level).query
            results = scatter.run(
                compiled.strict_plan(level), "level %d" % level,
                lambda session: self._source_arguments(session, query),
                mode=self._mode,
            )
            level_score = schedule.structural_score(level)
            for index, result in results:
                records = result.answers
                caller_ids = scatter.node_ids(
                    index, [answer.node_id for answer in records]
                )
                for answer, node_id in zip(records, caller_ids):
                    if remembers:
                        scatter.sessions[index].seen.add(answer.node_id)
                    scored = ScoredAnswer(
                        score=AnswerScore(level_score, answer.score.keyword),
                        relaxation_level=level,
                        satisfied=answer.satisfied,
                        node_id=node_id,
                        source=backend,
                    )
                    if remembers:
                        collected.append(scored)
                    else:
                        current = best.get(node_id)
                        if current is None or (
                            sort_key(scored.score) > sort_key(current.score)
                        ):
                            best[node_id] = scored
            if remembers and len(answers) >= k and reached_level is None:
                reached_level = level
                if scheme.requires_all_relaxations:
                    cutoff = len(schedule)
                elif scheme.keyword_headroom(contains_count) > 0:
                    cutoff = combined_level_cutoff(
                        schedule, reached_level, contains_count
                    )
                else:
                    cutoff = level
            if level < cutoff and len(answers) >= k:
                scatter.retire(
                    [sort_key(answer.score) for answer in answers], k, scheme,
                    schedule.structural_score(level + 1),
                )
        return scatter.result(
            self.name, k, scheme, rank_answers(answers, scheme, k),
            relaxations_used=last_level if remembers else len(schedule),
        )


class _ReferenceDPO(_RecordPerMatch, DPO):
    pass


class _ReferenceNaive(_RecordPerMatch, NaiveRewriting):
    pass


class _ReferenceIRFirst(_RecordPerMatch, IRFirstDPO):
    pass


PAIRS = (
    (DPO, _ReferenceDPO),
    (NaiveRewriting, _ReferenceNaive),
    (IRFirstDPO, _ReferenceIRFirst),
)


def _ranked(result):
    return [
        (answer.node_id, repr(answer.score), answer.relaxation_level,
         answer.satisfied)
        for answer in result.answers
    ]


def _engine(docs, shard_count):
    if shard_count == 1:
        corpus = Corpus()
        for index, doc in enumerate(docs):
            corpus.add_document(doc, name="doc%d" % index)
        return Engine(corpus, cache=False)
    engine = Engine.sharded(shard_count, router=RoundRobinRouter(),
                            cache=False)
    for index, doc in enumerate(docs):
        engine.backend.add_document(doc, name="doc%d" % index)
    return engine


@given(
    st.lists(tied_documents(), min_size=1, max_size=3),
    st.sampled_from((1, 2)),
    tree_patterns(),
)
@settings(max_examples=30, deadline=None)
def test_walk_cut_equals_ranking_every_match(docs, shard_count, query):
    engine = _engine(docs, shard_count)
    try:
        for strategy, reference in PAIRS:
            for scheme in SCHEMES:
                for k in KS:
                    got = strategy(engine.context).top_k(query, k, scheme)
                    expected = reference(engine.context).top_k(
                        query, k, scheme
                    )
                    label = (strategy.name, scheme.name, k)
                    assert _ranked(got) == _ranked(expected), label
                    assert got.levels_evaluated == expected.levels_evaluated
                    assert got.relaxations_used == expected.relaxations_used
    finally:
        engine.context.close()
