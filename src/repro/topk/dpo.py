"""DPO — Dynamic Penalty Order (§5.1.1), and the one level walk.

DPO walks the relaxation schedule one level at a time, evaluating each
level's query with a strict plan (this is the algorithm designed to work
with off-the-shelf XPath and IR engines). After each level it counts the
accumulated distinct answers and stops as soon as K are available.

Properties reproduced from the paper:

- answers of a later level always score at or below answers of an earlier
  level, so an answer keeps the score of the level it first appeared at
  (structure-first scheme);
- the structural score of every answer of one level is known at compile
  time — the level's score from the schedule;
- recomputation across levels is avoided by remembering answer ids already
  produced (the paper's "vectors of answer lists").

For keyword-first ranking every level must be evaluated; for the combined
scheme the §5.1 cutoff limits how far past the K-th answer DPO walks.

:meth:`DPO.execute` is the only level walk in the package.  It runs each
level on every source of the context through a
:class:`~repro.topk.base.Scatter` — one source for a plain backend, one
per shard of a sharded one — and merges what comes back, so the walk is
the same loop in both topologies.  The IR-first variant
(:mod:`repro.topk.ir_first`) adds per-source pool restrictions through
:meth:`DPO._source_arguments`; the naive baseline
(:mod:`repro.topk.naive`) switches off the answer memory and with it the
early stop.

The strategy object is stateless: everything per query rides the scatter's
per-source :class:`~repro.topk.base.ExecutionSession`, so one instance is
safely shared between threads.
"""

from __future__ import annotations

import heapq

from repro.plans.executor import STRICT
from repro.rank.schemes import STRUCTURE_FIRST, rank_answers
from repro.rank.scores import AnswerScore, ScoredAnswer, ScratchScore
from repro.topk.base import Strategy, combined_level_cutoff


class DPO(Strategy):
    """Dynamic Penalty Order top-K evaluation."""

    name = "DPO"
    _mode = STRICT
    # Bound on this class so that a tracer can wrap the walking strategies'
    # entry point alone (benchmarks/e2e/spans.py patches this name).
    top_k = Strategy.top_k

    #: Remember answer ids across levels: an answer counts once, at the
    #: level it first appears, and the walk stops once K are in hand.
    #: Without the memory (the naive baseline) every level is evaluated in
    #: full and a node keeps its best-scoring appearance.
    _remembers_answers = True

    def _source_arguments(self, session, query):
        """Executor arguments that differ by source for one level's plan.

        Answers of earlier levels are excluded inside the executor as soon
        as the answer variable binds — the paper's §5.2.2 trick for
        avoiding recomputation across successive relaxations.
        """
        if self._remembers_answers:
            return {"exclude_answer_ids": session.seen}
        return {}

    def execute(self, compiled, scatter, k, scheme=STRUCTURE_FIRST):
        """Walk the schedule level by level over every source (stateless).

        A level's strict run hands back its ``{node id: keyword score}``
        table, and the walk keeps the tables: answer records are built at
        the end, for the K best only.
        """
        schedule = compiled.schedule
        contains_count = compiled.contains_count()
        remembers = self._remembers_answers
        sessions = scatter.sessions
        sort_key = scheme.sort_key
        score = ScratchScore()

        # An answer's origin is (level, structural score, satisfied).
        runs = []  # answer memory on: (origin, caller ids, table) per run
        best = {}  # memory off: caller id → (sort key, ks, origin), the best
        found = 0  # distinct answers so far
        cutoff = len(schedule)
        reached_level = None
        last_level = 0

        def ranked():
            """``(sort key, −caller id, ks, origin)`` per answer: the
            ``rank_answers`` order, ties broken by the lower id."""
            if not remembers:
                for node_id, (key, ks, origin) in best.items():
                    yield key, -node_id, ks, origin
                return
            for origin, ids, table in runs:
                score.structural = origin[1]
                for node_id, ks in zip(ids, table.values()):
                    score.keyword = ks
                    yield sort_key(score), -node_id, ks, origin

        for level in range(len(schedule) + 1):
            if level > cutoff or not scatter.runnable:
                break
            last_level = level
            query = schedule.level(level).query
            results = scatter.run(
                compiled.strict_plan(level),
                "level %d" % level,
                lambda session: self._source_arguments(session, query),
                mode=self._mode,
            )

            level_score = schedule.structural_score(level)
            for index, result in results:
                # The executor already left out the ids in ``seen``.
                table = result.matches
                ids = scatter.node_ids(index, table)
                origin = (level, level_score, result.satisfied)
                if remembers:
                    sessions[index].seen.update(table)
                    runs.append((origin, ids, table))
                    found += len(table)
                    continue
                score.structural = level_score
                for node_id, ks in zip(ids, table.values()):
                    score.keyword = ks
                    key = sort_key(score)
                    current = best.get(node_id)
                    if current is None or key > current[0]:
                        best[node_id] = (key, ks, origin)
            if not remembers:
                found = len(best)

            if remembers and found >= k and reached_level is None:
                reached_level = level
                if scheme.requires_all_relaxations:
                    cutoff = len(schedule)
                elif scheme.keyword_headroom(contains_count) > 0:
                    cutoff = combined_level_cutoff(
                        schedule, reached_level, contains_count
                    )
                else:
                    cutoff = level  # structure-first: stop right here
            if level < cutoff and found >= k:
                scatter.retire(
                    (item[0] for item in ranked()), k, scheme,
                    schedule.structural_score(level + 1),
                )

        backend = scatter.context.backend
        answers = [
            ScoredAnswer(
                score=AnswerScore(origin[1], ks),
                relaxation_level=origin[0],
                satisfied=origin[2],
                node_id=-negated_id,
                source=backend,
            )
            for _key, negated_id, ks, origin in heapq.nlargest(k, ranked())
        ]
        # Already in rank order: ``rank_answers`` sorts the K records in
        # one pass, and is the name a tracer wraps to time the rank layer
        # (benchmarks/e2e/spans.py patches ``repro.topk.dpo.rank_answers``).
        return scatter.result(
            self.name, k, scheme, rank_answers(answers, scheme),
            relaxations_used=last_level if remembers else len(schedule),
        )
