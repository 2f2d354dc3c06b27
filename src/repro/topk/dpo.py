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
:class:`~repro.topk.base.Scatter` — one source for a plain context, one
per shard under the coordinator — and merges what comes back, so the walk
is the same loop in both topologies.  The IR-first variant
(:mod:`repro.topk.ir_first`) adds per-source pool restrictions through
:meth:`DPO._source_arguments`; the naive baseline
(:mod:`repro.topk.naive`) switches off the answer memory and with it the
early stop.

The strategy object is stateless: everything per query rides the scatter's
per-source :class:`~repro.topk.base.ExecutionSession`, so one instance is
safely shared between threads.
"""

from __future__ import annotations

from repro.plans.executor import STRICT
from repro.rank.schemes import STRUCTURE_FIRST, rank_answers
from repro.rank.scores import AnswerScore, ScoredAnswer
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
        """Walk the schedule level by level over every source (stateless)."""
        schedule = compiled.schedule
        contains_count = compiled.contains_count()
        remembers = self._remembers_answers
        sessions = scatter.sessions
        readdress = scatter.readdress
        backend = scatter.context.backend
        sort_key = scheme.sort_key

        collected = []  # first appearance wins (answer memory on)
        best = {}  # best-scoring appearance per node (answer memory off)
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
                compiled.strict_plan(level),
                "level %d" % level,
                lambda session: self._source_arguments(session, query),
                mode=self._mode,
            )

            level_score = schedule.structural_score(level)
            for index, result in results:
                # The executor already left out the ids in ``seen``.
                seen = sessions[index].seen
                for answer in result.answers:
                    node_id = answer.node_id
                    if remembers:
                        seen.add(node_id)
                    if readdress is not None:
                        node_id = readdress(index, node_id)
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
                    cutoff = level  # structure-first: stop right here
            if level < cutoff and len(answers) >= k:
                scatter.retire(
                    answers, k, scheme, schedule.structural_score(level + 1)
                )

        return scatter.result(
            self.name, k, scheme, rank_answers(answers, scheme, k),
            relaxations_used=last_level if remembers else len(schedule),
        )
