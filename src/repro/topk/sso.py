"""SSO — Static Selectivity Order (§5.1.2, Algorithm 1), and the one
encoded-plan loop.

SSO never evaluates intermediate relaxation levels: it uses the selectivity
estimator to decide statically how many of the cheapest relaxations must be
encoded to yield at least K answers, asks the compiled artifact for the
plan encoding exactly those (Figure 8 style; lowered on that first ask),
and evaluates it once with threshold / ``maxScoreGrowth`` pruning.
Intermediate results are kept **sorted on score** — the re-sorting cost
that motivates Hybrid.

When the estimate was optimistic and fewer than K answers come back,
SSO restarts with more relaxations encoded (Algorithm 1, lines 11-13).

:meth:`SSO.execute` is the only encoded-plan loop in the package (Hybrid
is this class with the executor's bucket mode).  It runs the plan on every
source of the context through a :class:`~repro.topk.base.Scatter` and
restarts all of them together while the merged count stays under K: the
executor returns exactly ``min(K, true count)`` answers per source (its
threshold pruning keeps every potential top-K answer, and it makes
records for the K best alone), so the sum over sources reaches K exactly
when one unsharded run would.  Keeping a source's K best under its local
ids keeps its K best under global ids, because the sharded backend's
``translate_id`` is increasing within a shard.  There is no round after
the count reaches K, hence no K-th score to bound against — retiring
sources is a property of the level walk.

Like every strategy, SSO is stateless: per-query state lives in the
scatter's per-source :class:`~repro.topk.base.ExecutionSession`, plans in
the shared :class:`~repro.compiled.CompiledQuery`.
"""

from __future__ import annotations

from repro.plans.executor import SSO_MODE
from repro.rank.schemes import STRUCTURE_FIRST, rank_answers
from repro.rank.scores import ScoredAnswer
from repro.topk.base import Strategy, combined_level_cutoff


class SSO(Strategy):
    """Static Selectivity Order top-K evaluation."""

    name = "SSO"
    _mode = SSO_MODE
    # Bound on this class so that a tracer can wrap the encoded strategies'
    # entry point alone (benchmarks/e2e/spans.py patches this name).
    top_k = Strategy.top_k

    def choose_level(self, schedule, k, scheme, contains_count):
        """Pick the relaxation level to encode, from selectivity estimates.

        Walks the schedule accumulating estimated result sizes until K is
        reached (Algorithm 1, lines 3-7), then applies the scheme's policy:
        keyword-first encodes everything; combined extends to the §5.1
        cutoff.  The estimator is the context's, so under the sharded
        coordinator the choice is made once, from corpus-wide statistics.
        """
        estimator = self._context.estimator
        level = 0
        while level < len(schedule):
            estimate = estimator.estimate(schedule.level(level).query)
            if estimate >= k:
                break
            level += 1
        if scheme.requires_all_relaxations:
            return len(schedule)
        if scheme.keyword_headroom(contains_count) > 0:
            return combined_level_cutoff(schedule, level, contains_count)
        return level

    def execute(self, compiled, scatter, k, scheme=STRUCTURE_FIRST):
        """Run the encoded-plan evaluation (with restarts) — stateless."""
        schedule = compiled.schedule
        readdress = scatter.readdress

        level = self.choose_level(
            schedule, k, scheme, compiled.contains_count()
        )
        restarts = 0
        while True:
            results = scatter.run(
                compiled.encoded_plan(level),
                "encoded@level %d" % level,
                k=k,
                scheme=scheme,
                mode=self._mode,
            )
            count = sum(len(result.answers) for _, result in results)
            if count >= k or level >= len(schedule):
                break
            # Estimate was optimistic: drop more predicates and restart.
            level += 1
            restarts += 1

        if readdress is None:
            answers = [
                answer for _, result in results for answer in result.answers
            ]
        else:
            backend = scatter.context.backend
            answers = [
                ScoredAnswer(
                    score=answer.score,
                    relaxation_level=answer.relaxation_level,
                    satisfied=answer.satisfied,
                    node_id=readdress(index, answer.node_id),
                    source=backend,
                )
                for index, result in results
                for answer in result.answers
            ]
        return scatter.result(
            self.name, k, scheme, rank_answers(answers, scheme, k),
            relaxations_used=level, restarts=restarts,
        )
