"""Naive query rewriting — the baseline the paper argues against.

§1 dismisses the "naive solution" of writing the relaxed queries by hand
and evaluating them all: "tedious and expensive ... in terms of repeated
processing of similar queries and, thus, of lost optimization
opportunities." §7 classifies it as the *rewriting strategy* of
[11, 15, 18, 30] without DPO's optimizations.

This implementation makes the baseline concrete so benchmarks can quantify
what DPO's bookkeeping and SSO's single-plan encoding buy:

- every schedule level is evaluated in full (no early stop at K);
- no answer-id memory across levels — the containment-implied duplicates
  are recomputed at every level and a node keeps its best-scoring
  appearance;
- all answers are collected and sorted once, at the end.

It is :meth:`repro.topk.dpo.DPO.execute` with the answer memory switched
off.  (Over several sources the scatter's ceiling rule still retires a
source that can no longer reach the top K — that is the coordinator's
saving, not the strategy's.)
"""

from __future__ import annotations

from repro.topk.dpo import DPO


class NaiveRewriting(DPO):
    """Evaluate every relaxation in full; sort everything at the end."""

    name = "NaiveRewriting"
    _remembers_answers = False
