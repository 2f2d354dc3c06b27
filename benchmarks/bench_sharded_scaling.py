"""Sharded scatter-gather scaling: 1 / 2 / 4 shards on a skewed corpus.

The workload is deliberately skewed: every document carrying the marker
term lands on shard 0 (indices ≡ 0 mod 4 under the round-robin router),
so under keyword-first ranking the other shards' maxScoreGrowth keyword
ceiling is ~0 once K answers are in hand — the merge prunes them after
the strict round and only shard 0 walks the rest of the relaxation
schedule.  The 1-shard configuration is the degenerate topology (whole
corpus in one shard, nothing to prune), so the 4-vs-1 ratio isolates the
early-termination win rather than thread parallelism (which the GIL
denies to pure-Python scatter anyway).

``test_sharded_speedup_gate`` is the CI gate from the issue: ≥1.5×
median speedup at 4 shards with at least one shard pruned.
"""

import statistics
from time import perf_counter

import pytest

from repro.backend.sharded import RoundRobinRouter, ShardedBackend
from repro.engine import Engine
from repro.xmltree import parse

SHARD_COUNTS = (1, 2, 4)
MARKER = "xylograph"
QUERY = '//a[./b[.contains("%s")] and ./c[./d]]' % MARKER
K = 3
# Sized so the per-shard relaxation walk, not the scatter's thread hand-off,
# is what a query spends its time on: since contains probes stopped stemming
# per call a 64-document corpus answers in ~2.5 ms and the gate below read
# 1.4-1.7x from run to run; at 256 documents it reads 1.8-2.1x.
DOC_COUNT = 256
FILLERS = ("gold", "ring", "vintage", "chair", "stamp", "coin")


def _document(index):
    """Six <a><b>..</b><c>..</c></a> items; every 4th doc carries the marker."""
    parts = ["<root>"]
    for child in range(6):
        if index % 4 == 0 and child == 0:
            word = MARKER
        else:
            word = FILLERS[(index + child) % len(FILLERS)]
        parts.append(
            "<a><b>%s payload %d</b><c><d>%s extra</d></c></a>"
            % (word, index, FILLERS[(index * 7 + child) % len(FILLERS)])
        )
    parts.append("</root>")
    return parse("".join(parts))


def _engine(shard_count):
    backend = ShardedBackend.in_memory(
        shard_count, router=RoundRobinRouter()
    )
    for index in range(DOC_COUNT):
        backend.add_document(_document(index), name="doc%d" % index)
    # Caching off: the timing loops re-run the identical query, so any
    # result/eval-cache hit would measure the cache, not the scatter.
    return Engine(backend, cache=False)


@pytest.fixture(scope="module")
def engines():
    return {count: _engine(count) for count in SHARD_COUNTS}


def _run(engine):
    return engine.query(QUERY, k=K, scheme="keyword-first", algorithm="dpo")


@pytest.mark.parametrize("shard_count", SHARD_COUNTS)
def test_sharded_scaling(benchmark, engines, shard_count):
    engine = engines[shard_count]
    result = benchmark.pedantic(
        lambda: _run(engine), rounds=5, warmup_rounds=1
    )
    assert len(result.answers) == K
    benchmark.extra_info["shard_count"] = shard_count
    benchmark.extra_info["shard_rounds"] = result.shard_rounds
    benchmark.extra_info["shards_pruned"] = result.shards_pruned


def _median_seconds(engine, rounds=5):
    _run(engine)  # warm the plan cache and the IR postings
    samples = []
    for _ in range(rounds):
        start = perf_counter()
        _run(engine)
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def test_sharded_speedup_gate(engines):
    """The issue's acceptance gate: ≥1.5× at 4 shards, with real pruning."""
    result = _run(engines[4])
    assert result.shards_pruned >= 1, "skewed workload pruned no shard"
    flat = _median_seconds(engines[1])
    sharded = _median_seconds(engines[4])
    speedup = flat / sharded
    assert speedup >= 1.5, (
        "4-shard scatter-gather only %.2fx faster than unsharded"
        " (flat %.1fms, sharded %.1fms)"
        % (speedup, flat * 1e3, sharded * 1e3)
    )


def test_sharded_answers_match_unsharded(engines):
    """The speedup is not bought with answers: 1/2/4 shards agree."""
    reference = [
        (round(a.score.structural, 9), round(a.score.keyword, 9))
        for a in _run(engines[1]).answers
    ]
    for count in SHARD_COUNTS[1:]:
        got = [
            (round(a.score.structural, 9), round(a.score.keyword, 9))
            for a in _run(engines[count]).answers
        ]
        assert got == reference, "%d shards diverged" % count
