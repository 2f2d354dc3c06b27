"""Differential check of the executor against a recording of its predecessor.

``binary_pipeline_recording.json`` was written by this module's
:func:`record` at the commit *before* the binary pipeline moved from node
views to node ids (``python -m tests.plans.test_binary_differential`` there),
and written again when existential joins became semi-joins: against the
first recording that change moved ``tuples_produced`` (down, in 309 plan runs
of 16 queries) and nothing else in any of the 525 runs.  It was written a
third time when the lowering began to order required joins before optional
ones: against a recording made just before, that moved Q3's SSO and Hybrid
runs under the structure-first and combined schemes and nothing else — their
``ExecutionStats`` (``tuples_produced`` 499 → 355) and one structural score
in its last bit, summed in the new join order.  That recording also replaced
the counters of the strict walks (DPO, its IR-first variant and the naive
baseline), held since the first recording as binary runs counted them, with
the twig operator's, which every strict plan has run under since; until then
the check skipped those counters.
It holds, for one seeded XMark document and a fixed query list — the paper's
Q1–Q3, seeded :class:`~repro.workload.WorkloadGenerator` patterns, and
hand-written wildcard / attribute-predicate / ``contains`` queries — what
every strategy × scheme returned: answer ids, scores (JSON floats are written
with ``repr``, which round-trips every bit), relaxation levels, a digest of
the satisfied-predicate sets, and the
:class:`~repro.plans.executor.ExecutionStats` of every plan run.
Everything here goes through the public ``Engine`` surface, so the same
code produced the recording and checks it.
"""

import hashlib
import json
import os

import pytest

from repro import Engine
from repro.workload import WorkloadGenerator
from repro.xmark import PAPER_QUERIES, generate_document

FIXTURE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "binary_pipeline_recording.json",
)

DOCUMENT_BYTES = 40_000
DOCUMENT_SEED = 11
WORKLOAD_SEED = 5
WORKLOAD_QUERIES = 24
K = 5

STRATEGIES = ("dpo", "sso", "hybrid", "naive", "ir-first")
SCHEMES = ("structure-first", "keyword-first", "combined")

HANDWRITTEN = (
    "//item/*[./parlist]",
    "//*[./mailbox/mail]",
    "//item[./*/text]",
    '//person[@id = "person1"]',
    '//item[@id = "item3" and ./description]',
    '//people/person[@id = "person1"]/name',
    '//item[./name and ./mailbox/mail[./text[.contains("gold")]]]',
    '//item[./description[.contains("vintage" or "rare")] and ./incategory]',
)


def queries():
    document = generate_document(target_bytes=DOCUMENT_BYTES, seed=DOCUMENT_SEED)
    generated = WorkloadGenerator(document, seed=WORKLOAD_SEED).generate(
        WORKLOAD_QUERIES
    )
    named = [(name, text) for name, text in sorted(PAPER_QUERIES.items())]
    named.extend(
        ("w%02d" % index, tpq.to_xpath()) for index, tpq in enumerate(generated)
    )
    named.extend(
        ("h%02d" % index, text) for index, text in enumerate(HANDWRITTEN)
    )
    return document, named


def observe(document, text):
    """Everything one query returns, per strategy × scheme, JSON-safe."""
    engine = Engine(document)
    observed = {}
    for strategy in STRATEGIES:
        for scheme in SCHEMES:
            result = engine.query(text, k=K, scheme=scheme, algorithm=strategy)
            satisfied = hashlib.sha1(
                repr(
                    [sorted(map(repr, answer.satisfied)) for answer in result.answers]
                ).encode()
            ).hexdigest()[:12]
            observed["%s/%s" % (strategy, scheme)] = {
                "answers": [
                    [
                        answer.node_id,
                        answer.score.structural,
                        answer.score.keyword,
                        answer.relaxation_level,
                    ]
                    for answer in result.answers
                ],
                "satisfied": satisfied,
                "stats": [
                    list(stats.as_dict().values()) for stats in result.stats
                ],
            }
    return observed


def record(path=FIXTURE):
    document, named = queries()
    recording = {
        name: {"query": text, "runs": observe(document, text)}
        for name, text in named
    }
    with open(path, "w") as handle:
        json.dump(recording, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")


NAMES = (
    sorted(PAPER_QUERIES)
    + ["w%02d" % index for index in range(WORKLOAD_QUERIES)]
    + ["h%02d" % index for index in range(len(HANDWRITTEN))]
)


@pytest.fixture(scope="module")
def corpus():
    document, named = queries()
    return document, dict(named)


@pytest.fixture(scope="module")
def recording():
    with open(FIXTURE) as handle:
        return json.load(handle)


def test_the_query_list_is_the_recorded_one(corpus, recording):
    _document, named = corpus
    assert sorted(named) == sorted(NAMES)
    assert {name: entry["query"] for name, entry in recording.items()} == named
    texts = " ".join(named.values())
    for feature in ("*", "@", "contains"):
        assert feature in texts


@pytest.mark.parametrize("name", NAMES)
def test_matches_the_parent_recording(corpus, recording, name):
    document, named = corpus
    observed = observe(document, named[name])
    expected = recording[name]["runs"]
    assert sorted(observed) == sorted(expected)
    for run in sorted(expected):
        assert observed[run] == expected[run], (name, named[name], run)


if __name__ == "__main__":
    record()
