"""The level walk builds answer records for the K best only.

A strict run hands back its ``{node id: keyword score}`` table, and DPO,
naive and IR-first keep the tables: a query builds at most K
``ScoredAnswer`` and K ``AnswerScore`` objects however many matches its
levels have, and ``Engine.exact`` builds none.
"""

from collections import Counter

import pytest

from repro import Engine
from repro.rank.scores import AnswerScore, ScoredAnswer
from repro.xmark import PAPER_QUERIES, generate_document

K = 12
#: The modules whose records are counted: the walk and the executor.
MODULES = ("repro.topk.dpo", "repro.plans.executor", "repro.topk.base")


@pytest.fixture(scope="module")
def engine():
    return Engine(generate_document(target_bytes=800_000, seed=1), cache=False)


@pytest.fixture
def built(monkeypatch):
    """Constructions of each record class in :data:`MODULES`, by class name."""
    counts = Counter()
    for cls in (ScoredAnswer, AnswerScore):
        counting = type(cls.__name__, (cls,), {
            "__init__": _counting_init(cls, counts),
            **({"__slots__": ()} if "__slots__" in vars(cls) else {}),
        })
        for module in MODULES:
            monkeypatch.setattr("%s.%s" % (module, cls.__name__), counting)
    return counts


def _counting_init(cls, counts):
    def __init__(self, *args, **kwargs):
        counts[cls.__name__] += 1
        cls.__init__(self, *args, **kwargs)
    return __init__


def test_level_zero_has_far_more_matches_than_k(engine):
    assert len(engine.exact(PAPER_QUERIES["Q1"])) > 10 * K


@pytest.mark.parametrize("algorithm", ["dpo", "naive", "ir-first"])
def test_a_walk_builds_at_most_k_records(engine, built, algorithm):
    result = engine.query(PAPER_QUERIES["Q1"], k=K, algorithm=algorithm)
    assert len(result.answers) == K
    assert built["ScoredAnswer"] <= K
    assert built["AnswerScore"] <= K


def test_exact_builds_no_record(engine, built):
    assert engine.exact(PAPER_QUERIES["Q1"])
    assert built == {}
