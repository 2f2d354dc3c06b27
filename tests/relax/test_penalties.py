"""Predicate penalties (§4.3.1): formulas and corpus-statistic behaviour."""

import pytest

from repro.ir import IREngine
from repro.query import Ad, Pc, parse_query
from repro.relax import PenaltyModel, WeightAssignment
from repro.backend.stats import DocumentStatistics
from repro.xmltree import parse


@pytest.fixture(scope="module")
def doc():
    # Three a/b parent-child pairs plus one nested (ancestor-only) pair.
    return parse(
        "<r>"
        "<a><b>gold here</b></a>"
        "<a><b>plain</b></a>"
        "<a><b>plain</b></a>"
        "<a><c><b>gold deep</b></c></a>"
        "<a><c>nothing</c></a>"
        "</r>"
    )


@pytest.fixture(scope="module")
def model(doc):
    return PenaltyModel(DocumentStatistics(doc), IREngine(doc))


class TestPcPenalty:
    def test_formula(self, model):
        query = parse_query("//a/b")
        predicate = Pc("$1", "$2")
        # #pc(a,b)=3, #ad(a,b)=4 -> penalty 3/4.
        assert model.pc_drop_penalty(query, predicate) == pytest.approx(0.75)

    def test_all_pairs_pc_gives_full_weight(self, doc):
        model = PenaltyModel(DocumentStatistics(doc))
        query = parse_query("//a/c")
        # every (a,c) pair is parent-child: ratio 1 -> relaxing gains nothing.
        assert model.pc_drop_penalty(query, Pc("$1", "$2")) == pytest.approx(1.0)

    def test_unknown_tags_full_weight(self, model):
        query = parse_query("//x/y")
        assert model.pc_drop_penalty(query, Pc("$1", "$2")) == 1.0


class TestAdPenalty:
    def test_formula(self, model):
        query = parse_query("//a//b")
        predicate = Ad("$1", "$2")
        # #ad(a,b)=4, #(a)=5, #(b)=4 -> 4/20.
        assert model.ad_drop_penalty(query, predicate) == pytest.approx(0.2)

    def test_zero_tag_counts_full_weight(self, model):
        query = parse_query("//x//y")
        assert model.ad_drop_penalty(query, Ad("$1", "$2")) == 1.0


class TestContainsPenalty:
    def test_formula(self, doc, model):
        query = parse_query('//a[./b[.contains("gold")]]')
        predicate = query.contains[0]
        # #contains(b,gold)=2, #contains(a,gold)=2 -> 1.0
        assert model.contains_drop_penalty(query, predicate) == pytest.approx(1.0)

    def test_broadening_lowers_penalty(self, doc):
        # 'deep' appears under one b and (via c) one a; from b to a context
        # count stays equal here, so craft the opposite: 'nothing' in c only.
        model = PenaltyModel(DocumentStatistics(doc), IREngine(doc))
        query = parse_query('//a[./c[.contains("gold")]]')
        predicate = query.contains[0]
        # #contains(c,gold)=1, #contains(a,gold)=2 -> 0.5
        assert model.contains_drop_penalty(query, predicate) == pytest.approx(0.5)

    def test_no_ir_engine_gives_full_weight(self, doc):
        model = PenaltyModel(DocumentStatistics(doc), ir_engine=None)
        query = parse_query('//a[./b[.contains("gold")]]')
        assert model.contains_drop_penalty(query, query.contains[0]) == 1.0


class TestWeights:
    def test_uniform_default(self):
        weights = WeightAssignment()
        assert weights.weight(Pc("$1", "$2")) == 1.0

    def test_overrides(self):
        predicate = Pc("$1", "$2")
        weights = WeightAssignment(default=1.0, overrides={predicate: 5.0})
        assert weights.weight(predicate) == 5.0
        assert weights.weight(Pc("$2", "$3")) == 1.0

    def test_weights_scale_penalties(self, doc):
        query = parse_query("//a/b")
        predicate = Pc("$1", "$2")
        stats = DocumentStatistics(doc)
        heavy = PenaltyModel(stats, weights=WeightAssignment(default=4.0))
        light = PenaltyModel(stats, weights=WeightAssignment(default=1.0))
        assert heavy.pc_drop_penalty(query, predicate) == pytest.approx(
            4 * light.pc_drop_penalty(query, predicate)
        )

    def test_penalty_never_exceeds_weight(self, model):
        query = parse_query('//a[./b[.contains("gold")]]')
        for predicate in (Pc("$1", "$2"), Ad("$1", "$2"), query.contains[0]):
            assert model.penalty(query, predicate) <= 1.0 + 1e-9

    def test_dispatch_rejects_tags(self, model):
        from repro.query import Tag

        query = parse_query("//a/b")
        with pytest.raises(TypeError):
            model.penalty(query, Tag("$1", "a"))
