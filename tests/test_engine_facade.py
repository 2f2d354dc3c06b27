"""The serving entry point: ``Engine``, and ``FleXPath`` as its first name."""

import pytest

from repro import Corpus, Engine, FleXPath, FleXPathError, QueryTimeoutError
from repro.rank import STRUCTURE_FIRST
from repro.xmltree import parse
from repro.xmltree.storage import dump_document
from tests.conftest import LIBRARY_XML

PARITY_QUERY = (
    '//article[.//algorithm and ./section[./paragraph'
    ' and .contains("XML" and "streaming")]]'
)


def _from_xml(cls, tmp_path, **kwargs):
    return cls.from_xml(LIBRARY_XML, **kwargs)


def _from_file(cls, tmp_path, **kwargs):
    path = tmp_path / "library.xml"
    path.write_text(LIBRARY_XML, encoding="utf-8")
    return cls.from_file(str(path), **kwargs)


def _from_files(cls, tmp_path, **kwargs):
    path = tmp_path / "library.xml"
    path.write_text(LIBRARY_XML, encoding="utf-8")
    return cls.from_files([path], **kwargs)


def _from_corpus(cls, tmp_path, **kwargs):
    corpus = Corpus()
    corpus.add_text(LIBRARY_XML)
    return cls.from_corpus(corpus, **kwargs)


def _from_dump(cls, tmp_path, **kwargs):
    path = tmp_path / "library.fxd"
    dump_document(parse(LIBRARY_XML), path)
    return cls.from_dump(path, **kwargs)


def _direct(cls, tmp_path, **kwargs):
    return cls(parse(LIBRARY_XML), **kwargs)


CONSTRUCTORS = [_from_xml, _from_file, _from_files, _from_corpus, _from_dump,
                _direct]

# Every historical entry point, reduced to something comparable.
ENTRY_POINTS = {
    "query": lambda e: e.query(PARITY_QUERY, k=3).node_ids(),
    "query_tpq": lambda e: e.query(
        e.relaxations(PARITY_QUERY).level(0).query, k=3).node_ids(),
    "query_many": lambda e: [
        result.node_ids()
        for result in e.query_many([PARITY_QUERY, "//book"], k=3, workers=2)
    ],
    "exact": lambda e: [node.node_id for node in e.exact(PARITY_QUERY)],
    "keyword_search": lambda e: [
        (match.node.node_id, match.score)
        for match in e.keyword_search('"streaming" and "xml"', k=5)
    ],
    "relaxations": lambda e: e.relaxations(PARITY_QUERY).describe(),
    "explain": lambda e: e.explain(PARITY_QUERY, k=5, scheme="combined"),
    "connect": lambda e: e.connect().query(PARITY_QUERY, k=3).node_ids(),
    "cache_info": lambda e: sorted(e.cache_info()),
    "accessors": lambda e: (
        e.corpus is None, e.document is e.context.document,
        e.backend is e.context.backend, e.lock is e.context.rwlock,
        sorted(e.algorithms),
    ),
}


@pytest.mark.parametrize("cls", [Engine, FleXPath])
class TestFacadeParity:
    """``FleXPath`` is ``Engine``: same constructors, same entry points."""

    @pytest.mark.parametrize("build", CONSTRUCTORS)
    def test_constructors_forward_every_keyword(self, cls, build, tmp_path):
        engine = build(cls, tmp_path, result_cache_size=7, plan_cache_size=5)
        assert type(engine) is cls
        assert isinstance(engine, Engine)
        assert engine.result_cache.max_entries == 7
        assert engine.context.plan_cache.max_entries == 5
        assert len(engine.query("//article", k=3).answers) == 3
        uncached = build(cls, tmp_path, cache=False)
        assert uncached.result_cache is None
        assert uncached.context.eval_cache.enabled is False

    @pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
    def test_entry_points_agree_with_engine(self, cls, entry_point):
        call = ENTRY_POINTS[entry_point]
        assert call(cls.from_xml(LIBRARY_XML)) == call(
            Engine.from_xml(LIBRARY_XML)
        )

    def test_deadline_is_forwarded(self, cls):
        with pytest.raises(QueryTimeoutError):
            cls.from_xml(LIBRARY_XML).query(PARITY_QUERY, deadline_ms=1e-6)


def test_flexpath_accessors():
    facade = FleXPath.from_xml(LIBRARY_XML)
    assert facade.engine is facade
    assert facade.parse("//article") == facade.parse("//article")
    assert facade.context is facade.engine.context
    assert facade.result_cache is facade.engine.result_cache


class TestQueryInterface:
    def test_string_query(self, library_engine):
        result = library_engine.query("//article", k=3)
        assert len(result.answers) == 3

    def test_tpq_query(self, library_engine):
        tpq = library_engine.parse("//article")
        result = library_engine.query(tpq, k=2)
        assert len(result.answers) == 2

    def test_scheme_by_name(self, library_engine):
        result = library_engine.query("//article", k=2, scheme="keyword-first")
        assert result.scheme.name == "keyword-first"

    def test_all_algorithms_accessible(self, library_engine):
        for algorithm in ("dpo", "sso", "hybrid", "DPO", "Hybrid"):
            result = library_engine.query("//article", k=1, algorithm=algorithm)
            assert result.answers

    def test_unknown_algorithm_raises(self, library_engine):
        with pytest.raises(FleXPathError, match="unknown algorithm"):
            library_engine.query("//article", k=1, algorithm="quantum")

    def test_unknown_scheme_raises(self, library_engine):
        with pytest.raises(ValueError):
            library_engine.query("//article", k=1, scheme="alphabetical")

    def test_bad_query_type_raises(self, library_engine):
        with pytest.raises(FleXPathError):
            library_engine.query(42, k=1)

    def test_max_relaxations_forwarded(self, library_engine):
        query = (
            '//article[.//algorithm and ./section[./paragraph'
            ' and .contains("XML" and "streaming")]]'
        )
        capped = library_engine.query(query, k=50, max_relaxations=0)
        assert capped.relaxations_used == 0


class TestExact:
    def test_exact_matches_strict_semantics(self, library_engine):
        query = (
            '//article[.//algorithm and ./section[./paragraph'
            ' and .contains("XML" and "streaming")]]'
        )
        nodes = library_engine.exact(query)
        assert len(nodes) == 2

    def test_exact_returns_document_order(self, library_engine):
        nodes = library_engine.exact("//section")
        ids = [n.node_id for n in nodes]
        assert ids == sorted(ids)


class TestIntrospection:
    def test_relaxations(self, library_engine):
        schedule = library_engine.relaxations("//article[./section/paragraph]")
        assert len(schedule) >= 1

    def test_explain_mentions_scheme_and_levels(self, library_engine):
        text = library_engine.explain("//article[./section/paragraph]", k=5)
        assert "ranking scheme" in text
        assert "level 0" in text

    def test_context_exposed(self, library_engine):
        assert library_engine.context.document is library_engine.document


class TestKeywordSearch:
    def test_returns_ranked_matches(self, library_engine):
        matches = library_engine.keyword_search('"streaming" and "xml"', k=5)
        assert matches
        scores = [m.score for m in matches]
        assert scores == sorted(scores, reverse=True)

    def test_respects_k(self, library_engine):
        assert len(library_engine.keyword_search('"xml"', k=1)) == 1

    def test_no_matches(self, library_engine):
        assert library_engine.keyword_search('"nonexistentword"') == []

    def test_most_specific_semantics(self, library_engine):
        matches = library_engine.keyword_search('"streaming"', k=50)
        ids = {m.node.node_id for m in matches}
        document = library_engine.document
        for match in matches:
            for descendant in document.descendants(match.node):
                assert descendant.node_id not in ids


class TestCustomWeights:
    def test_weights_change_scores(self):
        from repro import FleXPath, WeightAssignment
        from tests.conftest import LIBRARY_XML

        heavy = FleXPath.from_xml(
            LIBRARY_XML, weights=WeightAssignment(default=5.0)
        )
        result = heavy.query(
            '//article[./section[./paragraph and .contains("XML")]]', k=2
        )
        assert result.answers[0].score.structural == pytest.approx(10.0)


class TestEndToEnd:
    def test_flexible_beats_strict_on_library(self, library_engine):
        query = (
            '//article[.//algorithm and ./section[./paragraph'
            ' and .contains("XML" and "streaming")]]'
        )
        strict = library_engine.exact(query)
        result = library_engine.query(query, k=3)
        assert len(result.answers) == 3 > len(strict)

    def test_results_ranked_by_scheme(self, library_engine):
        query = (
            '//article[.//algorithm and ./section[./paragraph'
            ' and .contains("XML" and "streaming")]]'
        )
        result = library_engine.query(query, k=3)
        keys = [STRUCTURE_FIRST.sort_key(a.score) for a in result.answers]
        assert keys == sorted(keys, reverse=True)
