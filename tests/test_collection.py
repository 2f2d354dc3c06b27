"""Document collections: virtual roots, incremental ingest, attribution."""

import pytest

from repro import FleXPath, parse_query
from repro.collection import Corpus, DocumentCollection
from repro.errors import FleXPathError
from repro.xmltree import parse

TEXTS = [
    "<article><title>alpha xml</title></article>",
    "<article><title>beta json</title></article>",
    "<report><summary>gamma xml</summary></report>",
]


@pytest.fixture()
def collection():
    return DocumentCollection.from_texts(TEXTS, names=["a", "b", "c"])


class TestConstruction:
    def test_combined_under_virtual_root(self, collection):
        doc = collection.document
        assert doc.root.tag == "collection"
        assert doc.count("article") == 2
        assert doc.count("report") == 1

    def test_default_names(self):
        collection = DocumentCollection.from_texts(TEXTS)
        assert collection.names == ["doc0", "doc1", "doc2"]

    def test_length(self, collection):
        assert len(collection) == 3

    def test_empty_rejected(self):
        with pytest.raises(FleXPathError):
            DocumentCollection.from_texts([])

    def test_name_mismatch_rejected(self):
        with pytest.raises(FleXPathError):
            DocumentCollection.from_texts(TEXTS, names=["only-one"])

    def test_from_files(self, tmp_path):
        paths = []
        for index, text in enumerate(TEXTS):
            path = tmp_path / ("doc%d.xml" % index)
            path.write_text(text)
            paths.append(str(path))
        collection = DocumentCollection.from_files(paths)
        assert len(collection) == 3
        assert collection.document.count("article") == 2

    def test_texts_preserved(self, collection):
        doc = collection.document
        titles = [n.text for n in doc.nodes_with_tag("title")]
        assert titles == ["alpha xml", "beta json"]

    def test_attributes_preserved(self):
        collection = DocumentCollection.from_texts(
            ['<a id="one"><b k="v"/></a>']
        )
        doc = collection.document
        assert doc.nodes_with_tag("a")[0].attributes == {"id": "one"}
        assert doc.nodes_with_tag("b")[0].attributes == {"k": "v"}


class TestSourceAttribution:
    def test_source_of(self, collection):
        doc = collection.document
        for node in doc.nodes_with_tag("title"):
            assert collection.source_of(node) in ("a", "b")
        summary = doc.nodes_with_tag("summary")[0]
        assert collection.source_of(summary) == "c"

    def test_virtual_root_has_no_source(self, collection):
        assert collection.source_of(collection.document.root) is None

    def test_root_of(self, collection):
        assert collection.root_of("c").tag == "report"
        with pytest.raises(FleXPathError):
            collection.root_of("missing")


class TestIncrementalIngest:
    def test_add_document_splices_without_reparse(self):
        corpus = Corpus()
        fragment = parse("<article><title>alpha</title></article>")
        node = corpus.add_document(fragment, name="a")
        assert node.tag == "article"
        assert corpus.document.count("article") == 1
        # The original fragment is untouched.
        assert fragment.root.node_id == 0
        assert len(fragment) == 2

    def test_incremental_matches_batch(self):
        batch = DocumentCollection.from_texts(TEXTS, names=["a", "b", "c"])
        corpus = Corpus()
        for name, text in zip(["a", "b", "c"], TEXTS):
            corpus.add_document(parse(text), name=name)
        assert (
            corpus.document.stats_summary()
            == batch.document.stats_summary()
        )
        for original, copy in zip(
            batch.document.nodes(), corpus.document.nodes()
        ):
            assert original.tag == copy.tag
            assert original.text == copy.text
            assert (original.start, original.end, original.level) == (
                copy.start,
                copy.end,
                copy.level,
            )
        assert corpus.names == batch.names

    def test_subscribers_see_contiguous_ranges(self):
        corpus = Corpus()
        ranges = []
        corpus.subscribe(lambda c, start, end: ranges.append((start, end)))
        corpus.add_text(TEXTS[0])
        corpus.add_text(TEXTS[1])
        assert ranges[0][0] == 1  # first append starts after the root
        assert ranges[0][1] == ranges[1][0]
        assert ranges[-1][1] == len(corpus.document)

    def test_engine_sees_documents_added_after_construction(self):
        corpus = DocumentCollection.from_texts(TEXTS, names=["a", "b", "c"])
        engine = FleXPath(corpus)
        assert engine.keyword_search('"delta"') == []
        corpus.add_text(
            "<article><title>delta xml</title></article>", name="d"
        )
        matches = engine.keyword_search('"delta"', k=5)
        assert matches
        assert corpus.source_of(matches[0].node) == "d"
        result = engine.query('//article[.contains("delta")]', k=5)
        assert "d" in {corpus.source_of(a.node) for a in result.answers}

    def test_extended_index_matches_rebuild(self):
        from repro.ir import InvertedIndex

        corpus = Corpus()
        engine = FleXPath(corpus)
        for text in TEXTS:
            corpus.add_text(text)
        fresh = InvertedIndex(corpus.document)
        live = engine.context.ir.index
        assert live.vocabulary_size == fresh.vocabulary_size
        assert live.text_element_count == fresh.text_element_count
        for term in ("alpha", "beta", "gamma", "xml", "json"):
            assert live.direct_nodes_with_term(
                term
            ) == fresh.direct_nodes_with_term(term)

    def test_extended_statistics_match_rebuild(self):
        from repro.backend.stats import DocumentStatistics

        corpus = Corpus()
        engine = FleXPath(corpus)
        for text in TEXTS:
            corpus.add_text(text)
        # The context excludes the virtual collection root (node 0) from its
        # live statistics; build the from-scratch reference the same way.
        fresh = DocumentStatistics(corpus.document, virtual_root_id=0)
        live = engine.context.statistics
        pairs = [
            ("collection", "article"),
            ("article", "title"),
            ("report", "summary"),
            (None, "title"),
            ("collection", None),
            (None, None),
        ]
        for first, second in pairs:
            assert live.pc_count(first, second) == fresh.pc_count(first, second)
            assert live.ad_count(first, second) == fresh.ad_count(first, second)
            assert live.pc_parent_count(first, second) == fresh.pc_parent_count(
                first, second
            )
            assert live.ad_ancestor_count(
                first, second
            ) == fresh.ad_ancestor_count(first, second)
        for tag in ("article", "title", "report", None):
            assert live.tag_count(tag) == fresh.tag_count(tag)

    def test_backwards_extension_rejected(self):
        from repro.ir import InvertedIndex
        from repro.backend.stats import DocumentStatistics

        doc = parse(TEXTS[0])
        with pytest.raises(ValueError):
            InvertedIndex(doc).extend(0)
        with pytest.raises(ValueError):
            DocumentStatistics(doc).extend(0)

    def test_query_results_stable_across_adds(self):
        corpus = Corpus()
        engine = FleXPath(corpus)
        corpus.add_text(TEXTS[0], name="a")
        first = engine.query('//article[.contains("xml")]', k=5)
        assert first.answers
        assert first.answers[0].node.tag == "article"
        corpus.add_text(TEXTS[1], name="b")
        corpus.add_text(TEXTS[2], name="c")
        second = engine.query('//article[.contains("xml")]', k=5)
        assert first.answers[0].node_id in second.node_ids()


class TestQueryingCollections:
    def test_flexpath_over_collection(self, collection):
        engine = FleXPath(collection.document)
        result = engine.query('//article[.contains("xml")]', k=5)
        sources = {collection.source_of(a.node) for a in result.answers}
        assert "a" in sources

    def test_keyword_search_spans_documents(self, collection):
        engine = FleXPath(collection.document)
        matches = engine.keyword_search('"xml"', k=10)
        sources = {collection.source_of(m.node) for m in matches}
        assert sources == {"a", "c"}


class TestVirtualRootExclusion:
    """A one-document corpus must behave statistically like the document
    queried stand-alone: the all-spanning virtual collection root would
    otherwise join every tag-pair count, satisfy every expression, and
    skew the §4.3.1 penalties toward 0."""

    XML = (
        "<article>"
        "<section><title>xml basics</title>"
        "<paragraph>xml streaming content</paragraph></section>"
        "<section><paragraph>unrelated text</paragraph></section>"
        "</article>"
    )
    QUERY = '//article[./section[./paragraph and .contains("xml")]]'

    def _engines(self):
        single = FleXPath.from_xml(self.XML)
        corpus = Corpus()
        corpus.add_text(self.XML, name="only")
        return single, FleXPath(corpus)

    def test_count_satisfying_excludes_collection_root(self):
        from repro.ir import parse_ftexpr

        single, on_corpus = self._engines()
        expr = parse_ftexpr('"xml"')
        assert on_corpus.context.ir.count_satisfying(
            expr
        ) == single.context.ir.count_satisfying(expr)

    def test_statistics_exclude_collection_root(self):
        single, on_corpus = self._engines()
        live = on_corpus.context.statistics
        reference = single.context.statistics
        assert live.total_elements == reference.total_elements
        assert live.tag_count(None) == reference.tag_count(None)
        for pair in [("article", "section"), (None, "paragraph"), (None, None)]:
            assert live.pc_count(*pair) == reference.pc_count(*pair)
            assert live.ad_count(*pair) == reference.ad_count(*pair)

    def test_one_document_corpus_penalties_match_single_document(self):
        single, on_corpus = self._engines()
        query = parse_query(self.QUERY)
        reference = single.context.schedule(query)
        live = on_corpus.context.schedule(query)
        assert len(live) == len(reference)
        for level in range(len(reference) + 1):
            assert live.structural_score(level) == pytest.approx(
                reference.structural_score(level)
            )

    def test_same_answers_and_scores_either_way(self):
        single, on_corpus = self._engines()
        for algorithm in ("dpo", "sso", "hybrid"):
            a = single.query(self.QUERY, k=5, algorithm=algorithm)
            b = on_corpus.query(self.QUERY, k=5, algorithm=algorithm)
            assert [x.node.tag for x in a.answers] == [
                x.node.tag for x in b.answers
            ]
            assert [
                (x.score.structural, x.score.keyword) for x in a.answers
            ] == pytest.approx(
                [(y.score.structural, y.score.keyword) for y in b.answers]
            )
