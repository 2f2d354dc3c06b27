"""The IR engine: contains evaluation, most-specific matches, counts."""

import pytest

from repro.ir import IREngine, parse_ftexpr
from repro.xmltree import parse


@pytest.fixture()
def doc():
    return parse(
        "<site>"
        "<item><name>gold ring</name>"
        "<description><text>a rare gold treasure</text></description></item>"
        "<item><name>plain chair</name>"
        "<description><text>wooden furniture gold trim</text></description></item>"
        "<item><name>stamp set</name>"
        "<description><text>vintage stamps</text></description></item>"
        "</site>"
    )


@pytest.fixture()
def engine(doc):
    return IREngine(doc)


class TestSatisfies:
    def test_direct(self, doc, engine):
        expr = parse_ftexpr('"gold"')
        names = doc.nodes_with_tag("name")
        assert engine.satisfies(names[0], expr)
        assert not engine.satisfies(names[1], expr)

    def test_subtree_scope(self, doc, engine):
        expr = parse_ftexpr('"gold" and "rare"')
        items = doc.nodes_with_tag("item")
        assert engine.satisfies(items[0], expr)
        assert not engine.satisfies(items[1], expr)

    def test_negation(self, doc, engine):
        expr = parse_ftexpr('"gold" and not "treasure"')
        items = doc.nodes_with_tag("item")
        assert not engine.satisfies(items[0], expr)
        assert engine.satisfies(items[1], expr)

    def test_phrase_within_single_element(self, doc, engine):
        expr = parse_ftexpr('"gold treasure"')
        # "gold treasure" is not consecutive in item 0 ("rare gold treasure"
        # contains it); check against the text element.
        texts = doc.nodes_with_tag("text")
        assert engine.satisfies(texts[0], expr)
        assert not engine.satisfies(texts[1], expr)

    def test_window(self, doc, engine):
        expr = parse_ftexpr('window(3, "rare", "treasure")')
        assert engine.satisfies(doc.nodes_with_tag("item")[0], expr)

    def test_agrees_with_reference_matcher(self, doc, engine):
        from repro.ir import ftexpr_matches, tokenize_and_stem

        expressions = [
            '"gold"',
            '"gold" and "vintage"',
            '"gold" or "vintage"',
            'not "gold"',
            '"gold" and not "stamps"',
            'window(4, "gold", "trim")',
        ]
        for text in expressions:
            expr = parse_ftexpr(text)
            for node in doc.nodes():
                expected = ftexpr_matches(
                    expr, tokenize_and_stem(doc.full_text(node))
                )
                assert engine.satisfies(node, expr) == expected, (text, node)


class TestMostSpecific:
    def test_minimal_nodes_only(self, doc, engine):
        expr = parse_ftexpr('"gold"')
        matches = engine.most_specific_matches(expr)
        tags = {m.node.tag for m in matches}
        # gold occurs directly in name and text elements; ancestors excluded.
        assert tags <= {"name", "text"}
        assert len(matches) == 3

    def test_conjunction_lifts_to_common_ancestor(self, doc, engine):
        expr = parse_ftexpr('"gold" and "ring"')
        matches = engine.most_specific_matches(expr)
        assert [m.node.tag for m in matches] == ["name"]

    def test_cross_element_conjunction(self, doc, engine):
        expr = parse_ftexpr('"ring" and "treasure"')
        matches = engine.most_specific_matches(expr)
        assert [m.node.tag for m in matches] == ["item"]

    def test_scores_sorted_descending(self, doc, engine):
        expr = parse_ftexpr('"gold"')
        scores = [m.score for m in engine.most_specific_matches(expr)]
        assert scores == sorted(scores, reverse=True)

    def test_no_matches(self, engine):
        assert engine.most_specific_matches(parse_ftexpr('"absent"')) == []

    def test_cached(self, engine):
        expr = parse_ftexpr('"gold"')
        assert engine.most_specific_matches(expr) is engine.most_specific_matches(
            expr
        )


class TestCounts:
    def test_count_with_tag(self, engine):
        expr = parse_ftexpr('"gold"')
        assert engine.count_satisfying(expr, "item") == 2
        assert engine.count_satisfying(expr, "name") == 1

    def test_count_without_tag(self, engine):
        expr = parse_ftexpr('"gold"')
        # site + 2 items + 2 descriptions + 1 name + 2 texts
        assert engine.count_satisfying(expr) == 8

    def test_count_zero(self, engine):
        assert engine.count_satisfying(parse_ftexpr('"absent"'), "item") == 0


class TestScore:
    def test_score_bounds(self, doc, engine):
        expr = parse_ftexpr('"gold" and "rare"')
        for node in doc.nodes():
            assert 0.0 <= engine.score(node, expr) <= 1.0

    def test_matching_scores_nonzero(self, doc, engine):
        expr = parse_ftexpr('"gold"')
        item = doc.nodes_with_tag("item")[0]
        assert engine.score(item, expr) > 0.0


class TestAllStopwordPositional:
    """Phrases/windows whose every term is a stop word cannot match —
    stop words are never indexed — so silently returning no matches hid a
    user mistake. The engine now raises instead (a single stop-word *term*
    stays a documented no-match)."""

    def test_all_stopword_phrase_raises(self, doc, engine):
        from repro.errors import FleXPathError

        expr = parse_ftexpr('"of the"')
        root = doc.node(0)
        with pytest.raises(FleXPathError, match="stop words"):
            engine.satisfies(root, expr)

    def test_all_stopword_window_raises(self, doc, engine):
        from repro.errors import FleXPathError
        from repro.ir.ftexpr import Window

        expr = Window(3, ("the", "and"))
        root = doc.node(0)
        with pytest.raises(FleXPathError, match="window"):
            engine.satisfies(root, expr)

    def test_mixed_phrase_still_matches(self, doc, engine):
        """One content word among stop words keeps the phrase evaluable."""
        expr = parse_ftexpr('"the gold"')
        names = doc.nodes_with_tag("name")
        assert engine.satisfies(names[0], expr)

    def test_single_stopword_term_is_a_quiet_no_match(self, doc, engine):
        expr = parse_ftexpr('"the"')
        assert not engine.satisfies(doc.node(0), expr)


class TestLinguisticsHappenOnce:
    """Stemming is paid per distinct string, normalization per resolved
    expression — never per probe, never per token."""

    @pytest.fixture()
    def stems(self, monkeypatch):
        """Counts calls of the uncached stemmer, starting from a cold memo."""
        from collections import Counter

        from repro.ir import stemmer

        calls = Counter()
        uncached = stemmer._porter_stem

        def counting(word):
            calls[word] += 1
            return uncached(word)

        monkeypatch.setattr(stemmer, "_porter_stem", counting)
        stemmer.stem.cache_clear()
        yield calls
        stemmer.stem.cache_clear()

    def test_probes_normalize_once_per_extend_generation(
        self, stems, monkeypatch
    ):
        from repro import Corpus
        from repro.backend import InMemoryBackend
        from repro.ir import engine as engine_module

        normalized = []
        normalize = engine_module.normalize_term

        def counting(term):
            normalized.append(term)
            return normalize(term)

        monkeypatch.setattr(engine_module, "normalize_term", counting)
        backend = InMemoryBackend(Corpus())
        backend.add_document(parse("<d><t>vintage gold</t><t>treasures</t></d>"))
        ir = backend.ir
        stems.clear()  # the index build stemmed the text; probes start here
        expr = parse_ftexpr('("vintage" or "treasure") and "golden"')
        nodes = list(backend.document.nodes())

        def probe_1000():
            for index in range(500):
                node = nodes[index % len(nodes)]
                ir.satisfies(node, expr)
                ir.score(node, expr)

        probe_1000()
        # The index build put "vintage" in the memo (the text says
        # "treasures", not "treasure"); the other two are stemmed once.
        assert dict(stems) == {"treasure": 1, "golden": 1}
        # Once per term for the probe, once per term for the scored terms.
        assert sorted(normalized) == sorted(2 * ["vintage", "treasure", "golden"])

        del normalized[:]
        backend.add_document(parse("<d><t>golden treasure</t></d>"))
        stems.clear()
        probe_1000()
        assert not stems
        # The probe re-resolves against the grown postings; the positive
        # terms are a pure function of the expression and were kept.
        assert sorted(normalized) == ["golden", "treasure", "vintage"]

    def test_indexing_stems_each_surface_form_once(self, stems):
        from repro.ir import STOP_WORDS, InvertedIndex, tokenize
        from repro.xmark import generate_document

        document = generate_document(target_bytes=30_000, seed=3)
        forms = {
            token
            for node in document.nodes()
            for token in tokenize(node.text)
            if token not in STOP_WORDS
        }
        InvertedIndex(document)
        assert set(stems) == forms
        assert max(stems.values()) == 1
        stems.clear()
        InvertedIndex(document)  # e.g. WAL replay, a second shard, a reopen
        assert not stems
