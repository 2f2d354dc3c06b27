"""The XMark-like generator: determinism, schema, relaxation enablers."""

import pytest

from repro.xmark import (
    PAPER_Q1,
    PAPER_Q2,
    PAPER_Q3,
    XMarkConfig,
    XMarkGenerator,
    generate_document,
)
from repro.query import parse_query
from tests.spec.evaluate import evaluate


class TestDeterminism:
    def test_same_seed_same_document(self):
        first = generate_document(target_bytes=30_000, seed=5)
        second = generate_document(target_bytes=30_000, seed=5)
        assert len(first) == len(second)
        assert [n.tag for n in first.nodes()] == [n.tag for n in second.nodes()]
        assert [n.text for n in first.nodes()] == [n.text for n in second.nodes()]

    def test_different_seeds_differ(self):
        first = generate_document(target_bytes=30_000, seed=5)
        second = generate_document(target_bytes=30_000, seed=6)
        assert [n.text for n in first.nodes()] != [n.text for n in second.nodes()]

    def test_generator_reusable(self):
        generator = XMarkGenerator(XMarkConfig(target_bytes=20_000, seed=1))
        first = generator.generate()
        second = generator.generate()
        assert len(first) == len(second)


class TestSizing:
    def test_size_scales_with_target(self):
        small = generate_document(target_bytes=20_000, seed=2)
        large = generate_document(target_bytes=80_000, seed=2)
        assert len(large) > 2 * len(small)

    def test_item_count_scales(self):
        small = generate_document(target_bytes=20_000, seed=2)
        large = generate_document(target_bytes=80_000, seed=2)
        assert large.count("item") > 2 * small.count("item")


class TestSchema:
    @pytest.fixture(scope="class")
    def doc(self):
        return generate_document(target_bytes=60_000, seed=4)

    def test_site_structure(self, doc):
        assert doc.root.tag == "site"
        assert doc.count("regions") == 1
        assert doc.count("categories") == 1
        assert doc.count("people") == 1

    def test_items_have_mandatory_children(self, doc):
        for item in doc.nodes_with_tag("item"):
            child_tags = {c.tag for c in doc.children(item)}
            assert {"location", "quantity", "name", "payment", "description",
                    "shipping", "mailbox"} <= child_tags

    def test_recursive_parlist_exists(self, doc):
        """Axis generalization enabler: nested parlists (§6)."""
        nested = [
            p
            for p in doc.nodes_with_tag("parlist")
            if any(a.tag == "parlist" for a in doc.ancestors(p))
        ]
        assert nested

    def test_incategory_optional(self, doc):
        """Leaf deletion enabler: some items lack incategory (§6)."""
        without = [
            item
            for item in doc.nodes_with_tag("item")
            if not doc.children_with_tag(item, "incategory")
        ]
        with_ = [
            item
            for item in doc.nodes_with_tag("item")
            if doc.children_with_tag(item, "incategory")
        ]
        assert without and with_

    def test_text_shared_across_contexts(self, doc):
        """Subtree promotion enabler: text under mail, description and
        listitem (§6)."""
        parents = {doc.parent(t).tag for t in doc.nodes_with_tag("text")}
        assert {"mail", "description", "listitem"} <= parents

    def test_inline_tags_present(self, doc):
        for tag in ("bold", "keyword", "emph"):
            assert doc.count(tag) > 0


class TestPaperQueries:
    @pytest.fixture(scope="class")
    def doc(self):
        return generate_document(target_bytes=60_000, seed=4)

    def test_q1_subsets_items(self, doc):
        answers = evaluate(parse_query(PAPER_Q1), doc)
        assert 0 < len(answers) < doc.count("item")

    def test_q2_subset_of_q1(self, doc):
        q1_ids = {n.node_id for n in evaluate(parse_query(PAPER_Q1), doc)}
        q2_ids = {n.node_id for n in evaluate(parse_query(PAPER_Q2), doc)}
        assert q2_ids <= q1_ids

    def test_q3_most_selective(self, doc):
        q2 = len(evaluate(parse_query(PAPER_Q2), doc))
        q3 = len(evaluate(parse_query(PAPER_Q3), doc))
        assert q3 <= q2

    def test_relaxation_recovers_more_items(self, doc):
        """Relaxing Q2 must be able to grow the answer set — the premise of
        the whole evaluation."""
        from repro.topk import QueryContext, SSO

        context = QueryContext(doc)
        query = parse_query(PAPER_Q2)
        exact = len(evaluate(query, doc))
        result = SSO(context).top_k(query, exact + 20)
        assert len(result.answers) > exact
