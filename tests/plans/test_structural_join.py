"""The structural-join id kernels against a brute-force reference.

The reference walks parent pointers, so it shares nothing with the
``ends``/``levels`` region encoding the kernels merge and probe over.
"""

import random
from array import array
from collections import Counter

import pytest

from repro.plans import (
    semi_join_ancestor_ids,
    semi_join_descendant_ids,
    structural_join_ids,
)
from repro.xmltree import parse


@pytest.fixture(scope="module")
def doc():
    return parse(
        "<r>"
        "<a><b/><a><b/><b/></a></a>"
        "<b/>"
        "<a><c><b/></c></a>"
        "</r>"
    )


def brute_force(doc, ancestor_ids, descendant_ids, axis):
    """Every joining ``(ancestor id, descendant id)``, sorted by descendant."""
    parent_ids = doc.store.parent_ids
    wanted = set(ancestor_ids)
    pairs = []
    for descendant in descendant_ids:
        node = parent_ids[descendant]
        while node >= 0:
            if node in wanted:
                pairs.append((node, descendant))
            node = parent_ids[node] if axis == "ad" else -1
    return sorted(pairs, key=lambda pair: (pair[1], pair[0]))


def ids(doc, tag):
    return list(doc.store.node_ids_with_tag(tag))


def kernel(function, doc, ancestor_ids, descendant_ids, axis="ad"):
    store = doc.store
    return function(store.ends, store.levels, ancestor_ids, descendant_ids,
                    axis=axis)


def check_all_three(doc, ancestor_ids, descendant_ids, axis, note=None):
    """Every kernel against the reference on one pair of inputs."""
    expected = brute_force(doc, ancestor_ids, descendant_ids, axis)
    assert kernel(
        structural_join_ids, doc, ancestor_ids, descendant_ids, axis
    ) == expected, note
    matched = {a for a, _d in expected}
    assert kernel(
        semi_join_ancestor_ids, doc, ancestor_ids, descendant_ids, axis
    ) == [a for a in ancestor_ids if a in matched], note
    assert kernel(
        semi_join_descendant_ids, doc, ancestor_ids, descendant_ids, axis
    ) == sorted({d for _a, d in expected}), note


class TestCorrectness:
    @pytest.mark.parametrize("axis", ["ad", "pc"])
    def test_matches_brute_force(self, doc, axis):
        check_all_three(doc, ids(doc, "a"), ids(doc, "b"), axis)

    def test_nested_ancestors_all_reported(self, doc):
        # The inner <a> nests inside the outer <a>; descendants of the inner
        # must pair with both.
        pairs = kernel(structural_join_ids, doc, ids(doc, "a"), ids(doc, "b"))
        counted = Counter(d for _a, d in pairs)
        assert max(counted.values()) == 2  # bs inside the nested a

    def test_empty_inputs(self, doc):
        for function in (structural_join_ids, semi_join_ancestor_ids,
                         semi_join_descendant_ids):
            for axis in ("ad", "pc"):
                assert kernel(function, doc, [], ids(doc, "b"), axis) == []
                assert kernel(function, doc, ids(doc, "a"), [], axis) == []
                assert kernel(function, doc, [], [], axis) == []

    def test_output_sorted_by_descendant(self, doc):
        pairs = kernel(structural_join_ids, doc, ids(doc, "a"), ids(doc, "b"))
        starts = [d for _a, d in pairs]
        assert starts == sorted(starts)

    def test_invalid_axis(self, doc):
        for function in (structural_join_ids, semi_join_ancestor_ids,
                         semi_join_descendant_ids):
            with pytest.raises(ValueError):
                kernel(function, doc, [], [], axis="sideways")


class TestSemiJoins:
    def test_ancestor_semi_join(self, doc):
        kept = kernel(
            semi_join_ancestor_ids, doc, ids(doc, "a"), ids(doc, "c"), "pc"
        )
        assert len(kept) == 1

    def test_descendant_semi_join(self, doc):
        kept = kernel(
            semi_join_descendant_ids, doc, ids(doc, "a"), ids(doc, "b")
        )
        # The top-level stray <b> has no a ancestor.
        assert len(kept) == len(ids(doc, "b")) - 1

    def test_semi_join_deduplicates(self, doc):
        # b under nested a has two a ancestors but appears once; the outer
        # a has three b descendants but appears once.
        for function in (semi_join_descendant_ids, semi_join_ancestor_ids):
            kept = kernel(function, doc, ids(doc, "a"), ids(doc, "b"))
            assert len(kept) == len(set(kept))

    def test_ancestor_probe_keeps_its_input_order(self, doc):
        # The executor hands sorted bases, but the contract is input order:
        # the search resumes forward only while the ancestors ascend.
        rng = random.Random(5)
        docs = [doc] + [
            parse(_random_tree_xml(rng, max_depth=5)) for _ in range(10)
        ]
        for tree in docs:
            ancestors = ids(tree, "a") + ids(tree, "x")
            descendants = ids(tree, "b") + ids(tree, "y")
            for order in (ancestors[::-1], rng.sample(ancestors, len(ancestors))):
                for axis in ("ad", "pc"):
                    matched = {a for a, _d in brute_force(
                        tree, order, descendants, axis)}
                    assert kernel(
                        semi_join_ancestor_ids, tree, order, descendants, axis
                    ) == [a for a in order if a in matched]


class TestColumnarKernels:
    @pytest.mark.parametrize("axis", ["ad", "pc"])
    def test_join_ids_match_brute_force(self, doc, axis):
        expected = brute_force(doc, ids(doc, "a"), ids(doc, "b"), axis)
        got = kernel(structural_join_ids, doc, ids(doc, "a"), ids(doc, "b"), axis)
        assert got == expected

    @pytest.mark.parametrize("axis", ["ad", "pc"])
    def test_semi_join_ids_match_brute_force(self, doc, axis):
        pairs = brute_force(doc, ids(doc, "a"), ids(doc, "b"), axis)
        inputs = (doc, ids(doc, "a"), ids(doc, "b"), axis)
        assert kernel(semi_join_ancestor_ids, *inputs) == sorted(
            {a for a, _d in pairs}
        )
        assert kernel(semi_join_descendant_ids, *inputs) == sorted(
            {d for _a, d in pairs}
        )

    def test_pc_rejects_grandparents(self):
        # <a><c><b/></c></a>: a is an ancestor of b but never its parent,
        # so no pc kernel may report it, even while a is on the stack.
        doc = parse("<r><a><c><b/></c></a></r>")
        assert kernel(structural_join_ids, doc, ids(doc, "a"), ids(doc, "b"),
                      "pc") == []
        assert kernel(structural_join_ids, doc, ids(doc, "c"), ids(doc, "b"),
                      "pc") == [(2, 3)]
        check_all_three(doc, ids(doc, "a"), ids(doc, "b"), "pc")
        check_all_three(doc, ids(doc, "c"), ids(doc, "b"), "pc")

    def test_pc_parent_below_nested_nonmatching_ancestor(self):
        # <a><a><b/></a></a>: both a's are open; only the inner (stack top)
        # is the parent of b.
        doc = parse("<r><a><a><b/></a></a></r>")
        pairs = kernel(structural_join_ids, doc, ids(doc, "a"), ids(doc, "b"),
                       "pc")
        assert pairs == [(2, 3)]
        check_all_three(doc, ids(doc, "a"), ids(doc, "b"), "pc")

    def test_pc_probe_skips_a_nonchild_subtree_to_reach_a_child(self):
        # The first b under the outer a is a grandchild inside <c>; its own
        # b child sits after that whole subtree.
        doc = parse("<r><a><c><b/><b/><b/></c><b/></a><a><c><b/></c></a></r>")
        check_all_three(doc, ids(doc, "a"), ids(doc, "b"), "pc")
        assert kernel(semi_join_ancestor_ids, doc, ids(doc, "a"),
                      ids(doc, "b"), "pc") == [1]

    def test_semi_join_ancestor_nested_all_marked(self):
        # One descendant deep inside a chain of same-tag ancestors must
        # mark every open ancestor, not just the deepest.
        doc = parse("<r><a><a><a><b/></a></a></a></r>")
        kept = kernel(semi_join_ancestor_ids, doc, ids(doc, "a"), ids(doc, "b"))
        assert kept == [1, 2, 3]

    @pytest.mark.parametrize("axis", ["ad", "pc"])
    def test_same_tag_on_both_sides(self, axis):
        # A node is never its own ancestor, parent, descendant or child.
        doc = parse("<r><a><a><a/></a></a><a/></r>")
        check_all_three(doc, ids(doc, "a"), ids(doc, "a"), axis)

    def test_outputs_are_id_sorted(self, doc):
        inputs = (doc, ids(doc, "a"), ids(doc, "b"))
        ancestors = kernel(semi_join_ancestor_ids, *inputs)
        descendants = kernel(semi_join_descendant_ids, *inputs)
        assert ancestors == sorted(ancestors)
        assert descendants == sorted(descendants)

    def test_random_trees_match_brute_force(self):
        rng = random.Random(23)
        for trial in range(15):
            doc = parse(_random_tree_xml(rng, max_depth=5))
            for axis in ("ad", "pc"):
                check_all_three(
                    doc, ids(doc, "x"), ids(doc, "y"), axis, (trial, axis)
                )


class _CountingSequence:
    """An id sequence that counts how often it is indexed."""

    def __init__(self, values):
        self._values = values
        self.reads = 0

    def __len__(self):
        return len(self._values)

    def __getitem__(self, index):
        self.reads += 1
        return self._values[index]


class TestWorkDone:
    """What the kernels do not touch, counted in indexing operations."""

    TAIL = 400

    @pytest.fixture(scope="class")
    def doc(self):
        return parse(
            "<r><a><b/><b/></a><a><c/></a>%s</r>" % ("<b/>" * self.TAIL)
        )

    @pytest.mark.parametrize("function", [
        structural_join_ids, semi_join_descendant_ids,
    ])
    @pytest.mark.parametrize("axis", ["ad", "pc"])
    def test_a_merge_stops_after_the_last_ancestor_closes(
            self, doc, function, axis):
        pool = _CountingSequence(ids(doc, "b"))
        got = kernel(function, doc, ids(doc, "a"), pool, axis)
        assert len(got) == 2
        # The two matches, two ids to see the last region close, and
        # nothing of the tail behind them.
        assert pool.reads <= 4

    @pytest.mark.parametrize("axis", ["ad", "pc"])
    def test_the_ancestor_probe_reads_log_pool_per_base(self, doc, axis):
        pool = _CountingSequence(ids(doc, "b"))
        bases = ids(doc, "a")
        assert kernel(semi_join_ancestor_ids, doc, bases, pool, axis) == [1]
        # One binary search and two compares per base (and one look at the
        # pool's last id), whatever the pool size.
        assert len(pool) > self.TAIL
        assert pool.reads <= 1 + len(bases) * (len(pool).bit_length() + 2)


class TestRandomized:
    def test_against_brute_force_random_trees(self):
        """``array`` id columns as the tag index hands them out, and the
        ``range`` a wildcard variable's pool is, on either side."""
        rng = random.Random(17)
        for trial in range(10):
            doc = parse(_random_tree_xml(rng, max_depth=5))
            xs = array("i", ids(doc, "x"))
            ys = array("i", ids(doc, "y"))
            everything = range(len(doc.store.ends))
            for axis in ("ad", "pc"):
                check_all_three(doc, xs, ys, axis, (trial, axis, "arrays"))
                check_all_three(doc, xs, everything, axis, (trial, axis, "x/*"))
                check_all_three(doc, everything, ys, axis, (trial, axis, "*/y"))


def _random_tree_xml(rng, max_depth):
    def emit(depth):
        tag = rng.choice(("x", "y", "z"))
        if depth >= max_depth or rng.random() < 0.4:
            return "<%s/>" % tag
        children = "".join(emit(depth + 1) for _ in range(rng.randint(1, 3)))
        return "<%s>%s</%s>" % (tag, children, tag)

    return "<root>%s</root>" % "".join(emit(1) for _ in range(rng.randint(2, 4)))
