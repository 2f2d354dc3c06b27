"""The twig operator's score-aggregation kernels against brute force."""

import random

import pytest

from repro.backend.kernels import max_value_per_ancestor, max_value_per_descendant
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


def _inputs(doc, ancestor_tag, descendant_tag):
    store = doc.store
    return (
        store.ends,
        store.parent_ids,
        list(store.node_ids_with_tag(ancestor_tag)),
        list(store.node_ids_with_tag(descendant_tag)),
    )


def _relates(doc, ancestor_id, descendant_id, axis):
    ancestor = doc.node(ancestor_id)
    descendant = doc.node(descendant_id)
    if axis == "ad":
        return ancestor.is_ancestor_of(descendant)
    return ancestor.is_parent_of(descendant)


def _brute_max_per_ancestor(doc, ancestor_ids, descendant_ids, values, axis):
    best = {}
    for anc in ancestor_ids:
        matches = [
            values[d] for d in descendant_ids if _relates(doc, anc, d, axis)
        ]
        if matches:
            best[anc] = max(matches)
    return best


def _brute_max_per_descendant(doc, ancestor_ids, values, descendant_ids, axis):
    best = {}
    for desc in descendant_ids:
        matches = [
            values[a] for a in ancestor_ids if _relates(doc, a, desc, axis)
        ]
        if matches:
            best[desc] = max(matches)
    return best


def _random_tree_xml(rng, max_depth):
    def emit(depth):
        tag = rng.choice(("x", "y", "z"))
        if depth >= max_depth or rng.random() < 0.4:
            return "<%s/>" % tag
        children = "".join(emit(depth + 1) for _ in range(rng.randint(1, 3)))
        return "<%s>%s</%s>" % (tag, children, tag)

    return "<root>%s</root>" % "".join(emit(1) for _ in range(rng.randint(2, 4)))


class TestMaxValuePerAncestor:
    @pytest.mark.parametrize("axis", ["ad", "pc"])
    def test_matches_brute_force(self, doc, axis):
        ends, parents, ancestors, descendants = _inputs(doc, "a", "b")
        values = {d: float(d) * 0.5 for d in descendants}
        got = max_value_per_ancestor(
            ends, parents, ancestors, descendants, values, axis=axis
        )
        assert got == _brute_max_per_ancestor(
            doc, ancestors, descendants, values, axis
        )

    def test_nested_ancestors_fold_upward(self):
        # The b deep inside the inner a must raise the outer a's max too:
        # a popped region folds its accumulated max into the region below.
        doc = parse("<r><a><a><a><b/></a></a></a></r>")
        ends, parents, ancestors, descendants = _inputs(doc, "a", "b")
        values = {descendants[0]: 7.0}
        got = max_value_per_ancestor(
            ends, parents, ancestors, descendants, values, axis="ad"
        )
        assert got == {1: 7.0, 2: 7.0, 3: 7.0}

    def test_pc_only_parent_scores(self):
        doc = parse("<r><a><a><b/></a></a></r>")
        ends, parents, ancestors, descendants = _inputs(doc, "a", "b")
        values = {descendants[0]: 3.0}
        got = max_value_per_ancestor(
            ends, parents, ancestors, descendants, values, axis="pc"
        )
        assert got == {2: 3.0}  # the inner a only

    def test_max_not_sum(self, doc):
        # Two sibling bs under the nested a: the ancestor takes the larger
        # value, never their sum.
        ends, parents, ancestors, descendants = _inputs(doc, "a", "b")
        values = {d: 1.0 for d in descendants}
        got = max_value_per_ancestor(
            ends, parents, ancestors, descendants, values, axis="ad"
        )
        assert all(value == 1.0 for value in got.values())

    def test_empty_inputs(self, doc):
        ends, parents, ancestors, descendants = _inputs(doc, "a", "b")
        assert max_value_per_ancestor(ends, parents, [], descendants,
                                      {d: 1.0 for d in descendants}) == {}
        assert max_value_per_ancestor(ends, parents, ancestors, [], {}) == {}

    def test_invalid_axis(self, doc):
        ends, parents, ancestors, descendants = _inputs(doc, "a", "b")
        with pytest.raises(ValueError):
            max_value_per_ancestor(
                ends, parents, ancestors, descendants, {}, axis="sideways"
            )


class TestMaxValuePerDescendant:
    @pytest.mark.parametrize("axis", ["ad", "pc"])
    def test_matches_brute_force(self, doc, axis):
        ends, parents, ancestors, descendants = _inputs(doc, "a", "b")
        values = {a: float(a) * 0.25 for a in ancestors}
        got = max_value_per_descendant(
            ends, parents, ancestors, values, descendants, axis=axis
        )
        assert got == _brute_max_per_descendant(
            doc, ancestors, values, descendants, axis
        )

    def test_prefix_max_carried_down(self):
        # The outer a carries the larger value; a descendant under the
        # inner a must still see it on the ad axis (prefix max at push).
        doc = parse("<r><a><a><b/></a></a></r>")
        ends, parents, ancestors, descendants = _inputs(doc, "a", "b")
        values = {1: 9.0, 2: 1.0}
        got = max_value_per_descendant(
            ends, parents, ancestors, values, descendants, axis="ad"
        )
        assert got == {3: 9.0}

    def test_pc_uses_parent_value_only(self):
        doc = parse("<r><a><a><b/></a></a></r>")
        ends, parents, ancestors, descendants = _inputs(doc, "a", "b")
        values = {1: 9.0, 2: 1.0}
        got = max_value_per_descendant(
            ends, parents, ancestors, values, descendants, axis="pc"
        )
        assert got == {3: 1.0}  # the parent's value, not the grandparent's

    def test_empty_inputs(self, doc):
        ends, parents, ancestors, descendants = _inputs(doc, "a", "b")
        assert max_value_per_descendant(ends, parents, [], {}, descendants) == {}
        assert max_value_per_descendant(
            ends, parents, ancestors, {a: 1.0 for a in ancestors}, []
        ) == {}


class TestRandomizedAggregation:
    def test_against_brute_force_random_trees(self):
        rng = random.Random(41)
        for trial in range(12):
            doc = parse(_random_tree_xml(rng, max_depth=5))
            ends, parents, xs, ys = _inputs(doc, "x", "y")
            d_values = {y: rng.uniform(0.0, 5.0) for y in ys}
            a_values = {x: rng.uniform(0.0, 5.0) for x in xs}
            for axis in ("ad", "pc"):
                assert max_value_per_ancestor(
                    ends, parents, xs, ys, d_values, axis=axis
                ) == _brute_max_per_ancestor(doc, xs, ys, d_values, axis), (
                    trial, axis,
                )
                assert max_value_per_descendant(
                    ends, parents, xs, a_values, ys, axis=axis
                ) == _brute_max_per_descendant(doc, xs, a_values, ys, axis), (
                    trial, axis,
                )
