"""The single-step relaxation enumeration used by the space explorer."""

from repro.query import parse_query
from tests.spec.space import applicable_relaxations


def by_operator(query):
    grouped = {}
    for name, description, relaxed in applicable_relaxations(query):
        grouped.setdefault(name, []).append((description, relaxed))
    return grouped


class TestEnumeration:
    def test_operator_labels(self):
        query = parse_query(
            '//a[./b[./c and .contains("gold")]]'
        )
        grouped = by_operator(query)
        assert set(grouped) == {
            "axis-generalization",
            "leaf-deletion",
            "subtree-promotion",
            "contains-promotion",
        }

    def test_gamma_per_pc_edge(self):
        query = parse_query("//a/b[./c and .//d]")
        grouped = by_operator(query)
        # pc edges: a->b, b->c. The ad edge b->d offers no γ.
        assert len(grouped["axis-generalization"]) == 2

    def test_sigma_needs_grandparent(self):
        query = parse_query("//a[./b]")
        grouped = by_operator(query)
        assert "subtree-promotion" not in grouped
        deeper = parse_query("//a/b[./c]")
        assert "subtree-promotion" in by_operator(deeper)

    def test_distinguished_leaf_not_deleted(self):
        # Distinguished node is the trunk end (b); only c is deletable.
        query = parse_query("//a/b[./c]")
        grouped = by_operator(query)
        deleted_vars = [d for d, _q in grouped.get("leaf-deletion", [])]
        assert all("$3" in d for d in deleted_vars)

    def test_root_contains_not_promoted(self):
        query = parse_query('//a[.contains("x")]')
        grouped = by_operator(query)
        assert "contains-promotion" not in grouped

    def test_descriptions_are_informative(self):
        query = parse_query('//a/b[.contains("x")]')
        descriptions = [d for _n, d, _q in applicable_relaxations(query)]
        assert any("γ" in d for d in descriptions)
        assert any("κ" in d for d in descriptions)

    def test_star_query_has_nothing(self):
        assert list(applicable_relaxations(parse_query("//a"))) == []
