"""Rendering of queries: to_xpath and pretty."""

from repro.query import are_equivalent, parse_query


class TestToXPath:
    def test_distinguished_is_the_last_trunk_step(self):
        assert parse_query("//a/b").to_xpath() == "//a/b"
        assert parse_query("//a[./b]").to_xpath() == "//a[./b]"
        assert "{" not in parse_query("//a/b[./c]").to_xpath()

    def test_off_trunk_branches_become_qualifiers(self):
        text = parse_query("//a[./b and .//c]/d[./e]").to_xpath()
        assert text == "//a[./b and .//c]/d[./e]"

    def test_renders_contains(self):
        text = parse_query('//a[.contains("gold")]').to_xpath()
        assert 'contains("gold")' in text

    def test_attribute_values_are_quoted(self):
        assert '@price < "10"' in parse_query("//a[@price < 10]").to_xpath()
        tricky = parse_query("""//a[@t = 'say "hi"']""")
        assert parse_query(tricky.to_xpath()) == tricky

    def test_wildcard_rendered_as_star(self):
        assert parse_query("//a/*").to_xpath() == "//a/*"

    def test_reparses_to_the_same_tpq(self):
        for text in (
            "//a/b",
            "//a[./b[./c] and ./d]//e",
            '//a[./b[.contains("x" and "y")] and @k >= 3]/c[.contains("z")]',
        ):
            query = parse_query(text)
            assert parse_query(query.to_xpath()) == query

    def test_relaxed_tpq_renders_parseable_text(self):
        # λ moved the distinguished node up; numbering is no longer the
        # parser's, so the round trip is equivalence, not equality.
        query = parse_query("//a[./b]/c").without_leaf("$3")
        assert query.distinguished == "$1"
        assert are_equivalent(parse_query(query.to_xpath()), query)


class TestPretty:
    def test_one_line_per_variable(self):
        query = parse_query("//a[./b[./c] and ./d]")
        lines = query.pretty().splitlines()
        assert len(lines) == query.size()

    def test_indentation_tracks_depth(self):
        query = parse_query("//a/b[./c]")
        lines = query.pretty().splitlines()
        assert lines[0].startswith("a")
        assert lines[1].startswith("  ")
        assert lines[2].startswith("    ")

    def test_contains_annotated(self):
        query = parse_query('//a[./b[.contains("x")]]')
        assert "contains" in query.pretty()

    def test_variables_shown(self):
        query = parse_query("//a/b")
        text = query.pretty()
        assert "($1)" in text and "($2)" in text
