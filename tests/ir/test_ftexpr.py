"""FTExp parsing and the AST."""

import pytest

from repro.errors import FTExprParseError
from repro.ir import And, Not, Or, Phrase, Term, Window, conjunction, parse_ftexpr


class TestParsing:
    def test_single_term(self):
        assert parse_ftexpr('"xml"') == Term("xml")

    def test_unquoted_term(self):
        assert parse_ftexpr("xml") == Term("xml")

    def test_terms_lowercased(self):
        assert parse_ftexpr('"XML"') == Term("xml")

    def test_paper_expression(self):
        expr = parse_ftexpr('"XML" and "streaming"')
        assert expr == And((Term("xml"), Term("streaming")))

    def test_phrase(self):
        assert parse_ftexpr('"query processing"') == Phrase(("query", "processing"))

    def test_or_and_precedence(self):
        expr = parse_ftexpr('"a" or "b" and "c"')
        assert isinstance(expr, Or)
        assert expr.children[0] == Term("a")
        assert expr.children[1] == And((Term("b"), Term("c")))

    def test_parentheses_override(self):
        expr = parse_ftexpr('("a" or "b") and "c"')
        assert isinstance(expr, And)

    def test_not(self):
        expr = parse_ftexpr('not "xml"')
        assert expr == Not(Term("xml"))

    def test_nested_not(self):
        assert parse_ftexpr('not not "x"') == Not(Not(Term("x")))

    def test_window(self):
        expr = parse_ftexpr('window(5, "xml", "stream")')
        assert expr == Window(5, ("xml", "stream"))

    def test_window_with_unquoted_terms(self):
        assert parse_ftexpr("window(3, xml, data)") == Window(3, ("xml", "data"))

    def test_single_quotes(self):
        assert parse_ftexpr("'xml'") == Term("xml")

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            '"a" and',
            '"unterminated',
            "(a or b",
            "window(0, x)",
            "window(5)",
            'window("x", 3)',
            '"a" "b"',
            "and",
            '"a" ^ "b"',
            '"--"',  # no word characters: nothing it could match
            "'.'",
            'window(3, "gold", "--")',
        ],
    )
    def test_malformed_raises(self, bad):
        with pytest.raises(FTExprParseError):
            parse_ftexpr(bad)


class TestAST:
    def test_terms_iteration(self):
        expr = parse_ftexpr('"a" and ("b c" or not "d")')
        assert sorted(expr.terms()) == ["a", "b", "c", "d"]

    def test_hashable_for_predicate_sets(self):
        first = parse_ftexpr('"xml" and "streaming"')
        second = parse_ftexpr('"XML" and "streaming"')
        assert first == second
        assert len({first, second}) == 1

    def test_conjunction_helper(self):
        assert conjunction("a") == Term("a")
        assert conjunction("a", "b") == And((Term("a"), Term("b")))

    def test_str_roundtrips_through_parser(self):
        for text in ('"xml" and "streaming"', 'window(4, "a", "b")', 'not "x"'):
            expr = parse_ftexpr(text)
            assert parse_ftexpr(str(expr)) == expr
