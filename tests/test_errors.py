"""The exception hierarchy."""

import pytest

from repro.errors import (
    EvaluationError,
    FleXPathError,
    FTExprParseError,
    InvalidQueryError,
    InvalidRelaxationError,
    QueryParseError,
    XMLParseError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exception_type",
        [
            EvaluationError,
            FTExprParseError,
            InvalidQueryError,
            InvalidRelaxationError,
            QueryParseError,
            XMLParseError,
        ],
    )
    def test_all_derive_from_base(self, exception_type):
        assert issubclass(exception_type, FleXPathError)

    def test_single_except_clause_suffices(self):
        from repro import FleXPath

        engine = FleXPath.from_xml("<a/>")
        with pytest.raises(FleXPathError):
            engine.query("not a query")
        with pytest.raises(FleXPathError):
            engine.query("//a", algorithm="nope")

    def test_xml_parse_error_position(self):
        error = XMLParseError("boom", position=42)
        assert error.position == 42
        assert "offset 42" in str(error)

    def test_xml_parse_error_without_position(self):
        error = XMLParseError("boom")
        assert error.position is None
        assert str(error) == "boom"

    def test_not_a_tree_pattern_is_invalid_query(self):
        from tests.spec.minimize import NotATreePattern

        assert issubclass(NotATreePattern, InvalidQueryError)
