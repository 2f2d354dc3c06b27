"""Hostile text at the three text doors: query, FTExp and XML.

Every door fails closed: malformed or absurdly nested text is refused with
a :class:`~repro.errors.FleXPathError` subclass, never a raw
``RecursionError`` or ``IndexError``, and anything a parser accepts at its
nesting limit also compiles and answers.
"""

import io

import pytest

from repro import Engine, parse_query
from repro.cli import main
from repro.errors import FleXPathError, FTExprParseError, QueryParseError
from repro.ir.ftexpr import MAX_NESTING, parse_ftexpr
from repro.query.parser import MAX_PATTERN_DEPTH
from repro.xmark import PAPER_QUERIES
from repro.xmltree import parse

DOC = "<a><a><a><b>gold ring</b></a></a><c>vintage</c></a>"


def nested_query(depth):
    """A pattern whose deepest node is ``depth`` steps from the root."""
    return "//a" + "[./a" * (depth - 1) + "]" * (depth - 1)


class TestQueryNesting:
    @pytest.mark.parametrize("shape", [
        nested_query,
        lambda depth: "//a[." + "/a" * (depth - 1) + "]",
        lambda depth: "/" + "/a" * depth,
    ])
    def test_the_limit_parses_and_one_more_is_refused(self, shape):
        assert parse_query(shape(MAX_PATTERN_DEPTH)).size() == MAX_PATTERN_DEPTH
        with pytest.raises(QueryParseError, match="deeper than %d steps at offset \\d+"
                           % MAX_PATTERN_DEPTH):
            parse_query(shape(MAX_PATTERN_DEPTH + 1))

    def test_the_limit_compiles_and_answers(self):
        text = nested_query(MAX_PATTERN_DEPTH)
        assert parse_query(parse_query(text).to_xpath()) == parse_query(text)
        result = Engine.from_xml(DOC).query(text, k=2)
        assert len(result.answers) == 2

    def test_far_deeper_text_is_an_error_not_a_traceback(self, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text(DOC)
        for text in (nested_query(400), "//a[." + "/a" * 2000 + "]"):
            with pytest.raises(QueryParseError):
                parse_query(text)
            out = io.StringIO()
            assert main(["query", str(path), text], out=out) == 1


class TestFTExprNesting:
    @pytest.mark.parametrize("shape", [
        lambda depth: "(" * depth + '"gold"' + ")" * depth,
        lambda depth: "not " * depth + '"gold"',
        lambda depth: "(" * (depth - 1) + '"ring" and not "gold"' + ")" * (depth - 1),
    ])
    def test_the_limit_parses_and_one_more_is_refused(self, shape):
        parse_ftexpr(shape(MAX_NESTING))
        with pytest.raises(FTExprParseError, match="deeper than %d at offset \\d+"
                           % MAX_NESTING):
            parse_ftexpr(shape(MAX_NESTING + 1))

    def test_the_limit_compiles_and_answers(self):
        nots = "not " * MAX_NESTING  # an even count: "gold" itself
        text = '//a[.contains(%s"gold")]' % nots
        result = Engine.from_xml(DOC).query(text, k=5)
        assert len(result.answers) == 3
        assert str(parse_query(text).contains[0].ftexpr).count("not") == MAX_NESTING

    def test_far_deeper_text_is_an_error_not_a_traceback(self):
        for text in ("(" * 300 + '"a"' + ")" * 300, "not " * 1000 + '"a"'):
            with pytest.raises(FTExprParseError):
                parse_ftexpr(text)


# -- mutation fuzz over every door -----------------------------------------------

#: Each seed is truncated at every offset and has each character replaced
#: by each of these, one at a time.
SUBSTITUTES = '()[]"/\x00'

SEED_QUERIES = list(PAPER_QUERIES.values()) + [
    '//article[.//algorithm and ./section[./paragraph'
    ' and .contains("XML" and "streaming")]]',
    '//book[@price < 100 and contains(., window(4, "gold", ring))]/title',
]
SEED_FTEXPRS = [
    '("query" or "search") and not "relational"',
    'window(8, "top", "k") or "xml streaming"',
]
SEED_XML = [
    '<?xml version="1.0"?><!-- c --><lib><book id="1" price=\'9\'>'
    '<title>Gold &amp; ring</title><![CDATA[a<b]]><e/></book></lib>',
]


#: The XML door also gets the characters of a character reference, so that
#: ``&amp;`` mutates into ``&#mp;``, ``&a#p;`` and the like.
XML_SUBSTITUTES = SUBSTITUTES + "&#;x"


def mutations(seed, substitutes=SUBSTITUTES):
    for end in range(len(seed)):
        yield seed[:end]
    for index in range(len(seed)):
        for char in substitutes:
            yield seed[:index] + char + seed[index + 1:]


def escapes(door, seeds, substitutes=SUBSTITUTES):
    """Every mutation whose failure is not a FleXPathError."""
    found = []
    for seed in seeds:
        for text in mutations(seed, substitutes):
            try:
                door(text)
            except FleXPathError:
                pass
            except Exception as exc:
                found.append((text, repr(exc)))
    return found


def test_query_door_fails_closed():
    """Whatever parses also renders and answers."""
    engine = Engine.from_xml(DOC)

    def door(text):
        parse_query(text).to_xpath()
        engine.query(text, k=2)

    assert escapes(door, SEED_QUERIES) == []


def test_ftexpr_door_fails_closed():
    def door(text):
        str(parse_ftexpr(text))

    assert escapes(door, SEED_FTEXPRS) == []


def test_xml_door_fails_closed():
    assert escapes(parse, SEED_XML, XML_SUBSTITUTES) == []
