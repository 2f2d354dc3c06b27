"""The XML parser: stdlib expat driving the columnar tree builder."""

from xml.parsers import expat

import pytest

from repro.errors import XMLParseError
from repro.xmark import generate_document
from repro.xmltree import parse, parse_file, to_xml


class TestBasicParsing:
    def test_single_element(self):
        doc = parse("<a/>")
        assert doc.root.tag == "a"
        assert len(doc) == 1

    def test_nested_elements(self):
        doc = parse("<a><b><c/></b><d/></a>")
        assert [n.tag for n in doc.nodes()] == ["a", "b", "c", "d"]

    def test_text_content(self):
        doc = parse("<a>hello <b>world</b> again</a>")
        assert doc.root.text == "hello again"
        assert doc.node(1).text == "world"

    def test_text_runs_split_at_every_markup_boundary(self):
        doc = parse("<a>ab<!--c-->cd<?pi x?>e<![CDATA[f]]>g&amp;h</a>")
        assert doc.root.text == "ab cd e f g&h"

    def test_long_text_is_not_cut(self):
        word = "x" * 20_000
        assert parse("<a>%s %s</a>" % (word, word)).root.text == word + " " + word

    def test_attributes(self):
        doc = parse('<a x="1" y=\'two\'/>')
        assert doc.root.attributes == {"x": "1", "y": "two"}

    def test_self_closing_with_attributes(self):
        doc = parse('<a><b id="7"/></a>')
        assert doc.node(1).attributes["id"] == "7"

    def test_xml_declaration_and_doctype(self):
        doc = parse('<?xml version="1.0"?><!DOCTYPE a><a/>')
        assert doc.root.tag == "a"

    def test_comments_skipped(self):
        doc = parse("<a><!-- note --><b/><!-- other --></a>")
        assert [n.tag for n in doc.nodes()] == ["a", "b"]

    def test_processing_instruction_skipped(self):
        doc = parse("<a><?pi data?><b/></a>")
        assert len(doc) == 2

    def test_cdata(self):
        doc = parse("<a><![CDATA[raw <text> & stuff]]></a>")
        assert "<text>" in doc.root.text

    def test_entities(self):
        doc = parse("<a>&lt;&gt;&amp;&apos;&quot;</a>")
        assert doc.root.text == "<>&'\""

    def test_numeric_entities(self):
        doc = parse("<a>&#65;&#x42;</a>")
        assert doc.root.text == "AB"

    def test_entity_in_attribute(self):
        doc = parse('<a v="a&amp;b"/>')
        assert doc.root.attributes["v"] == "a&b"

    def test_whitespace_between_elements_dropped(self):
        doc = parse("<a>\n  <b/>\n</a>")
        assert doc.root.text == ""

    def test_literal_attribute_whitespace_is_normalised(self):
        # XML 1.0 attribute-value normalisation: a literal tab or LF becomes
        # a space, and so does a CRLF pair (line-end handling makes it LF).
        doc = parse('<a v="x\ny\tz\r\nw"/>')
        assert doc.root.attributes == {"v": "x y z w"}


class TestBufferedText:
    """Expat buffers character data; a run still becomes text whole, and
    markup other than an entity reference still separates two runs."""

    @pytest.mark.parametrize(
        "body, text",
        [
            ("ab<![CDATA[]]>cd", "ab cd"),
            ("ab&#65;cd", "abAcd"),
            ("ab\ncd", "ab cd"),
        ],
    )
    def test_boundaries_beyond_the_markup_test(self, body, text):
        # test_text_runs_split_at_every_markup_boundary has the rest.
        assert parse("<a>%s</a>" % body).root.text == text

    def test_word_across_the_buffer_end_stays_one_word(self):
        # The run before the entity fills expat's text buffer exactly, so
        # "ab" and "&cd" reach the handler as two events.
        head = "x" * (expat.ParserCreate().buffer_size - 2) + "ab"
        assert parse("<a>%s&amp;cd tail</a>" % head).root.text == (
            head + "&cd tail"
        )

    def test_file_run_longer_than_the_buffer_stays_one_word(self, tmp_path):
        # ParseFile feeds expat in blocks: a run several buffers long
        # arrives in several events, split mid-word.
        word = "w" * (3 * expat.ParserCreate().buffer_size + 5)
        path = tmp_path / "long.xml"
        path.write_text("<a><b>x %s y</b></a>" % word)
        assert parse_file(str(path)).node(1).text == "x %s y" % word

    def test_whitespace_outside_the_root_is_not_text(self):
        doc = parse("\n <a>x</a>\n <!-- c --> \n")
        assert [n.text for n in doc.nodes()] == ["x"]


class TestParserErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "just text",
            "<a>",
            "<a></b>",
            "<a><b></a></b>",
            "<a/><b/>",
            '<a x=1/>',
            "<a x='unterminated/>",
            "<a>&unknown;</a>",
            "<a><!-- unterminated </a>",
            "<a><![CDATA[open</a>",
            "<a>&#xZZ;</a>",
            "<a>&#;</a>",
            "<a>&#99999999;</a>",
            "<a>&#0;</a>",
            '<a v="&#xD800;">gold</a>',
            '<a x="1" x="2"/>',
            "<a>]]></a>",
            '<a v="<"/>',
            "<a>\ud800</a>",
            "<a/>junk",
            "<a>x</a>tail",
            "text<a/>",
            "<a/><!-- after -->junk",
        ],
    )
    def test_malformed_inputs_raise(self, text):
        with pytest.raises(XMLParseError) as caught:
            parse(text)
        assert caught.value.position >= 0

    def test_error_carries_position(self):
        try:
            parse("<a><b></c></a>")
        except XMLParseError as error:
            assert error.position is not None
        else:
            raise AssertionError("expected XMLParseError")

    def test_lone_surrogate_position_is_a_byte_offset(self):
        with pytest.raises(XMLParseError) as caught:
            parse("<a>\u00e9\ud800</a>")
        assert caught.value.position == len("<a>\u00e9".encode("utf-8"))


class TestDoctype:
    """A DOCTYPE is read past: no entity is declared or expanded, no DTD or
    external entity is opened, and no attribute default is applied."""

    @pytest.mark.parametrize(
        "text",
        [
            '<!DOCTYPE a [<!ENTITY e "x">]><a>&e;</a>',
            '<!DOCTYPE a [<!ENTITY e "x">]><a/>',
            '<!DOCTYPE a [<!ENTITY lol "lol"><!ENTITY lol1 "&lol;&lol;&lol;">'
            '<!ENTITY lol2 "&lol1;&lol1;&lol1;">]><a>&lol2;</a>',
            '<!DOCTYPE a [<!ENTITY % p "<!ENTITY e \'x\'>"> %p;]><a>&e;</a>',
            '<!DOCTYPE a [<!ENTITY % p "x">]><a/>',
        ],
    )
    def test_entity_declarations_are_refused(self, text):
        with pytest.raises(XMLParseError, match="entity declaration"):
            parse(text)

    def test_system_entity_is_never_read(self, tmp_path):
        secret = tmp_path / "secret.txt"
        secret.write_text("top-secret-content")
        text = '<!DOCTYPE a [<!ENTITY e SYSTEM "%s">]><a>&e;</a>' % secret.as_uri()
        with pytest.raises(XMLParseError) as caught:
            parse(text)
        assert "top-secret-content" not in str(caught.value)

    def test_external_dtd_is_not_opened(self, tmp_path):
        assert parse('<!DOCTYPE a SYSTEM "missing.dtd"><a/>').root.tag == "a"
        # Were this DTD read, its entity declaration would be refused.
        dtd = tmp_path / "defaults.dtd"
        dtd.write_text('<!ATTLIST a v CDATA "from-dtd"><!ENTITY e "from-dtd">')
        path = tmp_path / "doc.xml"
        path.write_text('<!DOCTYPE a SYSTEM "%s"><a/>' % dtd.as_uri())
        assert parse_file(str(path)).root.attributes == {}

    def test_undefined_entity_under_an_external_dtd_is_refused(self):
        with pytest.raises(XMLParseError, match="undefined entity"):
            parse('<!DOCTYPE a SYSTEM "missing.dtd"><a>&e;</a>')

    def test_attribute_defaults_are_not_applied(self):
        doc = parse('<!DOCTYPE a [<!ATTLIST b v CDATA "d">]><a><b/><b v="x"/></a>')
        assert [n.attributes for n in doc.nodes()] == [{}, {}, {"v": "x"}]


class TestParseFile:
    def test_declared_latin1_encoding(self, tmp_path):
        path = tmp_path / "latin1.xml"
        path.write_bytes(
            b'<?xml version="1.0" encoding="ISO-8859-1"?><a v="caf\xe9">na\xefve</a>'
        )
        doc = parse_file(str(path))
        assert doc.root.text == "na\u00efve"
        assert doc.root.attributes == {"v": "caf\u00e9"}

    def test_utf8_byte_order_mark(self, tmp_path):
        path = tmp_path / "bom.xml"
        path.write_bytes(b"\xef\xbb\xbf<a>caf\xc3\xa9</a>")
        assert parse_file(str(path)).root.text == "caf\u00e9"

    def test_undecodable_bytes_raise(self, tmp_path):
        path = tmp_path / "bad.xml"
        path.write_bytes(b"<a>\xff\xfe</a>")
        with pytest.raises(XMLParseError) as caught:
            parse_file(str(path))
        assert caught.value.position == 3

    @pytest.mark.parametrize("encoding", ["bogus", "Shift_JIS", "UTF-32"])
    def test_encoding_expat_lacks_raises(self, tmp_path, encoding):
        # expat hands an encoding it does not know to a Python codec, which
        # raises LookupError (unknown name) or ValueError (multi-byte).
        path = tmp_path / "enc.xml"
        path.write_bytes(
            b'<?xml version="1.0" encoding="%s"?><a>x</a>' % encoding.encode()
        )
        with pytest.raises(XMLParseError) as caught:
            parse_file(str(path))
        assert caught.value.position == 0


class TestRoundTrip:
    def test_serialize_reparse(self):
        doc = parse('<a k="v"><b>text one</b><c><d/>tail</c></a>')
        again = parse(to_xml(doc))
        assert [n.tag for n in again.nodes()] == [n.tag for n in doc.nodes()]
        assert again.root.attributes == doc.root.attributes

    def test_attribute_whitespace_survives(self):
        doc = parse('<a v="a&#9;b&#10;c&#13;d"/>')
        assert doc.root.attributes == {"v": "a\tb\nc\rd"}
        assert parse(to_xml(doc)).root.attributes == {"v": "a\tb\nc\rd"}

    def test_parse_file(self, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text("<a><b>x</b></a>")
        doc = parse_file(str(path))
        assert doc.node(1).text == "x"

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_xmark_columns_survive_a_round_trip(self, seed):
        built = generate_document(target_bytes=60_000, seed=seed)
        a, b = built.store, parse(to_xml(built)).store
        assert b.tags.names() == a.tags.names()
        assert b.tag_ids == a.tag_ids
        assert b.parent_ids == a.parent_ids
        assert b.ends == a.ends
        assert b.texts == a.texts
        assert b.attribute_table == a.attribute_table
