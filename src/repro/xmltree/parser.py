"""XML parsing with the stdlib's expat, as the paper's system parsed XMark.

Expat events drive a :class:`~repro.xmltree.builder.TreeBuilder`, so each
element appends one row to the document's columnar store — no intermediate
node objects, and no recursion, so depth is bounded by memory.  Tags are
literal text (no namespace processing), which matches how the paper treats
them.

Character data is collected per text run and handed to the builder at every
tag, comment, processing instruction and CDATA boundary, so ``ab<!--c-->cd``
is the text ``ab cd``.  A DOCTYPE is read past, never followed: entity
declarations and references to undeclared entities are refused, attribute
defaults are not applied, and no external entity or DTD is ever opened.
Every malformed input raises :class:`~repro.errors.XMLParseError`.
"""

from __future__ import annotations

from xml.parsers import expat

from repro.errors import XMLParseError
from repro.xmltree.builder import TreeBuilder


def parse(text):
    """Parse an XML string into a :class:`Document`."""
    return _drive(lambda parser: parser.Parse(text, True))


def parse_file(path):
    """Parse an XML file into a :class:`Document`; its XML declaration (or
    byte-order mark) decides the encoding, UTF-8 by default."""
    with open(path, "rb") as handle:
        return _drive(lambda parser: parser.ParseFile(handle))


def _drive(feed):
    builder = TreeBuilder()
    chunks = []
    parser = expat.ParserCreate()
    parser.SetParamEntityParsing(expat.XML_PARAM_ENTITY_PARSING_NEVER)
    parser.specified_attributes = True  # no attribute defaults from a DTD

    def flush(*_event):
        if chunks:
            builder.add_text("".join(chunks))
            chunks.clear()

    def start(tag, attributes):
        flush()
        builder.start(tag, attributes)

    def end(_tag):
        flush()
        builder.end()  # expat has already matched the tags

    def refuse(what):
        def handler(name, *_rest):
            raise XMLParseError("%s %r" % (what, name), parser.CurrentByteIndex)
        return handler

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = chunks.append
    parser.CommentHandler = parser.ProcessingInstructionHandler = flush
    parser.StartCdataSectionHandler = parser.EndCdataSectionHandler = flush
    parser.EntityDeclHandler = refuse("refused entity declaration")
    parser.SkippedEntityHandler = refuse("undefined entity")
    try:
        feed(parser)
    except expat.ExpatError as error:
        position = max(parser.ErrorByteIndex, 0)  # -1 on empty input
        raise XMLParseError(expat.ErrorString(error.code), position) from None
    except UnicodeEncodeError as error:  # a lone surrogate in a str
        position = len(error.object[:error.start].encode("utf-8"))
        raise XMLParseError(error.reason, position) from None
    except (LookupError, ValueError) as error:  # a declared encoding expat lacks
        raise XMLParseError(str(error), 0) from None
    return builder.finish()
