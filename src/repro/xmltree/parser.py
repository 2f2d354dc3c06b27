"""XML parsing with the stdlib's expat, as the paper's system parsed XMark.

Expat events fill a :class:`~repro.xmltree.builder.TreeBuilder`'s store:
each start tag is one :meth:`~repro.xmltree.document.ColumnarStore.append`
and each end tag one write of the region end — no intermediate node
objects, and no recursion, so depth is bounded by memory.  Tags are literal
text (no namespace processing), which matches how the paper treats them.

Expat buffers character data, so a text run arrives as one event (several
only past its ``buffer_size``).  Each run goes to
:meth:`~repro.xmltree.builder.TreeBuilder.add_text` at the next tag,
comment, processing instruction or CDATA boundary, so ``ab<!--c-->cd`` is
the text ``ab cd``.  A DOCTYPE is read past, never followed: entity
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
    append, ends, stack = builder.store.append, builder.store.ends, builder.stack
    chunks = []  # the pending text run
    parser = expat.ParserCreate()
    parser.SetParamEntityParsing(expat.XML_PARAM_ENTITY_PARSING_NEVER)
    parser.specified_attributes = True  # no attribute defaults from a DTD
    parser.buffer_text = True

    def flush(*_event):
        if chunks:
            builder.add_text("".join(chunks))
            chunks.clear()

    def start(tag, attributes):
        if chunks:
            flush()
        stack.append(append(tag, stack[-1] if stack else -1, attributes))

    def end(_tag):
        if chunks:
            flush()
        ends[stack.pop()] = len(ends)  # expat has already matched the tags

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
