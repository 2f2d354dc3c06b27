"""Programmatic construction of :class:`~repro.xmltree.document.Document`.

Two styles are supported:

- the event-style :class:`TreeBuilder` (``start`` / ``add_text`` / ``end``),
  used by the XML parser and by the XMark generator, and
- the literal-style :func:`element` / :func:`build_document` helpers, which
  make tests and examples read like the tree they construct::

      doc = build_document(
          element("article",
                  element("section",
                          element("paragraph", text="XML streaming"))))

The builder emits directly into a :class:`ColumnarStore` — no intermediate
node objects are created; ``start`` appends one row to each column and
``end`` back-patches the region end.  The expat driver writes those rows
itself, through the builder's public ``store`` and ``stack``, and hands
its text to :meth:`TreeBuilder.add_text`.
"""

from __future__ import annotations

from repro.errors import FleXPathError
from repro.xmltree.document import ColumnarStore, Document

_WHITESPACE = " \t\r\n"


class TreeBuilder:
    """Incremental document builder driven by start/text/end events.

    ``store`` is the :class:`ColumnarStore` being filled and ``stack`` the
    ids of the open elements, innermost last.
    """

    def __init__(self):
        self.store = ColumnarStore()
        self.stack = []
        self._finished = False

    def start(self, tag, attributes=None):
        """Open an element; returns its node id."""
        if self._finished:
            raise FleXPathError("document already has a complete root")
        stack = self.stack
        parent_id = stack[-1] if stack else -1
        node_id = self.store.append(tag, parent_id, attributes)
        stack.append(node_id)
        return node_id

    def add_text(self, text):
        """Append text to the currently open element."""
        if not self.stack:
            stripped = text.strip(_WHITESPACE)
            if stripped:
                raise FleXPathError("text outside of root element: %r" % stripped)
            return
        normalized = " ".join(text.split())
        if not normalized:
            return
        node_id = self.stack[-1]
        texts = self.store.texts
        current = texts[node_id]
        texts[node_id] = normalized if not current else current + " " + normalized

    def end(self, tag=None):
        """Close the current element, checking the tag when given."""
        if not self.stack:
            raise FleXPathError("end() with no open element")
        node_id = self.stack.pop()
        if tag is not None:
            open_tag = self.store.tag_of(node_id)
            if open_tag != tag:
                raise FleXPathError(
                    "mismatched end tag: expected </%s>, got </%s>" % (open_tag, tag)
                )
        self.store.close(node_id, len(self.store))
        if not self.stack:
            self._finished = True
        return node_id

    def finish(self):
        """Return the completed document."""
        if self.stack:
            raise FleXPathError(
                "unclosed element <%s>" % self.store.tag_of(self.stack[-1])
            )
        if not len(self.store):
            raise FleXPathError("document is empty")
        return Document(self.store)


def element(tag, *children, text=None, attributes=None):
    """Describe an element literal for :func:`build_document`.

    ``children`` are nested :func:`element` literals; ``text`` is the direct
    text of the element.
    """
    return (tag, attributes, text, children)


def build_document(root):
    """Build a document from nested :func:`element` literals.

    Iterative (explicit stack), so literal trees deeper than the Python
    recursion limit build fine.
    """
    builder = TreeBuilder()

    def open_literal(literal):
        tag, attributes, text, children = literal
        builder.start(tag, attributes)
        if text:
            builder.add_text(text)
        return iter(children)

    stack = [open_literal(root)]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
            builder.end()
        else:
            stack.append(open_literal(child))
    return builder.finish()
