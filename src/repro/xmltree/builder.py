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
``end`` back-patches the region end.
"""

from __future__ import annotations

from repro.errors import FleXPathError
from repro.xmltree.document import ColumnarStore, Document

_WHITESPACE = " \t\r\n"


def _normalize(text):
    return " ".join(text.split())


class TreeBuilder:
    """Incremental document builder driven by start/text/end events."""

    def __init__(self):
        self._store = ColumnarStore()
        self._stack = []
        self._finished = False

    def start(self, tag, attributes=None):
        """Open an element; returns its node id."""
        if self._finished:
            raise FleXPathError("document already has a complete root")
        stack = self._stack
        parent_id = stack[-1] if stack else -1
        node_id = self._store.append(tag, parent_id, attributes)
        stack.append(node_id)
        return node_id

    def add_text(self, text):
        """Append text to the currently open element."""
        if not self._stack:
            stripped = text.strip(_WHITESPACE)
            if stripped:
                raise FleXPathError("text outside of root element: %r" % stripped)
            return
        normalized = _normalize(text)
        if not normalized:
            return
        node_id = self._stack[-1]
        texts = self._store.texts
        current = texts[node_id]
        texts[node_id] = normalized if not current else current + " " + normalized

    def end(self, tag=None):
        """Close the current element, checking the tag when given."""
        if not self._stack:
            raise FleXPathError("end() with no open element")
        node_id = self._stack.pop()
        if tag is not None:
            open_tag = self._store.tag_of(node_id)
            if open_tag != tag:
                raise FleXPathError(
                    "mismatched end tag: expected </%s>, got </%s>" % (open_tag, tag)
                )
        self._store.close(node_id, len(self._store))
        if not self._stack:
            self._finished = True
        return node_id

    def finish(self):
        """Return the completed document."""
        if self._stack:
            raise FleXPathError(
                "unclosed element <%s>" % self._store.tag_of(self._stack[-1])
            )
        if not len(self._store):
            raise FleXPathError("document is empty")
        return Document(self._store)


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
