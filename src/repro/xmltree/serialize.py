"""Serialization of documents back to XML text.

The emitter walks the tree with an explicit stack (a close "frame" is
pushed behind the children), so documents deeper than Python's recursion
limit serialize cleanly.
"""

from __future__ import annotations


def _escape_text(text):
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attr(text):
    # A parser normalizes literal tabs and line breaks in attribute values
    # to spaces (XML 1.0 §3.3.3); character references survive.
    return (
        _escape_text(text)
        .replace('"', "&quot;")
        .replace("\t", "&#9;")
        .replace("\n", "&#10;")
        .replace("\r", "&#13;")
    )


def to_xml(document, indent="  "):
    """Serialize a document to a pretty-printed XML string.

    Direct text of an element is emitted before its children; the exact
    interleaving of text and child elements is not preserved (the document
    model normalizes text), which is fine for this library's query-oriented
    use.
    """
    parts = []
    # Stack entries: (node, depth, closing). A closing entry emits the end
    # tag after every child frame pushed above it has been handled.
    stack = [(document.root, 0, False)]
    while stack:
        node, depth, closing = stack.pop()
        pad = indent * depth
        if closing:
            parts.append("%s</%s>\n" % (pad, node.tag))
            continue
        attrs = "".join(
            ' %s="%s"' % (name, _escape_attr(value))
            for name, value in sorted(node.attributes.items())
        )
        children = document.children(node)
        if not children and not node.text:
            parts.append("%s<%s%s/>\n" % (pad, node.tag, attrs))
            continue
        if not children:
            parts.append(
                "%s<%s%s>%s</%s>\n"
                % (pad, node.tag, attrs, _escape_text(node.text), node.tag)
            )
            continue
        parts.append("%s<%s%s>\n" % (pad, node.tag, attrs))
        if node.text:
            parts.append("%s%s\n" % (indent * (depth + 1), _escape_text(node.text)))
        stack.append((node, depth, True))
        for child in reversed(children):
            stack.append((child, depth + 1, False))
    return "".join(parts)


def write_xml(document, path, indent="  ", encoding="utf-8"):
    """Serialize a document to a file."""
    with open(path, "w", encoding=encoding) as handle:
        handle.write(to_xml(document, indent=indent))
