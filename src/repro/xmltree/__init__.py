"""Region-encoded XML document model.

The substrate every other subsystem builds on: a columnar pre-order node
store (:class:`ColumnarStore`) with ``(start, end)`` region encoding and
a parent column, node views, a tag index for structural joins, a small
XML parser, programmatic builders, a serializer, and a compact dump
format.
"""

from repro.xmltree.builder import TreeBuilder, build_document, element
from repro.xmltree.document import Document, TagDictionary
from repro.xmltree.parser import parse, parse_file
from repro.xmltree.serialize import to_xml, write_xml
from repro.xmltree.storage import dump_document, load_document

__all__ = [
    "Document",
    "TagDictionary",
    "TreeBuilder",
    "build_document",
    "dump_document",
    "element",
    "load_document",
    "parse",
    "parse_file",
    "to_xml",
    "write_xml",
]
