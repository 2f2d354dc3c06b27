"""Parser from the XPath fragment of the paper to :class:`TPQ`.

Supported syntax (the fragment used throughout the paper)::

    //article[.//algorithm and ./section[./paragraph
              and .contains("XML" and "streaming")]]
    //item[./description/parlist and ./mailbox/mail/text]
    //book[@price < 100]

- Steps use ``/`` (parent-child) or ``//`` (ancestor-descendant).
- Qualifiers in ``[...]`` are conjunctions of relative paths, ``.contains(FTExp)``
  (equivalently ``contains(., FTExp)``), and attribute comparisons.
- The *distinguished node* is the last step of the trunk path (the node the
  paper draws in a box).

Variables are assigned ``$1``, ``$2``, ... in the pre-order the parser
visits pattern nodes, matching the numbering used in the paper's figures.
"""

from __future__ import annotations

from repro.errors import QueryParseError
from repro.ir.ftexpr import parse_ftexpr
from repro.query.predicates import AttrCompare, Contains
from repro.query.tpq import AD, PC, TPQ

_REL_OPS = ("<=", ">=", "!=", "=", "<", ">")

#: Deepest pattern node the parser accepts, in steps from the root.  The
#: paper's queries are at most five deep; every later pass over a pattern
#: (closure, minimization, ``to_xpath``) recurses along it, and at this
#: depth they all stay far inside Python's stack limit.
MAX_PATTERN_DEPTH = 32


def parse_query(text):
    """Parse an XPath-fragment string into a :class:`TPQ`."""
    return _QueryParser(text).parse()


class _PatternNode:
    """Mutable pattern node used during parsing."""

    __slots__ = ("tag", "axis", "children", "contains", "attrs")

    def __init__(self, tag, axis):
        self.tag = tag
        self.axis = axis
        self.children = []
        self.contains = []
        self.attrs = []


class _QueryParser:
    def __init__(self, text):
        self._text = text
        self._pos = 0
        self._length = len(text)

    # -- entry ----------------------------------------------------------------

    def parse(self):
        self._skip_ws()
        if self._pos >= self._length or self._text[self._pos] != "/":
            raise QueryParseError("query must start with '/' or '//'")
        trunk = self._parse_path(0)
        self._skip_ws()
        if self._pos != self._length:
            raise QueryParseError(
                "unexpected trailing input: %r" % self._text[self._pos:]
            )
        return self._to_tpq(trunk)

    def _to_tpq(self, trunk):
        edges = {}
        tags = {}
        contains = []
        attr_predicates = []
        counter = [0]

        def fresh_var():
            counter[0] += 1
            return "$%d" % counter[0]

        def emit(node, parent_var):
            var = fresh_var()
            if parent_var is not None:
                edges[var] = (parent_var, node.axis)
            if node.tag != "*":
                tags[var] = node.tag
            for raw in node.contains:
                contains.append(Contains(var, raw))
            for attr, rel_op, value in node.attrs:
                attr_predicates.append(AttrCompare(var, attr, rel_op, value))
            return var

        def walk(node, parent_var):
            var = emit(node, parent_var)
            for child in node.children:
                walk(child, var)

        # The trunk is a chain of steps; qualifiers branch off each step and
        # the distinguished variable is the one for the last trunk step.
        parent_var = None
        root_var = None
        last_var = None
        for node in trunk:
            var = emit(node, parent_var)
            if parent_var is None:
                root_var = var
            for child in node.children:
                walk(child, var)
            parent_var = var
            last_var = var

        return TPQ(
            root_var,
            edges,
            tags,
            distinguished=last_var,
            contains=contains,
            attr_predicates=attr_predicates,
        )

    # -- paths ------------------------------------------------------------------

    def _parse_path(self, depth):
        """Parse a chain of steps below a node ``depth`` steps deep.

        Returns the list of _PatternNodes.
        """
        steps = []
        while True:
            self._skip_ws()
            if depth == MAX_PATTERN_DEPTH and self._text.startswith("/", self._pos):
                raise QueryParseError(
                    "query pattern deeper than %d steps at offset %d"
                    % (MAX_PATTERN_DEPTH, self._pos)
                )
            if self._text.startswith("//", self._pos):
                axis = AD
                self._pos += 2
            elif self._text.startswith("/", self._pos):
                axis = PC
                self._pos += 1
            else:
                break
            tag = self._parse_name()
            node = _PatternNode(tag, axis)
            depth += 1
            self._skip_ws()
            if self._text.startswith("[", self._pos):
                self._pos += 1
                self._parse_qualifiers(node, depth)
            steps.append(node)
        if not steps:
            raise QueryParseError("expected a location step at offset %d" % self._pos)
        return steps

    def _parse_qualifiers(self, node, depth):
        while True:
            self._skip_ws()
            self._parse_qualifier(node, depth)
            self._skip_ws()
            if self._match_keyword("and"):
                continue
            if self._text.startswith("]", self._pos):
                self._pos += 1
                return
            raise QueryParseError(
                "expected 'and' or ']' at offset %d" % self._pos
            )

    def _parse_qualifier(self, node, depth):
        self._skip_ws()
        if self._text.startswith("@", self._pos):
            self._parse_attr_comparison(node)
            return
        if self._text.startswith("contains", self._pos):
            self._parse_contains(node, dotted=False)
            return
        if self._text.startswith(".contains", self._pos):
            self._pos += 1
            self._parse_contains(node, dotted=True)
            return
        if self._text.startswith("./", self._pos):
            self._pos += 1
            steps = self._parse_path(depth)
            self._attach_chain(node, steps)
            return
        if self._text.startswith("/", self._pos):
            steps = self._parse_path(depth)
            self._attach_chain(node, steps)
            return
        raise QueryParseError("expected a qualifier at offset %d" % self._pos)

    @staticmethod
    def _attach_chain(node, steps):
        node.children.append(steps[0])
        for parent, child in zip(steps, steps[1:]):
            parent.children.append(child)

    def _parse_contains(self, node, dotted):
        # At this point the input starts with "contains".
        self._pos += len("contains")
        self._skip_ws()
        if not self._text.startswith("(", self._pos):
            raise QueryParseError("expected '(' after contains")
        self._pos += 1
        self._skip_ws()
        if not dotted:
            # contains(., FTExp) form: consume the context dot and comma.
            if self._text.startswith(".", self._pos):
                self._pos += 1
                self._skip_ws()
                if not self._text.startswith(",", self._pos):
                    raise QueryParseError("expected ',' in contains(., FTExp)")
                self._pos += 1
        raw = self._capture_balanced()
        node.contains.append(parse_ftexpr(raw))

    def _capture_balanced(self):
        """Capture text up to the matching ')' (quotes respected)."""
        depth = 1
        start = self._pos
        while self._pos < self._length:
            char = self._text[self._pos]
            if char in ("'", '"'):
                end = self._text.find(char, self._pos + 1)
                if end < 0:
                    raise QueryParseError("unterminated string in contains(...)")
                self._pos = end + 1
                continue
            if char == "(":
                depth += 1
            elif char == ")":
                depth -= 1
                if depth == 0:
                    raw = self._text[start:self._pos]
                    self._pos += 1
                    return raw
            self._pos += 1
        raise QueryParseError("unterminated contains(...)")

    def _parse_attr_comparison(self, node):
        self._pos += 1  # consume '@'
        attr = self._parse_name()
        self._skip_ws()
        rel_op = None
        for candidate in _REL_OPS:
            if self._text.startswith(candidate, self._pos):
                rel_op = candidate
                self._pos += len(candidate)
                break
        if rel_op is None:
            raise QueryParseError("expected a comparison operator after @%s" % attr)
        self._skip_ws()
        value = self._parse_value()
        node.attrs.append((attr, rel_op, value))

    # -- lexical ------------------------------------------------------------------

    def _parse_name(self):
        self._skip_ws()
        if self._text.startswith("*", self._pos):
            self._pos += 1
            return "*"
        start = self._pos
        pos = start
        text = self._text
        while pos < self._length and (text[pos].isalnum() or text[pos] in "_-."):
            pos += 1
        if pos == start:
            raise QueryParseError("expected a tag name at offset %d" % start)
        self._pos = pos
        return text[start:pos]

    def _parse_value(self):
        char = self._text[self._pos:self._pos + 1]
        if char in ("'", '"'):
            end = self._text.find(char, self._pos + 1)
            if end < 0:
                raise QueryParseError("unterminated string value")
            value = self._text[self._pos + 1:end]
            self._pos = end + 1
            return value
        start = self._pos
        pos = start
        text = self._text
        while pos < self._length and (text[pos].isalnum() or text[pos] in "._-"):
            pos += 1
        if pos == start:
            raise QueryParseError("expected a value at offset %d" % start)
        self._pos = pos
        return text[start:pos]

    def _match_keyword(self, word):
        if self._text.startswith(word, self._pos):
            end = self._pos + len(word)
            if end >= self._length or not (self._text[end].isalnum() or self._text[end] == "_"):
                self._pos = end
                return True
        return False

    def _skip_ws(self):
        text = self._text
        pos = self._pos
        while pos < self._length and text[pos] in " \t\r\n":
            pos += 1
        self._pos = pos
