"""Full-text expression language (FTExp) for the ``contains`` predicate.

The paper leaves FTExp open-ended ("as complex as an IR engine can handle
— stemming, proximity distance, Boolean predicates") and points at
TeXQuery [2]. We implement the core of that space:

- keywords (stemmed at evaluation time),
- phrases (``"xml streaming"`` with more than one word),
- Boolean combinations ``and`` / ``or`` / ``not``,
- proximity: ``window(5, "xml", "streaming")`` — all terms within a window
  of the given size (in tokens).

The concrete syntax matches the paper's examples::

    "XML" and "streaming"
    ("query" or "search") and not "relational"
    window(8, "top", "k")

All AST nodes are frozen dataclasses: FTExp values are embedded in
``Contains`` predicates, which must be hashable to live in predicate sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FTExprParseError


def _hash_once(cls):
    """Class decorator: compute the dataclass field hash once per object.

    An expression keys every IR-engine and evaluation-cache probe, and the
    generated ``__hash__`` walks the whole expression tree on each call.
    The value is unchanged, only remembered; it is left out of pickles
    because string hashes differ between processes.
    """
    field_hash = cls.__hash__

    def __hash__(self):
        try:
            return self.__dict__["_hash"]
        except KeyError:
            value = self.__dict__["_hash"] = field_hash(self)
            return value

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


@_hash_once
@dataclass(frozen=True)
class Term:
    """A single keyword."""

    word: str

    def terms(self):
        yield self.word

    def __str__(self):
        return '"%s"' % self.word


@_hash_once
@dataclass(frozen=True)
class Phrase:
    """A multi-word phrase; words must occur consecutively."""

    words: tuple

    def terms(self):
        yield from self.words

    def __str__(self):
        return '"%s"' % " ".join(self.words)


@_hash_once
@dataclass(frozen=True)
class And:
    """Conjunction of sub-expressions."""

    children: tuple

    def terms(self):
        for child in self.children:
            yield from child.terms()

    def __str__(self):
        return "(%s)" % " and ".join(str(c) for c in self.children)


@_hash_once
@dataclass(frozen=True)
class Or:
    """Disjunction of sub-expressions."""

    children: tuple

    def terms(self):
        for child in self.children:
            yield from child.terms()

    def __str__(self):
        return "(%s)" % " or ".join(str(c) for c in self.children)


@_hash_once
@dataclass(frozen=True)
class Not:
    """Negation of a sub-expression."""

    child: object

    def terms(self):
        yield from self.child.terms()

    def __str__(self):
        return "not %s" % self.child


@_hash_once
@dataclass(frozen=True)
class Window:
    """Proximity: all terms occur within ``size`` consecutive tokens."""

    size: int
    words: tuple

    def terms(self):
        yield from self.words

    def __str__(self):
        quoted = ", ".join('"%s"' % w for w in self.words)
        return "window(%d, %s)" % (self.size, quoted)


FTExpr = (Term, Phrase, And, Or, Not, Window)


def conjunction(*words):
    """Build the common ``"w1" and "w2" and ...`` expression from words."""
    children = tuple(Term(word) for word in words)
    if len(children) == 1:
        return children[0]
    return And(children)


# -- parser -----------------------------------------------------------------


def parse_ftexpr(text):
    """Parse the concrete FTExp syntax into an AST."""
    parser = _FTParser(text)
    expr = parser.parse_or()
    parser.expect_end()
    return expr


class _FTParser:
    def __init__(self, text):
        self._tokens = _tokenize(text)
        self._pos = 0

    def _peek(self):
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def _next(self):
        token = self._peek()
        if token is None:
            raise FTExprParseError("unexpected end of full-text expression")
        self._pos += 1
        return token

    def expect_end(self):
        if self._peek() is not None:
            raise FTExprParseError(
                "unexpected token %r in full-text expression" % (self._peek()[1],)
            )

    def parse_or(self):
        children = [self.parse_and()]
        while self._peek() == ("keyword", "or"):
            self._next()
            children.append(self.parse_and())
        if len(children) == 1:
            return children[0]
        return Or(tuple(children))

    def parse_and(self):
        children = [self.parse_unary()]
        while self._peek() == ("keyword", "and"):
            self._next()
            children.append(self.parse_unary())
        if len(children) == 1:
            return children[0]
        return And(tuple(children))

    def parse_unary(self):
        if self._peek() == ("keyword", "not"):
            self._next()
            return Not(self.parse_unary())
        return self.parse_primary()

    def parse_primary(self):
        kind, value = self._next()
        if kind == "lparen":
            expr = self.parse_or()
            if self._next() != ("rparen", ")"):
                raise FTExprParseError("expected ')'")
            return expr
        if kind == "string":
            words = tuple(value.lower().split())
            if not words:
                raise FTExprParseError("empty quoted string")
            if len(words) == 1:
                return Term(words[0])
            return Phrase(words)
        if kind == "word" and value == "window":
            return self._parse_window()
        if kind == "word":
            return Term(value.lower())
        raise FTExprParseError("unexpected token %r" % value)

    def _parse_window(self):
        if self._next() != ("lparen", "("):
            raise FTExprParseError("expected '(' after window")
        kind, value = self._next()
        if kind != "number":
            raise FTExprParseError("window size must be an integer")
        size = int(value)
        if size < 1:
            raise FTExprParseError("window size must be positive")
        words = []
        while self._peek() == ("comma", ","):
            self._next()
            kind, value = self._next()
            if kind == "string":
                words.extend(value.lower().split())
            elif kind == "word":
                words.append(value.lower())
            else:
                raise FTExprParseError("expected a term inside window(...)")
        if self._next() != ("rparen", ")"):
            raise FTExprParseError("expected ')' closing window(...)")
        if not words:
            raise FTExprParseError("window(...) needs at least one term")
        return Window(size, tuple(words))


def _tokenize(text):
    tokens = []
    pos = 0
    length = len(text)
    while pos < length:
        char = text[pos]
        if char in " \t\r\n":
            pos += 1
        elif char == '"' or char == "'":
            end = text.find(char, pos + 1)
            if end < 0:
                raise FTExprParseError("unterminated quoted string")
            tokens.append(("string", text[pos + 1:end]))
            pos = end + 1
        elif char == "(":
            tokens.append(("lparen", "("))
            pos += 1
        elif char == ")":
            tokens.append(("rparen", ")"))
            pos += 1
        elif char == ",":
            tokens.append(("comma", ","))
            pos += 1
        elif char.isdigit():
            end = pos
            while end < length and text[end].isdigit():
                end += 1
            tokens.append(("number", text[pos:end]))
            pos = end
        elif char.isalpha() or char == "_":
            end = pos
            while end < length and (text[end].isalnum() or text[end] in "_-"):
                end += 1
            word = text[pos:end]
            if word in ("and", "or", "not"):
                tokens.append(("keyword", word))
            else:
                tokens.append(("word", word))
            pos = end
        else:
            raise FTExprParseError("unexpected character %r" % char)
    return tokens
