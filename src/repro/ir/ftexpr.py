"""Full-text expression language (FTExp) for the ``contains`` predicate.

The paper leaves FTExp open-ended ("as complex as an IR engine can handle
— stemming, proximity distance, Boolean predicates") and points at
TeXQuery [2]. We implement the core of that space:

- keywords (stemmed at evaluation time),
- phrases (``"xml streaming"`` with more than one word; a quoted string
  splits into words like indexed text, so ``"e-mail"`` is ``e mail``),
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
from repro.ir.tokenizer import tokenize


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

#: Deepest nesting of parentheses and ``not`` the parser accepts.  Each
#: level is a recursion of the parser, and a ``not`` one of every later
#: walk over the expression; at this depth both stay far inside Python's
#: stack limit.
MAX_NESTING = 32


def parse_ftexpr(text):
    """Parse the concrete FTExp syntax into an AST."""
    parser = _FTParser(text)
    expr = parser.parse_or()
    parser.expect_end()
    return expr


class _FTParser:
    def __init__(self, text):
        self._tokens, self._offsets = _tokenize(text)
        self._pos = 0
        self._depth = 0

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

    def _nested(self, parse):
        """Consume the opening token and ``parse()`` one level deeper."""
        if self._depth == MAX_NESTING:
            raise FTExprParseError(
                "full-text expression nests deeper than %d at offset %d"
                % (MAX_NESTING, self._offsets[self._pos])
            )
        self._pos += 1
        self._depth += 1
        expr = parse()
        self._depth -= 1
        return expr

    def parse_unary(self):
        if self._peek() == ("keyword", "not"):
            return Not(self._nested(self.parse_unary))
        return self.parse_primary()

    def parse_primary(self):
        if self._peek() == ("lparen", "("):
            expr = self._nested(self.parse_or)
            if self._next() != ("rparen", ")"):
                raise FTExprParseError("expected ')'")
            return expr
        kind, value = self._next()
        if kind == "word" and value == "window":
            return self._parse_window()
        if kind not in ("string", "word"):
            raise FTExprParseError("unexpected token %r" % value)
        words = _words(value)
        if len(words) == 1:
            return Term(words[0])
        return Phrase(words)

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
            if kind not in ("string", "word"):
                raise FTExprParseError("expected a term inside window(...)")
            words.extend(_words(value))
        if self._next() != ("rparen", ")"):
            raise FTExprParseError("expected ')' closing window(...)")
        if not words:
            raise FTExprParseError("window(...) needs at least one term")
        return Window(size, tuple(words))


def _words(value):
    """The words of a quoted string or a bare word, split and lower-cased
    like indexed text (:func:`~repro.ir.tokenizer.tokenize`), so a query
    word matches its own text: ``"e-mail"`` is the phrase ``e mail``."""
    words = tuple(tokenize(value))
    if not words:
        raise FTExprParseError("no word to match in %r" % value)
    return words


def _tokenize(text):
    """The tokens of ``text`` and, in a parallel list, each one's offset."""
    tokens = []
    offsets = []
    pos = 0
    length = len(text)
    while pos < length:
        start = pos
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
        if len(offsets) < len(tokens):
            offsets.append(start)
    return tokens, offsets
