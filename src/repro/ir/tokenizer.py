"""Tokenization for the IR engine.

Lower-cases, splits on non-alphanumeric characters, drops a small stop-word
list, and (optionally) stems with the Porter stemmer. The same pipeline is
used at indexing time and at query time so that terms line up.
"""

from __future__ import annotations

import re

from repro.ir.stemmer import stem

# Maximal runs of ``str.isalnum()`` characters: ``\w`` is exactly "alnum or
# underscore" for str patterns, so take the underscore back out.
_WORD = re.compile(r"[^\W_]+")

# The classic short stop list; enough to keep the index focused without
# changing which documents satisfy conjunctive queries in practice.
STOP_WORDS = frozenset(
    """a an and are as at be by for from has he in is it its of on that the
    to was were will with this these those they them then than but or not
    into over under after before between during about""".split()
)


def tokenize(text):
    """Split text into lower-case word tokens (no stemming, no stop list).

    Tokens are lower-cased character by character.  ``str.lower()`` on a
    whole token agrees with that except for capital sigma, whose lower case
    depends on its position in the word, so text containing one takes the
    per-character route.
    """
    if "\u03a3" in text:
        return ["".join(map(str.lower, word)) for word in _WORD.findall(text)]
    return [word.lower() for word in _WORD.findall(text)]


def tokenize_and_stem(text, stop_words=STOP_WORDS):
    """Full pipeline: tokenize, drop stop words, stem."""
    return [stem(token) for token in tokenize(text) if token not in stop_words]


def normalize_term(term, stop_words=STOP_WORDS):
    """Normalize a single query term the same way document text is.

    Returns None for stop words (a query made only of stop words matches
    nothing rather than everything).
    """
    term = term.lower()
    if term in stop_words:
        return None
    return stem(term)
