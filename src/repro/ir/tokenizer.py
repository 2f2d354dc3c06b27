"""Tokenization for the IR engine.

Lower-cases, splits on non-alphanumeric characters, drops a small stop-word
list, and stems with the Porter stemmer. The same pipeline is
used at indexing time and at query time so that terms line up.
"""

from __future__ import annotations

import re
from functools import lru_cache

from repro.ir.stemmer import stem

# Maximal runs of ``str.isalnum()`` characters: ``\w`` is exactly "alnum or
# underscore" for str patterns, so take the underscore back out.
_WORD = re.compile(r"[^\W_]+")

#: Bound on the surface word -> term memo behind :func:`normalize_term`.  A
#: corpus' vocabulary is tiny next to its token count (Zipf), so nearly
#: every call is a hit; a full memo of words up to 10 letters is about
#: 13 MB (the word, its term, an LRU link, a dict slot per entry).
TERM_MEMO_SIZE = 1 << 16

# The classic short stop list; enough to keep the index focused without
# changing which documents satisfy conjunctive queries in practice.
STOP_WORDS = frozenset(
    """a an and are as at be by for from has he in is it its of on that the
    to was were will with this these those they them then than but or not
    into over under after before between during about""".split()
)


def _lower(word):
    """Lower-case a word character by character.

    ``str.lower()`` on a whole word agrees with that except for capital
    sigma, whose lower case depends on its position in the word, so a word
    containing one takes the per-character route.
    """
    if "\u03a3" in word:
        return "".join(map(str.lower, word))
    return word.lower()


def tokenize(text):
    """Split text into lower-case word tokens (no stemming, no stop list)."""
    return [_lower(word) for word in _WORD.findall(text)]


@lru_cache(maxsize=TERM_MEMO_SIZE)
def normalize_term(word):
    """The index term of one surface word, or None for a stop word.

    The one word normaliser: indexed text and every query word (the FTExp
    parser's words, the IR engine's probes, the reference matcher,
    highlighting) come through here, so a query word matches its own text.
    Memoized and bounded by :data:`TERM_MEMO_SIZE`, so a repeated surface
    word costs one lookup instead of a lower-casing, a stop-list probe and
    a stem.  A query made only of stop words matches nothing rather than
    everything.
    """
    word = _lower(word)
    return None if word in STOP_WORDS else stem(word)


def tokenize_and_stem(text):
    """Full pipeline: tokenize, drop stop words, stem."""
    return [term for term in map(normalize_term, _WORD.findall(text))
            if term is not None]
