"""Result snippets with highlighted query terms.

Downstream users of a full-text engine expect keyword-in-context output;
this module produces it from the same tokenizer pipeline the index uses,
so highlighting agrees exactly with what matched (stems, stop words and
all).
"""

from __future__ import annotations

from repro.ir.scoring import positive_terms
from repro.ir.tokenizer import _WORD, normalize_term


def _match_positions(text, expression):
    """Character spans of words in ``text`` whose term is a positive term
    of ``expression``."""
    terms = set(map(normalize_term, positive_terms(expression)))
    terms.discard(None)
    return [
        match.span() for match in _WORD.finditer(text)
        if normalize_term(match.group()) in terms
    ]


def highlight(text, expression, marker=("**", "**")):
    """Wrap every positive-term occurrence in ``text`` with markers."""
    spans = _match_positions(text, expression)
    if not spans:
        return text
    open_mark, close_mark = marker
    parts = []
    cursor = 0
    for start, end in spans:
        parts.append(text[cursor:start])
        parts.append(open_mark)
        parts.append(text[start:end])
        parts.append(close_mark)
        cursor = end
    parts.append(text[cursor:])
    return "".join(parts)


def snippet(text, expression, width=80, marker=("**", "**")):
    """A window of ``text`` around the first match, highlighted.

    Falls back to the (truncated) prefix when nothing matches.
    """
    spans = _match_positions(text, expression)
    if not spans:
        return text[:width] + ("..." if len(text) > width else "")
    first_start, first_end = spans[0]
    center = (first_start + first_end) // 2
    half = width // 2
    window_start = max(0, center - half)
    window_end = min(len(text), window_start + width)
    window_start = max(0, window_end - width)

    clipped = [
        (max(start, window_start), min(end, window_end))
        for start, end in spans
        if end > window_start and start < window_end
    ]
    open_mark, close_mark = marker
    parts = []
    cursor = window_start
    for start, end in clipped:
        parts.append(text[cursor:start])
        parts.append(open_mark)
        parts.append(text[start:end])
        parts.append(close_mark)
        cursor = end
    parts.append(text[cursor:window_end])
    body = "".join(parts)
    prefix = "..." if window_start > 0 else ""
    suffix = "..." if window_end < len(text) else ""
    return prefix + body + suffix
