"""IR subsystem: tokenizer, Porter stemmer, FTExp language, inverted index,
tf-idf scoring, and the IR engine that evaluates ``contains`` predicates."""

from repro.ir.engine import IREngine
from repro.ir.ftexpr import (
    And,
    Not,
    Or,
    Phrase,
    Term,
    Window,
    conjunction,
    parse_ftexpr,
)
from repro.ir.highlight import highlight, snippet
from repro.ir.index import InvertedIndex, Posting
from repro.ir.matching import ftexpr_matches
from repro.ir.scoring import idf, positive_terms, score_subtree, tf_saturation
from repro.ir.stemmer import stem
from repro.ir.tokenizer import (
    STOP_WORDS,
    normalize_term,
    tokenize,
    tokenize_and_stem,
)

__all__ = [
    "And",
    "IREngine",
    "InvertedIndex",
    "Not",
    "Or",
    "Phrase",
    "Posting",
    "STOP_WORDS",
    "Term",
    "Window",
    "conjunction",
    "ftexpr_matches",
    "highlight",
    "idf",
    "snippet",
    "normalize_term",
    "parse_ftexpr",
    "positive_terms",
    "score_subtree",
    "stem",
    "tf_saturation",
    "tokenize",
    "tokenize_and_stem",
]
