"""Tree pattern queries: model, parser, predicates."""

from repro.query.parser import parse_query
from repro.query.predicates import Ad, AttrCompare, Contains, Pc, Tag, is_structural
from repro.query.tpq import AD, PC, TPQ

__all__ = [
    "AD",
    "Ad",
    "AttrCompare",
    "Contains",
    "PC",
    "Pc",
    "TPQ",
    "Tag",
    "is_structural",
    "parse_query",
]
