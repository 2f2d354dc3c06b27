"""Exception hierarchy for the FleXPath reproduction.

All library errors derive from :class:`FleXPathError` so callers can catch a
single base class. Subclasses mirror the major subsystems.
"""

from __future__ import annotations


class FleXPathError(Exception):
    """Base class for all errors raised by this library."""


class XMLParseError(FleXPathError):
    """Raised when an XML document cannot be parsed.

    Carries the byte offset and a short description of the problem.
    """

    def __init__(self, message, position=None):
        if position is not None:
            message = "%s (at offset %d)" % (message, position)
        super().__init__(message)
        self.position = position


class QueryParseError(FleXPathError):
    """Raised when an XPath-fragment query string cannot be parsed."""


class FTExprParseError(FleXPathError):
    """Raised when a full-text expression cannot be parsed."""


class InvalidQueryError(FleXPathError):
    """Raised when a tree pattern query violates a structural invariant.

    Examples: a pattern graph that is not a tree, an undefined distinguished
    node, or a predicate referring to a variable that is not in the pattern.
    """


class InvalidRelaxationError(FleXPathError):
    """Raised when a relaxation operator is applied where it is undefined.

    Examples: deleting the root of a pattern, promoting a node with no
    grandparent, or promoting a ``contains`` predicate above the root.
    """


class EvaluationError(FleXPathError):
    """Raised when query evaluation fails for reasons other than bad input."""


class CorruptStorageError(FleXPathError):
    """Raised when an on-disk artifact fails validation on load.

    Covers every persistent surface — ``dump_document`` files, DiskBackend
    segment files, and write-ahead-log records — with one contract: the
    message starts with ``corrupt`` and names the offending file plus the
    node or byte offset where validation failed.  Raw
    ``ValueError`` / ``IndexError`` / ``struct.error`` from a truncated or
    bit-flipped file never escape to callers.
    """


class QueryTimeoutError(FleXPathError):
    """Raised when a query runs past its session deadline.

    The deadline is checked at plan boundaries (before every level) and at
    join boundaries inside the executor, so a timed-out query aborts
    between pipeline steps with all shared state consistent.
    """


class QueryCancelledError(FleXPathError):
    """Raised inside a query whose session was cancelled from another thread."""


class QueryBatchError(FleXPathError):
    """Raised after a ``query_many`` batch in which some queries failed.

    One bad query never aborts its siblings: every query in the batch runs
    to completion (or its own failure) first, then this error reports all
    failures together, in input order.

    Attributes:
        errors: list of ``(index, exception)`` pairs, ascending by index.
        results: the full batch in input order — a
            :class:`~repro.topk.base.TopKResult` per succeeded query,
            None at each failed position.
    """

    def __init__(self, errors, results):
        self.errors = list(errors)
        self.results = results
        shown = "; ".join(
            "#%d: %s" % (index, exc) for index, exc in self.errors[:3]
        )
        if len(self.errors) > 3:
            shown += "; ..."
        super().__init__(
            "%d of %d queries failed: %s"
            % (len(self.errors), len(results), shown)
        )
