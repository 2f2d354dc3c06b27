"""Inverted index over element text.

The index maps each (stemmed) term to the pre-order-sorted list of elements
*directly* containing it, with in-element token positions and a prefix-sum
array of occurrence counts. Because node ids are region starts, two binary
searches answer "how many occurrences of ``term`` fall inside the subtree
``[start, end)``" — the primitive behind subtree satisfaction checks,
tf scores, and the ``#contains`` statistics used by predicate penalties.
"""

from __future__ import annotations

import bisect
from itertools import accumulate

from repro.ir.tokenizer import tokenize_and_stem


class Posting:
    """Occurrences of one term: parallel arrays sorted by node id."""

    __slots__ = ("node_ids", "position_lists", "count_prefix")

    def __init__(self):
        self.node_ids = []
        self.position_lists = []
        # count_prefix[i] = total occurrences in node_ids[:i]
        self.count_prefix = [0]

    def add(self, node_id, positions):
        self.node_ids.append(node_id)
        self.position_lists.append(tuple(positions))
        self.count_prefix.append(self.count_prefix[-1] + len(positions))

    @property
    def document_frequency(self):
        """Number of elements directly containing the term."""
        return len(self.node_ids)

    @property
    def collection_frequency(self):
        """Total number of occurrences of the term."""
        return self.count_prefix[-1]

    def subtree_occurrences(self, start, end):
        """Total occurrences within the region ``[start, end)``."""
        lo = bisect.bisect_left(self.node_ids, start)
        hi = bisect.bisect_left(self.node_ids, end, lo=lo)
        return self.count_prefix[hi] - self.count_prefix[lo]

    def subtree_has(self, start, end):
        """True if any occurrence falls within ``[start, end)``."""
        lo = bisect.bisect_left(self.node_ids, start)
        return lo < len(self.node_ids) and self.node_ids[lo] < end

    def direct_node_ids_in(self, start, end):
        """Node ids with direct occurrences within ``[start, end)``."""
        lo = bisect.bisect_left(self.node_ids, start)
        hi = bisect.bisect_left(self.node_ids, end, lo=lo)
        return self.node_ids[lo:hi]

    def positions_of(self, node_id):
        """In-element token positions of the term for one node, or ()."""
        index = bisect.bisect_left(self.node_ids, node_id)
        if index < len(self.node_ids) and self.node_ids[index] == node_id:
            return self.position_lists[index]
        return ()


class InvertedIndex:
    """Positional inverted index over a document's element text."""

    def __init__(self, document):
        self._document = document
        self._postings = {}
        self._text_elements = 0
        self._indexed_upto = 0
        self.extend(0)

    def extend(self, start_id, end_id=None):
        """Index nodes ``[start_id, end_id)`` appended to the document.

        The incremental half of corpus ingest: appended node ids exceed
        every indexed id (fragments splice at the end of the node table),
        so each posting's id-sorted invariant survives a plain append and
        no existing posting entry is ever touched.  The range's occurrences
        are grouped by term first, so each term's posting is appended to
        once per call.
        """
        document = self._document
        end_id = len(document) if end_id is None else end_id
        if start_id < self._indexed_upto:
            raise ValueError(
                "cannot extend index backwards (indexed to %d, asked for %d)"
                % (self._indexed_upto, start_id)
            )
        texts = document.store.texts
        # term -> (node ids, position tuples), in first-occurrence order
        pending = {}
        text_elements = 0
        for node_id in range(start_id, end_id):
            text = texts[node_id]
            if not text:
                continue
            tokens = tokenize_and_stem(text)
            if not tokens:
                continue
            text_elements += 1
            per_term = {}
            for position, term in enumerate(tokens):
                per_term.setdefault(term, []).append(position)
            for term, positions in per_term.items():
                entry = pending.get(term)
                if entry is None:
                    pending[term] = ([node_id], [tuple(positions)])
                else:
                    entry[0].append(node_id)
                    entry[1].append(tuple(positions))
        for term, (node_ids, position_lists) in pending.items():
            posting = self._posting_for_append(term)
            posting.node_ids += node_ids
            posting.position_lists += position_lists
            counts = posting.count_prefix
            counts += accumulate(map(len, position_lists), initial=counts.pop())
        self._text_elements += text_elements
        if end_id > self._indexed_upto:
            self._indexed_upto = end_id

    def _posting_for_append(self, term):
        """The mutable posting new occurrences of ``term`` append to.

        Subclasses with sealed base postings (``DiskInvertedIndex``)
        override this so appends land on a hydrated copy of the sealed
        posting rather than silently forking a second one.
        """
        return self._postings.setdefault(term, Posting())

    @property
    def document(self):
        return self._document

    @property
    def text_element_count(self):
        """Number of elements that directly carry indexed text."""
        return self._text_elements

    @property
    def vocabulary_size(self):
        return len(self._postings)

    def posting(self, term):
        """Return the posting for a (stemmed) term, or None.

        The single lookup seam: every accessor below routes through here,
        so lazy subclasses only override this one method.
        """
        return self._postings.get(term)

    def document_frequency(self, term):
        posting = self.posting(term)
        return posting.document_frequency if posting else 0

    def subtree_term_frequency(self, term, node):
        """Occurrences of ``term`` anywhere inside ``node``'s subtree."""
        posting = self.posting(term)
        if posting is None:
            return 0
        return posting.subtree_occurrences(node.start, node.end)

    def subtree_has_term(self, term, node):
        posting = self.posting(term)
        return posting is not None and posting.subtree_has(node.start, node.end)

    def direct_nodes_with_term(self, term):
        """Node ids directly containing ``term`` (pre-order sorted)."""
        posting = self.posting(term)
        return list(posting.node_ids) if posting else []
