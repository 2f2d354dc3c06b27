"""Corpus statistics for penalties and selectivity (§4.3.1, §6).

The paper's formulas read a handful of integers per tag pair:

- ``#(t)``              — elements per tag,
- ``#pc(t1, t2)``       — parent-child pairs per tag pair,
- ``#ad(t1, t2)``       — ancestor-descendant pairs per tag pair,
- distinct-parent / distinct-ancestor variants of the above, which drive
  the uniform-independence selectivity estimator ("suppose 60% of A's in
  the document have a B as a child ...", §6).

``#(t)`` is the length of the tag index's id list.  The pair counts are
integer counters keyed by tag-id pairs, from one preorder walk over the
store's ``tag_ids`` and ``parent_ids`` columns — no node view is built.  The
walk counts nodes per root-to-node tag path, and ``#pc``/``#ad`` follow
from those few hundred paths.  For the distinct counts each open ancestor
keeps the tags seen below it and the tags of its children, dropped when
the walk leaves its subtree; a new ``t`` node walks up only until an
ancestor that has already seen ``t``.  No node-id set is kept.  ``None``
(any tag) marginals are sums of the named counters, except "has at least
one child", counted at each node's first child.

**Why the counts add up across** :meth:`DocumentStatistics.extend` **calls.**
Every pair is attributed to its lower endpoint, and a corpus splices every
document under its excluded virtual root, so no node of a new range has a
counted ancestor: the new range's pairs, and its distinct parents and
ancestors, are disjoint from everything counted before.  ``extend`` refuses
a range that does not start at such a root.

``#contains`` statistics live in the IR engine (they depend on the query's
full-text expression); :class:`~repro.relax.penalties.PenaltyModel` combines
both sources.

This module is part of the physical layer: query-side code reaches these
counts through the :class:`~repro.backend.base.StorageBackend` statistics
methods, never by importing :class:`DocumentStatistics` directly.
"""

from __future__ import annotations

from collections import Counter

#: The counters of :meth:`DocumentStatistics.state`, each keyed by
#: ``(upper tag id | None, lower tag id | None)``.
COUNTERS = ("pc", "ad", "pc_parents", "ad_ancestors")


def count_tag(document, tag, virtual_root_id):
    """``#(t)`` off the tag index (None: every element), leaving out the
    virtual root."""
    store = document.store
    count = len(store) if tag is None else len(store.node_ids_with_tag(tag))
    if count and virtual_root_id is not None:
        if tag is None or store.tag_of(virtual_root_id) == tag:
            count -= 1
    return count


def _add(counts, upper, lower, count):
    """Add to a named pair and its three any-tag marginals."""
    counts[upper, lower] += count
    counts[upper, None] += count
    counts[None, lower] += count
    counts[None, None] += count


class CountFractions:
    """The estimator's existence fractions (§6): distinct counts over ``#(t)``."""

    def pc_child_fraction(self, parent_tag, child_tag):
        """Fraction of ``parent_tag`` elements with a ``child_tag`` child."""
        total = self.tag_count(parent_tag)
        if total == 0:
            return 0.0
        return self.pc_parent_count(parent_tag, child_tag) / total

    def ad_descendant_fraction(self, ancestor_tag, descendant_tag):
        """Fraction of ``ancestor_tag`` elements with a ``descendant_tag``
        descendant."""
        total = self.tag_count(ancestor_tag)
        if total == 0:
            return 0.0
        return self.ad_ancestor_count(ancestor_tag, descendant_tag) / total


class DocumentStatistics(CountFractions):
    """Tag and tag-pair counts for one document.

    ``virtual_root_id`` marks a corpus' synthetic collection root.  That
    node is excluded from every count — it is not an element of any source
    document, it forms an ancestor-descendant pair with *every* node, and
    counting it inflates exactly the wildcard marginals and promotion
    denominators the penalty model divides by (§4.3.1).  With the exclusion
    a one-document corpus yields the same statistics (hence the same
    penalties) as the document queried stand-alone.
    """

    def __init__(self, document, virtual_root_id=None):
        self._document = document
        self._virtual_root_id = virtual_root_id
        self._counts = {name: Counter() for name in COUNTERS}
        self._counted_upto = 0
        self.extend(0)

    def extend(self, start_id, end_id=None):
        """Fold nodes ``[start_id, end_id)`` into the statistics.

        ``start_id`` must be a root: the document's, or a child of the
        excluded virtual root (a spliced corpus document).  Below any other
        node the new pairs would meet ancestors this call cannot see, and
        its distinct counts would count them again.
        """
        store = self._document.store
        end_id = len(store) if end_id is None else end_id
        if start_id < self._counted_upto:
            raise ValueError(
                "cannot extend statistics backwards (counted to %d, asked for %d)"
                % (self._counted_upto, start_id)
            )
        root = self._virtual_root_id
        tag_ids, parent_ids = store.tag_ids, store.parent_ids
        if start_id == root:
            start_id += 1
        if start_id < end_id and parent_ids[start_id] not in (-1, root):
            raise ValueError(
                "statistics extend from a document root; node %d's parent %d "
                "is not one" % (start_id, parent_ids[start_id])
            )
        counts = self._counts
        pc_parents, ad_ancestors = counts["pc_parents"], counts["ad_ancestors"]
        paths = Counter()  # nodes per root-to-node tag path
        # One frame per counted ancestor of the current node: its id, its
        # tag path, the tags seen below it, and the tags of its children.
        # Pre-order puts the parent on the stack; a range root's parent is
        # not counted, so it empties the stack.
        frames = []
        for node_id in range(start_id, end_id):
            parent = parent_ids[node_id]
            while frames and frames[-1][0] != parent:
                frames.pop()
            depth = len(frames)
            tag = tag_ids[node_id]
            if depth:
                _, path, _, children = frames[-1]
                parent_tag = path[-1]
                path += (tag,)
                if tag not in children:
                    if not children:  # the first child: "has a child"
                        for distinct in (pc_parents, ad_ancestors):
                            distinct[parent_tag, None] += 1
                            distinct[None, None] += 1
                    children.add(tag)
                    pc_parents[parent_tag, tag] += 1
                    pc_parents[None, tag] += 1
                    # An ancestor that has seen ``tag`` below it has had
                    # its own ancestors see it too: the walk stops there.
                    while depth and tag not in frames[depth - 1][2]:
                        depth -= 1
                        frames[depth][2].add(tag)
                        ad_ancestors[path[depth], tag] += 1
                        ad_ancestors[None, tag] += 1
            else:
                path = (tag,)
            paths[path] += 1
            frames.append((node_id, path, set(), set()))
        for path, count in paths.items():
            if len(path) > 1:
                tag = path[-1]
                _add(counts["pc"], path[-2], tag, count)
                for upper, pairs in Counter(path[:-1]).items():
                    _add(counts["ad"], upper, tag, pairs * count)
        if end_id > self._counted_upto:
            self._counted_upto = end_id

    def state(self):
        """Export ``counted_upto`` and the :data:`COUNTERS` as plain dicts.

        :meth:`from_state` over the same document answers identically and
        keeps extending from ``counted_upto``, so a reopened corpus never
        recounts sealed nodes.
        """
        state = {name: dict(counts) for name, counts in self._counts.items()}
        state["counted_upto"] = self._counted_upto
        return state

    @classmethod
    def from_state(cls, document, state, virtual_root_id=None):
        """Rebuild statistics from a :meth:`state` export without a scan."""
        self = cls.__new__(cls)
        self._document = document
        self._virtual_root_id = virtual_root_id
        self._counts = {name: Counter(state[name]) for name in COUNTERS}
        self._counted_upto = state["counted_upto"]
        return self

    @property
    def total_elements(self):
        return self.tag_count(None)

    def tag_count(self, tag):
        """``#(t)``: number of elements with the tag (None counts all)."""
        return count_tag(self._document, tag, self._virtual_root_id)

    def _get(self, name, upper, lower):
        # An unknown name's id is -1, which no key carries.
        id_of = self._document.store.tags.id_of
        return self._counts[name].get(
            (
                None if upper is None else id_of(upper),
                None if lower is None else id_of(lower),
            ),
            0,
        )

    def pc_count(self, parent_tag, child_tag):
        """``#pc(t1, t2)``: number of parent-child pairs."""
        return self._get("pc", parent_tag, child_tag)

    def ad_count(self, ancestor_tag, descendant_tag):
        """``#ad(t1, t2)``: number of ancestor-descendant pairs."""
        return self._get("ad", ancestor_tag, descendant_tag)

    def pc_parent_count(self, parent_tag, child_tag):
        """Distinct ``parent_tag`` elements with ≥1 ``child_tag`` child."""
        return self._get("pc_parents", parent_tag, child_tag)

    def ad_ancestor_count(self, ancestor_tag, descendant_tag):
        """Distinct ``ancestor_tag`` elements with ≥1 ``descendant_tag``
        descendant."""
        return self._get("ad_ancestors", ancestor_tag, descendant_tag)
