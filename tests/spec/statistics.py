"""Reference statistics: the §4.3.1/§6 counts by their definitions.

Walks node views — every node, and every ancestor of every node — and
keeps one node-id set per tag pair for the distinct counts, so each count
is literally the cardinality its name describes.  The column counter
:class:`repro.backend.stats.DocumentStatistics` must agree with it on every
``(tag | None)²`` pair.  ``virtual_root_id`` is left out of every count,
as there.
"""

from __future__ import annotations


class ReferenceStatistics:
    """``#(t)``, ``#pc``, ``#ad`` and the distinct-parent/ancestor counts
    of a whole document, counted from scratch."""

    def __init__(self, document, virtual_root_id=None):
        self.document = document
        self.virtual_root_id = virtual_root_id
        self._tag_counts = {}
        self._pc_pairs = {}
        self._ad_pairs = {}
        self._pc_parent_sets = {}
        self._ad_ancestor_sets = {}
        for node in document.nodes():
            if node.node_id == virtual_root_id:
                continue
            self._tag_counts[node.tag] = self._tag_counts.get(node.tag, 0) + 1
            parent = document.parent(node)
            if parent is not None and parent.node_id != virtual_root_id:
                self._count(self._pc_pairs, self._pc_parent_sets, parent, node)
            for ancestor in document.ancestors(node):
                if ancestor.node_id != virtual_root_id:
                    self._count(
                        self._ad_pairs, self._ad_ancestor_sets, ancestor, node
                    )

    @staticmethod
    def _count(pairs, upper_sets, upper, lower):
        for key in (
            (upper.tag, lower.tag),
            (upper.tag, None),
            (None, lower.tag),
            (None, None),
        ):
            pairs[key] = pairs.get(key, 0) + 1
            upper_sets.setdefault(key, set()).add(upper.node_id)

    @property
    def total_elements(self):
        total = len(self.document)
        return total if self.virtual_root_id is None else total - 1

    def tag_count(self, tag):
        if tag is None:
            return self.total_elements
        return self._tag_counts.get(tag, 0)

    def pc_count(self, parent_tag, child_tag):
        return self._pc_pairs.get((parent_tag, child_tag), 0)

    def ad_count(self, ancestor_tag, descendant_tag):
        return self._ad_pairs.get((ancestor_tag, descendant_tag), 0)

    def pc_parent_count(self, parent_tag, child_tag):
        return len(self._pc_parent_sets.get((parent_tag, child_tag), ()))

    def ad_ancestor_count(self, ancestor_tag, descendant_tag):
        return len(self._ad_ancestor_sets.get((ancestor_tag, descendant_tag), ()))


#: The four pair counts every statistics source answers.
PAIR_COUNTS = (
    "pc_count",
    "ad_count",
    "pc_parent_count",
    "ad_ancestor_count",
)


def all_counts(statistics, tags):
    """Every count of every ``(tag | None)²`` pair over ``tags``, keyed by
    ``(method, upper, lower)``; ``tag_count`` keyed by ``(method, tag)``."""
    tags = sorted(tags) + [None]
    counts = {("tag_count", tag): statistics.tag_count(tag) for tag in tags}
    counts["total_elements"] = statistics.total_elements
    for method in PAIR_COUNTS:
        count = getattr(statistics, method)
        for upper in tags:
            for lower in tags:
                counts[method, upper, lower] = count(upper, lower)
    return counts
