"""Columnar structural-join kernels (Al-Khalifa et al., ICDE 2002).

The physical-layer primitive every join plan is built from (§5.2.1): given
two id-sorted id sequences, produce all (ancestor, descendant) or
(parent, child) matches.  The kernels work directly over the node table's
``ends``/``parent_ids`` int columns — in the region encoding a node's id
equals its region start, so the id sequences double as the start-sorted
inputs and no node views are touched at all.

The ancestor-descendant axis is a single merge pass using a stack of open
ancestors.  When one side runs dry between matches the merge skips ahead
with :func:`bisect.bisect_left` instead of stepping descendant by
descendant.

The parent-child axis reads the parent column: a descendant's only
possible match is ``parent_ids[d]``, so one set of the ancestors and one
lookup per descendant answer it.  That visits every descendant, which the
merge avoids when a few ancestors face a big pool (it skips the gaps
between their regions), so the two join kernels read the parent column
only while the descendants number at most :data:`RATIO` times the
ancestors and merge (or probe) above it.  In the merge the top of the stack
is the deepest open ancestor and the only possible parent, so it checks
``parent_ids[d]`` against that one entry.  The two max-value kernels
always read the parent column for ``pc``: their merges visit every
descendant anyway.

One kernel is not a merge: :func:`semi_join_ancestor_ids` asks only *whether*
each ancestor has a match, which the region encoding answers with a binary
search per ancestor — it beats a merge whenever the descendant pool is not
much smaller than the ancestor list, because the merge steps through the
pool in Python and the probe searches it in C.

Four kernels, every one of them called by the executor: the binary
pipeline fills join tables with :func:`structural_join_ids` and answers
existential joins with :func:`semi_join_ancestor_ids`; the twig operator's
bottom-up pass also uses the probe, and its keyword-score passes are
:func:`max_value_per_ancestor` / :func:`max_value_per_descendant`.  They
are part of the :class:`~repro.backend.base.StorageBackend` seam: backends
may override the protocol's join methods with storage-native
implementations, and these pure-Python kernels are both the reference
semantics and the default implementation.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

#: A ``pc`` join or probe reads the parent column while
#: ``len(descendant_ids) <= RATIO * len(ancestor_ids)``; above that the
#: merge's (or the probe's) skipping over the pool costs less than a lookup
#: per descendant.  On ``pc`` inputs captured from the paper's queries and
#: from a cold query mix, ratios 4 to 16 gave the lowest summed kernel time;
#: no ratio (the parent column always) and 1 were slower (DESIGN §9).
RATIO = 4


def _check_axis(axis):
    if axis not in ("ad", "pc"):
        raise ValueError("axis must be 'ad' or 'pc'")


def _by_parent_column(ancestor_ids, descendant_ids):
    """True when a ``pc`` join should read the parent column (see :data:`RATIO`)."""
    return len(descendant_ids) <= RATIO * len(ancestor_ids)


def structural_join_ids(ends, parent_ids, ancestor_ids, descendant_ids,
                        axis="ad"):
    """Columnar join: id-sorted id sequences in, ``(aid, did)`` pairs out.

    ``ends`` and ``parent_ids`` are the node table's columns (indexable by
    node id); node ids equal region starts, so the sorted id sequences are
    the start-sorted join inputs.  Pairs come out sorted by descendant id.
    """
    _check_axis(axis)
    parent_only = axis == "pc"
    if parent_only and _by_parent_column(ancestor_ids, descendant_ids):
        wanted = set(ancestor_ids)
        return [
            (parent, descendant)
            for parent, descendant in zip(
                map(parent_ids.__getitem__, descendant_ids), descendant_ids
            )
            if parent in wanted
        ]
    results = []
    stack = []
    a_index = 0
    d_index = 0
    a_len = len(ancestor_ids)
    d_len = len(descendant_ids)

    while d_index < d_len:
        descendant = descendant_ids[d_index]
        if not stack:
            if a_index == a_len:
                break  # nothing open, nothing left to open
            if ancestor_ids[a_index] > descendant:
                # The next candidate starts later: every descendant
                # before it cannot match — bisect straight there.
                d_index = bisect_left(
                    descendant_ids, ancestor_ids[a_index], lo=d_index + 1
                )
                continue
        # Push every ancestor candidate opening before this descendant.
        while a_index < a_len and ancestor_ids[a_index] < descendant:
            candidate = ancestor_ids[a_index]
            while stack and ends[stack[-1]] <= candidate:
                stack.pop()
            stack.append(candidate)
            a_index += 1
        # Pop ancestors whose region closed before this descendant; the
        # survivors form a nested chain of regions all containing it.
        while stack and ends[stack[-1]] <= descendant:
            stack.pop()
        if parent_only:
            if stack and parent_ids[descendant] == stack[-1]:
                results.append((stack[-1], descendant))
        else:
            for ancestor in stack:
                results.append((ancestor, descendant))
        d_index += 1
    return results


def semi_join_ancestor_ids(ends, parent_ids, ancestor_ids, descendant_ids,
                           axis="ad"):
    """Ids from ``ancestor_ids`` with at least one joining descendant.

    A probe per ancestor, not a merge: the descendants of ``a`` are the
    slice of the id-sorted ``descendant_ids`` inside ``(a, ends[a])``, so
    ``ad`` is one binary search plus one compare, and ``pc`` walks that
    slice skipping the whole subtree of every non-child it meets and stops
    at the first child.  While the ancestors ascend the search resumes
    where the previous one ended, and an ancestor that starts before the
    descendant already found there needs no search at all.  The
    Python-level work is per *ancestor*, whatever the size of
    ``descendant_ids`` — except for a ``pc`` probe against a pool at most
    :data:`RATIO` times the ancestors, which keeps the ancestors found
    among the pool's parents instead.  ``ancestor_ids`` may come in any
    order and the output keeps it.
    """
    _check_axis(axis)
    parent_only = axis == "pc"
    if parent_only and _by_parent_column(ancestor_ids, descendant_ids):
        parents = set(map(parent_ids.__getitem__, descendant_ids))
        return [ancestor for ancestor in ancestor_ids if ancestor in parents]
    kept = []
    d_len = len(descendant_ids)
    if not d_len:
        return kept
    last = descendant_ids[d_len - 1]
    index = 0  # the first descendant past ``previous``
    previous = -1
    for ancestor in ancestor_ids:
        if ancestor >= last:
            continue  # no descendant starts after it
        if ancestor < previous:
            index = 0  # not ascending: search from the start again
        previous = ancestor
        if descendant_ids[index] <= ancestor:
            index = bisect_right(descendant_ids, ancestor, index + 1)
        descendant = descendant_ids[index]
        end = ends[ancestor]
        if not parent_only:
            if descendant < end:
                kept.append(ancestor)
            continue
        probe = index
        while descendant < end:
            if parent_ids[descendant] == ancestor:
                kept.append(ancestor)
                break
            probe = bisect_left(descendant_ids, ends[descendant], probe + 1)
            if probe == d_len:
                break
            descendant = descendant_ids[probe]
    return kept


def max_value_per_ancestor(ends, parent_ids, ancestor_ids, descendant_ids,
                           descendant_values, axis="ad"):
    """Per ancestor, the max value over its joining descendants.

    ``descendant_values`` maps descendant id to a float.  Returns a dict
    ``{ancestor_id: max}`` containing only ancestors with at least one
    match — the max-aggregation half of the twig keyword-score pass.

    The parent-child axis folds each descendant's value into its parent's,
    read off the parent column.  The ancestor-descendant axis exploits
    nesting instead of scanning the stack per match: a descendant's value
    lands on the *top* open ancestor only, and a popped ancestor folds its
    accumulated max into the new top (every descendant inside the popped
    region is inside the region below it too).
    """
    _check_axis(axis)
    best = {}
    if axis == "pc":
        wanted = set(ancestor_ids)
        for descendant in descendant_ids:
            parent = parent_ids[descendant]
            if parent in wanted:
                value = descendant_values[descendant]
                current = best.get(parent)
                if current is None or value > current:
                    best[parent] = value
        return best
    stack = []  # [ancestor_id, accumulated_max or None]
    a_index = 0
    d_index = 0
    a_len = len(ancestor_ids)
    d_len = len(descendant_ids)

    def close_top():
        ancestor, accumulated = stack.pop()
        if accumulated is None:
            return
        current = best.get(ancestor)
        if current is None or accumulated > current:
            best[ancestor] = accumulated
        if stack:
            below = stack[-1][1]
            if below is None or accumulated > below:
                stack[-1][1] = accumulated

    while d_index < d_len:
        descendant = descendant_ids[d_index]
        if not stack and a_index < a_len and ancestor_ids[a_index] > descendant:
            d_index = bisect_left(
                descendant_ids, ancestor_ids[a_index], lo=d_index + 1
            )
            continue
        while a_index < a_len and ancestor_ids[a_index] < descendant:
            candidate = ancestor_ids[a_index]
            while stack and ends[stack[-1][0]] <= candidate:
                close_top()
            stack.append([candidate, None])
            a_index += 1
        while stack and ends[stack[-1][0]] <= descendant:
            close_top()
        if stack:
            top = stack[-1]
            value = descendant_values[descendant]
            if top[1] is None or value > top[1]:
                top[1] = value
        d_index += 1
    while stack:
        close_top()
    return best


def max_value_per_descendant(ends, parent_ids, ancestor_ids, ancestor_values,
                             descendant_ids, axis="ad"):
    """Per descendant, the max value over its joining ancestors.

    ``ancestor_values`` maps ancestor id to a float.  Returns a dict
    ``{descendant_id: max}`` containing only descendants with at least one
    match — the top-down half of the twig keyword-score pass.

    The parent-child axis reads each descendant's parent off the parent
    column.  For the ancestor-descendant axis each stack entry carries the
    running max of the values at and below it (computed when pushed —
    entries pushed later pop earlier, so the prefix max of the survivors is
    always the top entry's).
    """
    _check_axis(axis)
    if axis == "pc":
        wanted = set(ancestor_ids)
        return {
            descendant: ancestor_values[parent]
            for parent, descendant in zip(
                map(parent_ids.__getitem__, descendant_ids), descendant_ids
            )
            if parent in wanted
        }
    result = {}
    stack = []  # (ancestor_id, prefix_max including entries below)
    a_index = 0
    d_index = 0
    a_len = len(ancestor_ids)
    d_len = len(descendant_ids)

    while d_index < d_len:
        descendant = descendant_ids[d_index]
        if not stack and a_index < a_len and ancestor_ids[a_index] > descendant:
            d_index = bisect_left(
                descendant_ids, ancestor_ids[a_index], lo=d_index + 1
            )
            continue
        while a_index < a_len and ancestor_ids[a_index] < descendant:
            candidate = ancestor_ids[a_index]
            while stack and ends[stack[-1][0]] <= candidate:
                stack.pop()
            value = ancestor_values[candidate]
            if stack and stack[-1][1] > value:
                value = stack[-1][1]
            stack.append((candidate, value))
            a_index += 1
        while stack and ends[stack[-1][0]] <= descendant:
            stack.pop()
        if stack:
            result[descendant] = stack[-1][1]
        d_index += 1
    return result
