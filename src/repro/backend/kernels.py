"""Columnar structural-join kernels (Al-Khalifa et al., ICDE 2002).

The physical-layer primitive every join plan is built from (§5.2.1): given
two id-sorted id sequences, produce all (ancestor, descendant) or
(parent, child) matches in a single merge pass using a stack of open
ancestors.  The kernels merge directly over the node table's
``ends``/``levels`` int columns — in the region encoding a node's id
equals its region start, so the id sequences double as the start-sorted
inputs and no node views are touched at all.  When one side runs dry
between matches the merge skips ahead with :func:`bisect.bisect_left`
instead of stepping descendant by descendant.

The parent-child axis exploits the stack invariant: open ancestors form a
nested chain, so the *top* of the stack is the deepest open ancestor and is
the only possible parent (``level == descendant.level - 1``) — no per-pair
stack scan is needed.

One kernel is not a merge: :func:`semi_join_ancestor_ids` asks only *whether*
each ancestor has a match, which the region encoding answers with a binary
search per ancestor — it beats a merge whenever the descendant pool is not
much smaller than the ancestor list, because the merge steps through the
pool in Python and the probe searches it in C.

These functions are part of the :class:`~repro.backend.base.StorageBackend`
seam: backends may override the protocol's join methods with storage-native
implementations, and these pure-Python merges are both the reference
semantics and the default implementation.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right


def _check_axis(axis):
    if axis not in ("ad", "pc"):
        raise ValueError("axis must be 'ad' or 'pc'")


def structural_join_ids(ends, levels, ancestor_ids, descendant_ids, axis="ad"):
    """Columnar join: id-sorted id sequences in, ``(aid, did)`` pairs out.

    ``ends`` and ``levels`` are the node table's columns (indexable by node
    id); node ids equal region starts, so the sorted id sequences are the
    start-sorted join inputs.  Pairs come out sorted by descendant id.
    """
    _check_axis(axis)
    results = []
    stack = []
    a_index = 0
    d_index = 0
    a_len = len(ancestor_ids)
    d_len = len(descendant_ids)
    parent_only = axis == "pc"

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
            if stack:
                top = stack[-1]
                if levels[top] + 1 == levels[descendant]:
                    results.append((top, descendant))
        else:
            for ancestor in stack:
                results.append((ancestor, descendant))
        d_index += 1
    return results


def semi_join_descendant_ids(ends, levels, ancestor_ids, descendant_ids,
                             axis="ad"):
    """Ids from ``descendant_ids`` with at least one joining ancestor.

    Deduplicates during the merge (a descendant matches at most once per
    pass) and never materializes the pair list; output stays id-sorted by
    construction.
    """
    _check_axis(axis)
    kept = []
    stack = []
    a_index = 0
    d_index = 0
    a_len = len(ancestor_ids)
    d_len = len(descendant_ids)
    parent_only = axis == "pc"

    while d_index < d_len:
        descendant = descendant_ids[d_index]
        if not stack:
            if a_index == a_len:
                break  # nothing open, nothing left to open
            if ancestor_ids[a_index] > descendant:
                d_index = bisect_left(
                    descendant_ids, ancestor_ids[a_index], lo=d_index + 1
                )
                continue
        while a_index < a_len and ancestor_ids[a_index] < descendant:
            candidate = ancestor_ids[a_index]
            while stack and ends[stack[-1]] <= candidate:
                stack.pop()
            stack.append(candidate)
            a_index += 1
        while stack and ends[stack[-1]] <= descendant:
            stack.pop()
        if stack and (
            not parent_only or levels[stack[-1]] + 1 == levels[descendant]
        ):
            kept.append(descendant)
        d_index += 1
    return kept


def semi_join_ancestor_ids(ends, levels, ancestor_ids, descendant_ids,
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
    ``descendant_ids``; ``ancestor_ids`` may come in any order and the
    output keeps it.
    """
    _check_axis(axis)
    kept = []
    d_len = len(descendant_ids)
    if not d_len:
        return kept
    last = descendant_ids[d_len - 1]
    parent_only = axis == "pc"
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
        child_level = levels[ancestor] + 1
        probe = index
        while descendant < end:
            if levels[descendant] == child_level:
                kept.append(ancestor)
                break
            probe = bisect_left(descendant_ids, ends[descendant], probe + 1)
            if probe == d_len:
                break
            descendant = descendant_ids[probe]
    return kept


def max_value_per_ancestor(ends, levels, ancestor_ids, descendant_ids,
                           descendant_values, axis="ad"):
    """Per ancestor, the max value over its joining descendants.

    ``descendant_values`` maps descendant id to a float.  Returns a dict
    ``{ancestor_id: max}`` containing only ancestors with at least one
    match — the max-aggregation half of the twig keyword-score pass.

    The ancestor-descendant axis exploits nesting instead of scanning the
    stack per match: a descendant's value lands on the *top* open ancestor
    only, and a popped ancestor folds its accumulated max into the new top
    (every descendant inside the popped region is inside the region below
    it too).  The parent-child axis needs no folding — only the top of the
    stack can be the parent.
    """
    _check_axis(axis)
    best = {}
    stack = []  # [ancestor_id, accumulated_max or None]
    a_index = 0
    d_index = 0
    a_len = len(ancestor_ids)
    d_len = len(descendant_ids)
    parent_only = axis == "pc"

    def close_top():
        ancestor, accumulated = stack.pop()
        if accumulated is None:
            return
        current = best.get(ancestor)
        if current is None or accumulated > current:
            best[ancestor] = accumulated
        if not parent_only and stack:
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
            if not parent_only:
                value = descendant_values[descendant]
                if top[1] is None or value > top[1]:
                    top[1] = value
            elif levels[top[0]] + 1 == levels[descendant]:
                value = descendant_values[descendant]
                current = best.get(top[0])
                if current is None or value > current:
                    best[top[0]] = value
        d_index += 1
    while stack:
        close_top()
    return best


def max_value_per_descendant(ends, levels, ancestor_ids, ancestor_values,
                             descendant_ids, axis="ad"):
    """Per descendant, the max value over its joining ancestors.

    ``ancestor_values`` maps ancestor id to a float.  Returns a dict
    ``{descendant_id: max}`` containing only descendants with at least one
    match — the top-down half of the twig keyword-score pass.

    Each stack entry carries the running max of the values at and below it
    (computed when pushed — entries pushed later pop earlier, so the
    prefix max of the survivors is always the top entry's).
    """
    _check_axis(axis)
    result = {}
    stack = []  # (ancestor_id, prefix_max including entries below)
    a_index = 0
    d_index = 0
    a_len = len(ancestor_ids)
    d_len = len(descendant_ids)
    parent_only = axis == "pc"

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
            top = stack[-1]
            if not parent_only:
                result[descendant] = top[1]
            elif levels[top[0]] + 1 == levels[descendant]:
                result[descendant] = ancestor_values[top[0]]
        d_index += 1
    return result


def twig_filter_ids(ends, levels, pools, parents, axes, order):
    """Holistic twig filter: per-variable ids that join in a full match.

    The TwigStack-style core of the holistic twig operator: instead of a
    pipeline of binary joins materializing intermediate tuple lists, two
    passes of semi-joins over the id-sorted candidate pools
    compute, for every twig variable, exactly the nodes participating in
    at least one complete embedding — no pair list is ever built.  (The
    bottom-up pass asks an existence question per candidate, so it runs on
    the probe kernel; the top-down pass is a stack merge.)

    ``pools`` maps variable name to an id-sorted id list; ``parents`` maps
    each variable to its twig parent (None at the root); ``axes`` maps each
    non-root variable to its edge axis ("pc"/"ad"); ``order`` lists the
    variables parent-before-child (any topological order of the twig).

    Returns ``{var: id list}`` with every list id-sorted.  Cost is one
    probe pass and one linear merge per twig edge — O(Σ pool sizes) per
    edge — independent of how many embeddings exist.

    No longer called by the executor; it stays in the backend seam because
    ``benchmarks/e2e/spans.py`` patches it by name, and goes with that table.
    """
    children = {var: [] for var in order}
    for var in order:
        parent = parents[var]
        if parent is not None:
            children[parent].append(var)

    # Bottom-up: keep a node when every child edge has a supporting match.
    supported = {}
    for var in reversed(order):
        candidates = pools[var]
        for child in children[var]:
            candidates = semi_join_ancestor_ids(
                ends, levels, candidates, supported[child], axis=axes[child]
            )
            if not candidates:
                break
        supported[var] = candidates

    # Top-down: additionally require the ancestor chain up to the root.
    final = {}
    for var in order:
        parent = parents[var]
        if parent is None:
            final[var] = supported[var]
        else:
            final[var] = semi_join_descendant_ids(
                ends, levels, final[parent], supported[var], axis=axes[var]
            )
    return final
