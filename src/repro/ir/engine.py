"""The IR engine: evaluate ``contains`` predicates against a document.

Mirrors the contract the FleXPath architecture (Fig. 7) assumes of its IR
component: given a full-text expression, return a ranked list of
``(node, score)`` pairs for the *most specific* elements satisfying the
expression (the semantics of [20, 29] cited in §5.1), plus point queries
used during join processing ("does this context node satisfy the
expression, and with what score?").

Phrases and proximity windows match within a single element's direct text;
Boolean structure and plain terms match anywhere in the subtree.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.errors import FleXPathError
from repro.ir.ftexpr import And, Not, Or, Phrase, Term, Window
from repro.ir.index import InvertedIndex
from repro.ir.matching import _phrase_matches, _window_matches, ftexpr_matches
from repro.ir.scoring import positive_terms, region_scorer
from repro.ir.tokenizer import normalize_term, tokenize_and_stem


class IRMatch:
    """One ranked answer from the IR engine."""

    __slots__ = ("node", "score")

    def __init__(self, node, score):
        self.node = node
        self.score = score

    def __repr__(self):
        return "IRMatch(node=%d, score=%.3f)" % (self.node.node_id, self.score)


class IREngine:
    """Evaluates full-text expressions over one document.

    ``virtual_root_id`` marks a synthetic collection root (a corpus'
    all-spanning node): that node trivially satisfies any expression some
    document satisfies, so it is excluded from ``count_satisfying`` — the
    ``#contains`` statistics of §4.3.1 must count real elements only, or
    every promotion penalty on a corpus is skewed toward 0.
    """

    def __init__(self, document, index=None, virtual_root_id=None):
        self._document = document
        self._index = index if index is not None else InvertedIndex(document)
        self._virtual_root_id = virtual_root_id
        self._idf_index = self._index
        self._terms_cache = {}
        self._count_cache = {}
        # Expressions resolved against the current postings: a probe
        # ``(start, end) -> bool`` per (sub-)expression, and the
        # ``(term, posting)`` pairs ``score`` weighs.  Both hold postings,
        # so ``extend`` drops them.
        self._probe_cache = {}
        self._bound_terms_cache = {}
        # Always-on lifetime counters: plain unsynchronized ints, read by
        # the top-K layer once per query (see metrics_snapshot).
        self._m_cache_hits = 0
        self._m_cache_misses = 0
        self._m_postings_scanned = 0
        self._m_satisfies_calls = 0
        self._m_score_calls = 0

    @property
    def document(self):
        return self._document

    @property
    def index(self):
        return self._index

    @property
    def virtual_root_id(self):
        """Node id excluded from count statistics, or None."""
        return self._virtual_root_id

    def set_idf_source(self, idf_index):
        """Weight keyword scores by another index's ``idf`` statistics.

        ``idf_index`` is any object exposing ``text_element_count`` and
        ``document_frequency(term)``.  A :class:`~repro.backend.sharded.
        ShardedBackend` points every shard-local engine at its corpus-wide
        aggregate so shard-local scores are byte-identical to the
        unsharded engine's; ``None`` restores local statistics.
        """
        self._idf_index = idf_index if idf_index is not None else self._index

    # -- lifetime metrics --------------------------------------------------------

    def metrics_snapshot(self):
        """Lifetime counter values, keyed like the process registry.

        The counters are plain ints bumped unconditionally on the hot
        paths (an attribute increment costs far less than the postings
        probe it annotates).  The engine holds no tracer:
        :meth:`~repro.topk.base.Strategy.top_k` folds the increments into a
        traced query's tracer and into the shared
        :class:`~repro.obs.MetricsRegistry`, which is where the locking
        lives.
        """
        return {
            "ir.cache_hits": self._m_cache_hits,
            "ir.cache_misses": self._m_cache_misses,
            "ir.postings_scanned": self._m_postings_scanned,
            "ir.satisfies_calls": self._m_satisfies_calls,
            "ir.score_calls": self._m_score_calls,
        }

    # -- incremental corpus growth ---------------------------------------------

    def extend(self, start_id, end_id=None):
        """Fold appended nodes ``[start_id, end_id)`` into the engine.

        The inverted index extends in place (appended ids keep postings
        sorted); the per-expression caches are document-dependent, so they
        are dropped — a resolved probe may hold "no posting" for a term
        that has one now, or a sealed posting a disk index has since
        swapped for a hydrated copy.  ``_terms_cache`` is a pure expression
        transform and survives.
        """
        self._index.extend(start_id, end_id)
        self._probe_cache.clear()
        self._bound_terms_cache.clear()
        self._count_cache.clear()

    # -- point queries ---------------------------------------------------------

    def contains_scores(self, expression, node_ids):
        """``{id: score or None}``: each node's keyword score for the
        expression, ``None`` where its subtree does not satisfy it.

        The engine's one door for the question joins ask (§5.1): the probe
        and the bound terms are resolved once per call, the ``idf``
        weights read once per call (safe: a call runs under the read lock
        its query holds), each id is probed on its region ``(id,
        ends[id])`` and only the satisfiers are scored.  The counters stay
        per node: ``ir.satisfies_calls`` counts the ids probed,
        ``ir.score_calls`` the satisfiers scored.
        """
        probe = self._resolve(expression)
        ends = self._document.store.ends
        scores = dict.fromkeys(node_ids)
        satisfied = [
            node_id for node_id in scores if probe(node_id, ends[node_id])
        ]
        if satisfied:
            score = region_scorer(self._idf_index, self._bound_terms(expression))
            for node_id in satisfied:
                scores[node_id] = score(node_id, ends[node_id])
        self._m_satisfies_calls += len(scores)
        self._m_score_calls += len(satisfied)
        return scores

    def satisfies(self, node, expression):
        """True if the subtree of ``node`` satisfies the expression."""
        return self.contains_scores(expression, (node.start,))[node.start] is not None

    def score(self, node, expression):
        """Keyword score of ``node`` for the expression, in [0, 1].

        Defined whether or not the node satisfies the expression (a
        negated or unmatched branch scores its positive terms all the
        same); :meth:`contains_scores` scores satisfiers only, with the
        same scorer.
        """
        self._m_score_calls += 1
        scorer = region_scorer(self._idf_index, self._bound_terms(expression))
        return scorer(node.start, node.end)

    # -- ranked retrieval --------------------------------------------------------

    def most_specific_matches(self, expression):
        """Ranked ``IRMatch`` list of minimal elements satisfying the expression.

        An element qualifies when its subtree satisfies the expression and
        no proper descendant's does; results are sorted by descending score,
        ties broken by document order.  Computed on every call: keyword
        search is not on the query path, and the scores carry ``idf``
        weights that a sharded corpus reads from an aggregate another
        shard's ingest moves.
        """
        probe = self._resolve(expression)
        ends = self._document.store.ends
        satisfying = sorted(
            node_id
            for node_id in self._candidate_ids(expression)
            if probe(node_id, ends[node_id])
        )
        minimal = [
            node_id
            for node_id, following in zip(satisfying, satisfying[1:] + [None])
            # a following satisfier inside the region is a descendant
            if following is None or following >= ends[node_id]
        ]
        node_of = self._document.node
        matches = [
            IRMatch(node_of(node_id), score)
            for node_id, score in self.contains_scores(expression, minimal).items()
        ]
        matches.sort(key=lambda m: (-m.score, m.node.node_id))
        return matches

    def count_satisfying(self, expression, tag=None):
        """Number of elements satisfying the expression.

        With ``tag`` given, counts only elements with that tag — this is the
        ``#contains($i, FTExp)`` statistic of §4.3.1 (``$i`` constrained to
        a tag). Without it, counts all satisfying elements.  A corpus'
        virtual collection root is never counted (see class docstring).
        """
        key = (expression, tag)
        if key in self._count_cache:
            self._m_cache_hits += 1
            return self._count_cache[key]
        self._m_cache_misses += 1
        probe = self._resolve(expression)
        store = self._document.store
        if tag is None:
            pool = range(len(store))
        else:
            pool = store.node_ids_with_tag(tag)
        ends = store.ends
        skip = self._virtual_root_id
        count = 0
        for node_id in pool:
            if node_id != skip and probe(node_id, ends[node_id]):
                count += 1
        self._count_cache[key] = count
        return count

    # -- internals ------------------------------------------------------------

    def _positive_terms(self, expression):
        """Positive terms of the expression, normalized like indexed text."""
        if expression not in self._terms_cache:
            normalized = []
            for term in positive_terms(expression):
                stemmed = normalize_term(term)
                if stemmed is not None and stemmed not in normalized:
                    normalized.append(stemmed)
            self._terms_cache[expression] = normalized
        return self._terms_cache[expression]

    def _bound_terms(self, expression):
        """``(term, posting-or-None)`` per positive term of the expression."""
        bound = self._bound_terms_cache.get(expression)
        if bound is None:
            posting = self._index.posting
            bound = [
                (term, posting(term)) for term in self._positive_terms(expression)
            ]
            self._bound_terms_cache[expression] = bound
        return bound

    def _resolve(self, expression):
        """The expression's probe: ``probe(start, end)`` is True when the
        region ``[start, end)`` satisfies it.

        All linguistic work and type dispatch happens here, once per
        (sub-)expression and ``extend`` generation: terms are normalized
        and bound to their postings, Boolean structure is composed from
        the children's probes, phrases and windows bind to their
        local-match id list the first time they are reached.  What is left
        per probe is a bisect per term evaluated — and the
        ``ir.postings_scanned`` count of exactly those.
        """
        probe = self._probe_cache.get(expression)
        if probe is not None:
            return probe
        if isinstance(expression, Term):
            normalized = normalize_term(expression.word)
            if normalized is None:
                probe = _never  # a stop word is in no posting and costs no scan
            else:
                posting = self._index.posting(normalized)
                ids = posting.node_ids if posting is not None else ()

                def probe(start, end):
                    self._m_postings_scanned += 1
                    # Posting.subtree_has, minus the call.
                    lo = bisect_left(ids, start)
                    return lo < len(ids) and ids[lo] < end

        elif isinstance(expression, And):
            children = [self._resolve(child) for child in expression.children]

            def probe(start, end):
                for child in children:
                    if not child(start, end):
                        return False
                return True

        elif isinstance(expression, Or):
            children = [self._resolve(child) for child in expression.children]

            def probe(start, end):
                for child in children:
                    if child(start, end):
                        return True
                return False

        elif isinstance(expression, Not):
            child = self._resolve(expression.child)

            def probe(start, end):
                return not child(start, end)

        elif isinstance(expression, (Phrase, Window)):
            ids = None

            def probe(start, end):
                nonlocal ids
                if ids is None:
                    ids = self._local_match_ids(expression)
                else:
                    self._m_cache_hits += 1
                # Binary-search for a locally matching element in the region.
                lo = bisect_left(ids, start)
                return lo < len(ids) and ids[lo] < end

        else:
            raise TypeError("unknown full-text expression %r" % (expression,))
        self._probe_cache[expression] = probe
        return probe

    def _local_match_ids(self, expression):
        """Sorted ids of elements whose *direct* text satisfies the
        phrase/window expression.

        Raises :class:`FleXPathError` when every term of the phrase/window
        normalizes to a stop word: such an expression has no indexable
        content to match, and silently returning no matches hid the
        mistake from the user (single stop-word *terms* stay a documented
        no-match — there the term is the whole expression, here the
        positional constraint is unsatisfiable by construction).
        """
        words = [normalize_term(word) for word in expression.terms()]
        words = [word for word in words if word is not None]
        if not words:
            kind = "phrase" if isinstance(expression, Phrase) else "window"
            raise FleXPathError(
                "%s %s consists entirely of stop words and can never match"
                % (kind, expression)
            )
        self._m_cache_misses += 1
        postings = {}
        candidate_ids = None
        for word in words:
            self._m_postings_scanned += 1
            posting = postings[word] = self._index.posting(word)
            ids = set(posting.node_ids) if posting else set()
            candidate_ids = ids if candidate_ids is None else candidate_ids & ids
        result = []
        for node_id in sorted(candidate_ids):
            positions = {
                word: posting.positions_of(node_id)
                for word, posting in postings.items()
            }
            if self._local_expression_holds(expression, positions):
                result.append(node_id)
        return result

    @staticmethod
    def _local_expression_holds(expression, positions):
        # Reuse the reference matcher on the element's own positions.
        if isinstance(expression, Phrase):
            return _phrase_matches(expression.words, positions)
        return _window_matches(expression, positions)

    def _candidate_ids(self, expression):
        """Ids that could possibly be minimal satisfiers: every
        ancestor-or-self of a direct occurrence of a positive term."""
        parent_ids = self._document.store.parent_ids
        seen = set()
        for _term, posting in self._bound_terms(expression):
            if posting is None:
                continue
            for node_id in posting.node_ids:
                while node_id >= 0 and node_id not in seen:
                    seen.add(node_id)
                    node_id = parent_ids[node_id]
        return seen

    # -- convenience -------------------------------------------------------------

    def matches_text(self, expression, text):
        """Check an expression against free-standing text (testing helper)."""
        return ftexpr_matches(expression, tokenize_and_stem(text))


def _never(start, end):
    return False
