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
from repro.ir.scoring import positive_terms, score_region
from repro.ir.tokenizer import normalize_term, tokenize_and_stem
from repro.obs.events import HUB
from repro.obs.tracer import NULL_TRACER


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
        self._tracer = NULL_TRACER
        self._most_specific_cache = {}
        self._terms_cache = {}
        self._count_cache = {}
        # Expressions resolved against the current postings: a probe
        # ``(start, end) -> bool`` per (sub-)expression, and the
        # ``(term, posting)`` pairs ``score`` weighs.  Both hold postings,
        # so ``extend`` drops them.
        self._probe_cache = {}
        self._bound_terms_cache = {}
        # Always-on lifetime counters: plain unsynchronized ints, folded
        # into the process MetricsRegistry per query (see metrics_snapshot).
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

    def set_tracer(self, tracer):
        """Attach a :class:`~repro.obs.Tracer` (pass ``None`` to detach).

        With a tracer attached the engine reports cache hits/misses and
        postings scanned; detached (the default) those code paths reduce to
        one attribute check.
        """
        self._tracer = tracer if tracer is not None else NULL_TRACER

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
        probe it annotates); callers fold *deltas* between two snapshots
        into the shared :class:`~repro.obs.MetricsRegistry`, which is
        where the locking lives.
        """
        return {
            "ir.cache_hits": self._m_cache_hits,
            "ir.cache_misses": self._m_cache_misses,
            "ir.postings_scanned": self._m_postings_scanned,
            "ir.satisfies_calls": self._m_satisfies_calls,
            "ir.score_calls": self._m_score_calls,
        }

    def _cache_hit(self, cache):
        self._m_cache_hits += 1
        if self._tracer.enabled:
            self._tracer.count("ir.cache_hits")
        if HUB.active:
            HUB.emit("cache_hit", {"engine": "ir", "cache": cache})

    def _cache_miss(self, cache):
        self._m_cache_misses += 1
        if self._tracer.enabled:
            self._tracer.count("ir.cache_misses")
        if HUB.active:
            HUB.emit("cache_miss", {"engine": "ir", "cache": cache})

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
        self._most_specific_cache.clear()
        self._count_cache.clear()

    # -- point queries ---------------------------------------------------------

    def satisfies(self, node, expression):
        """True if the subtree of ``node`` satisfies the expression."""
        self._m_satisfies_calls += 1
        if self._tracer.enabled:
            self._tracer.count("ir.satisfies_calls")
        return self._resolve(expression)(node.start, node.end)

    def score(self, node, expression):
        """Keyword score of ``node`` for the expression, in [0, 1]."""
        self._m_score_calls += 1
        if self._tracer.enabled:
            self._tracer.count("ir.score_calls")
        return score_region(
            self._idf_index, self._bound_terms(expression), node.start, node.end
        )

    # -- ranked retrieval --------------------------------------------------------

    def most_specific_matches(self, expression):
        """Ranked ``IRMatch`` list of minimal elements satisfying the expression.

        An element qualifies when its subtree satisfies the expression and
        no proper descendant's does; results are sorted by descending score,
        ties broken by document order.

        The cached list carries scores, and scores carry ``idf`` weights a
        sharded corpus reads from an aggregate that moves when *another*
        shard ingests (this engine's ``extend`` never runs).  ``idf`` only
        changes when a text element is indexed, so the source's
        ``text_element_count`` at scoring time fences each entry.
        """
        fence = self._idf_index.text_element_count
        cached = self._most_specific_cache.get(expression)
        if cached is not None and cached[0] == fence:
            self._cache_hit("most_specific")
            return cached[1]
        self._cache_miss("most_specific")
        probe = self._resolve(expression)
        ends = self._document.store.ends
        satisfying = sorted(
            node_id
            for node_id in self._candidate_ids(expression)
            if probe(node_id, ends[node_id])
        )
        matches = []
        for index, node_id in enumerate(satisfying):
            next_index = index + 1
            if (
                next_index < len(satisfying)
                and satisfying[next_index] < ends[node_id]
            ):
                continue  # the next satisfying node is a descendant
            node = self._document.node(node_id)
            matches.append(IRMatch(node, self.score(node, expression)))
        matches.sort(key=lambda m: (-m.score, m.node.node_id))
        self._most_specific_cache[expression] = (fence, matches)
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
            self._cache_hit("count")
            return self._count_cache[key]
        self._cache_miss("count")
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
                    if self._tracer.enabled:
                        self._tracer.count("ir.postings_scanned")
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
                    self._cache_hit("local_match")
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
        self._cache_miss("local_match")
        postings = {}
        candidate_ids = None
        for word in words:
            self._m_postings_scanned += 1
            if self._tracer.enabled:
                self._tracer.count("ir.postings_scanned")
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
