"""The four workloads: inputs from a seed, set-up, the measured loop, checks.

Each workload is built from ``(seed, sizes)`` — data generation, reported
as run metadata and never as ``setup_s`` — and exposes one method,
``run(log, recorder, seconds, units, setups)``: set up ``setups`` times,
then measure for ``seconds`` (or exactly ``units`` passes / ops / cycles
when the traced half of a traced run repeats its untraced half), checking
every answer outside the timed windows.  The program under test only ever
receives XML text and query strings.

Documents, op order and Zipf draws come from ``--seed``.  The query pool
does not: it is sampled once from a reference corpus with a constant seed
(README, "Why the pool is not re-sampled per seed").
"""

import gc
import os
import random
import re
import shutil
import statistics
from collections import namedtuple
from time import perf_counter, perf_counter_ns

import repro
from repro import Corpus, DiskBackend, Engine
from repro.ir import normalize_term
from repro.workload import WorkloadGenerator
from repro.xmark import PAPER_QUERIES, generate_document
from repro.xmltree import to_xml

from render import render

ALGORITHMS = ("hybrid", "sso", "dpo")
SCHEMES = ("structure-first", "keyword-first", "combined")
SHARDS = 2  # = nproc on the box the sizes were tuned on

# Sizes were tuned so that a run (generation + set-ups + --seconds of
# measurement + checks) ends in about 30 s on a 2-core box; see README.
FULL = {
    "paper_bytes": 800_000,
    "mix_docs": 12,
    "mix_doc_bytes": 60_000,
    "pool": 450,
    "zipf_pool": 240,
    "ingest_docs": 8,
    "ingest_doc_bytes": 60_000,
}
SMOKE = dict(FULL, paper_bytes=60_000, mix_docs=3, mix_doc_bytes=20_000,
             ingest_docs=3, ingest_doc_bytes=15_000)

REFERENCE_SEED = 20040613
REFERENCE_DOCS = 4
REFERENCE_DOC_BYTES = 60_000
MAX_PATTERN_NODES = 4
ZIPF_EXPONENT = 0.8
HIT_RATIO_WINDOW = (0.6, 0.85)
ORACLE_EVERY = 8
PHASES = ("seed", "extend", "twig", "checks", "prune", "sort", "bucket")
PHASE_SAMPLE = 24
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
CALIBRATE_EVERY_S = 0.1
# The speed kernel's mean on the quiet 2-core box the sizes were tuned on; it
# only fixes the scale the normalized timings are reported in.
REFERENCE_KERNEL_NS = 5_000_000
_KERNEL_TABLE = {index: (index, float(index)) for index in range(100_000)}
_KERNEL_PROBES = tuple(
    random.Random(0).randrange(len(_KERNEL_TABLE)) for _ in range(12_000))


def speed_kernel():
    """Time a fixed piece of interpreter work: half arithmetic, half memory.

    The box this runs on slows by tens of percent for a minute at a time
    (shared host); every Python loop slows with it.  Timing this kernel
    between ops says by how much, so a run's timings can be reported at
    one reference speed instead of at whatever speed the host had.  The
    first loop stays in cache, the second walks a 100 000-entry table in
    random order: a neighbour that takes cache and memory bandwidth slows
    the program more than it slows a cache-resident loop alone.
    """
    start = perf_counter_ns()
    table = {}
    total = 0
    for i in range(20_000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        total += i * i % 7
    big = _KERNEL_TABLE
    for probe in _KERNEL_PROBES:
        total += big[probe][1]
    return perf_counter_ns() - start


class RunLog:
    """What one measured segment produced: samples, failures, exact counts."""

    def __init__(self):
        self.query_ns = []
        self.ingest_ns = []
        self.setup_s = []
        self.attempted = 0
        self.failed = 0
        self.failures = []  # the first few, for the result file
        self.broken = []  # a premise of the workload did not hold
        self.window_ns = 0  # the timed windows of the measured loop, summed
        self.units = 0  # passes (paper_relax), ops (mix_*), cycles (ingest)
        self.layer = {}  # per-layer numbers the workload measures itself,
        #                  times at reference speed
        self.info = {}  # run metadata
        self.kernel_ns = []  # speed-kernel timings taken between ops
        self._kernel_due = 0.0

    def calibrate(self, samples=0):
        """Between ops, outside timed windows: time the speed kernel if due.

        ``samples`` forces that many timings now (around a set-up).
        """
        if samples or perf_counter() >= self._kernel_due:
            self.kernel_ns.extend(speed_kernel() for _ in range(samples or 1))
            self._kernel_due = perf_counter() + CALIBRATE_EVERY_S

    def speed_factor(self, since=0):
        """What to multiply this segment's timings by to get reference speed.

        Query timings use the whole run's factor; set-up and ingest samples,
        taken in one short stretch each, are stored already multiplied by
        the factor of the kernel timings ``since`` that stretch began.

        From the kernel's *mean*: the host's slow-downs come in bursts, which
        a median of 5 ms samples mostly dodges while 10-200 ms ops do not
        (measured: op latency moved as the kernel median to the power 1.5,
        and as its mean to the power 0.96-0.99).
        """
        return REFERENCE_KERNEL_NS / statistics.fmean(self.kernel_ns[since:])

    def add_setup(self, since, setup_ns, ingest_ns, builds=None):
        """Record one set-up, its ingests and its builds at reference speed."""
        self.calibrate(samples=3)
        speed = self.speed_factor(since)
        self.setup_s.append(setup_ns / 1e9 * speed)
        self.ingest_ns.extend(elapsed * speed for elapsed in ingest_ns)
        for name, seconds in (builds or {}).items():
            self.layer[name] = seconds * speed

    def fail(self, message):
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)


def score_vector(result):
    """Sorted scores to 1e-9 — ids are not comparable across a reopen."""
    return sorted(
        (round(answer.score.structural, 9), round(answer.score.keyword, 9))
        for answer in result.answers
    )


def timed_query(log, recorder, engine, text, k, algorithm, scheme, kind="query"):
    """One closed-loop query op; a raised query is a failed op, not a crash."""
    log.calibrate()
    recorder.begin(kind)
    log.attempted += 1
    start = perf_counter_ns()
    try:
        result = engine.query(text, k=k, algorithm=algorithm, scheme=scheme)
    except Exception as error:
        result = None
        log.fail("%s raised %r" % (text, error))
    elapsed = perf_counter_ns() - start
    log.query_ns.append(elapsed)
    log.window_ns += elapsed
    if result is not None:
        recorder.note(result)
    return result


def finished(log, units, deadline, least=1):
    """The measured loop's stop rule: ``units`` exactly, else the deadline."""
    if units is not None:
        return log.units >= units
    return log.units >= least and perf_counter() >= deadline


def build_engine(source):
    """An in-memory engine over ``source`` and what its lazy builds took.

    ``Engine()`` builds the IR index (its context binds ``backend.ir``);
    statistics wait for the first count.
    """
    started = perf_counter()
    engine = Engine(source)
    built = perf_counter()
    engine.backend.tag_count("item")
    return engine, {"ir.index_build_s": built - started,
                    "stats.build_s": perf_counter() - built}


def sample_phases(log, recorder, engine, ops):
    """``plans.phase.*``: the executor's own phase clock on a sample of ops.

    Traced run only.  Read from the public ``Engine.query(trace=True)``;
    mean per sampled op.  Traced queries bypass the result cache, so every
    sampled op evaluates.
    """
    if not recorder.enabled:
        return
    recorder.begin("phase-sample")
    totals = dict.fromkeys(PHASES, 0.0)
    for text, k, algorithm, scheme in ops:
        trace = engine.query(text, k=k, algorithm=algorithm, scheme=scheme,
                             trace=True)
        for phase, entry in trace.phase_aggregates().items():
            if phase in totals:
                totals[phase] += entry["seconds"]
    for phase, seconds in totals.items():
        log.layer["plans.phase.%s_ms" % phase] = (
            seconds * 1e3 / len(ops) * log.speed_factor())


TIERS = {
    "result_cache": "cache.result_hit_ratio",
    "plan_cache": "compiled.plan_cache_hit_ratio",
    "eval_cache": "plans.eval_cache_hit_ratio",
}


def cache_counts(engine, since=None):
    """``{tier: (hits, misses)}`` from the tiers' own counters, minus ``since``."""
    info = engine.cache_info()
    return {
        tier: (info[tier]["hits"] - (since[tier][0] if since else 0),
               info[tier]["misses"] - (since[tier][1] if since else 0))
        for tier in TIERS
    }


def record_hit_ratios(log, counts):
    """Hit ratios over the measured window."""
    for tier, metric in TIERS.items():
        hits, misses = counts[tier]
        log.layer[metric] = hits / (hits + misses) if hits + misses else 0.0
        log.info[tier + "_probes"] = hits + misses


# -- the query pool ------------------------------------------------------------


PoolQuery = namedtuple("PoolQuery", "text algorithm scheme")


def reference_pool(count):
    """``count`` distinct query strings with their algorithm and scheme.

    Sampled by ``WorkloadGenerator`` from a reference corpus, kept when the
    pattern has at most ``MAX_PATTERN_NODES`` nodes, is not rooted at the
    corpus' virtual root, and its keywords survive a second stemming (the
    generator hands out already-stemmed words, which the query path stems
    again), then rendered and read back.  Algorithm and scheme rotate by
    pool index; keyword-first needs a keyword, so a pattern without
    ``contains`` takes structure-first instead.
    """
    corpus = Corpus()
    for index in range(REFERENCE_DOCS):
        corpus.add_document(
            generate_document(target_bytes=REFERENCE_DOC_BYTES,
                              seed=REFERENCE_SEED + index),
            name="reference%d" % index,
        )
    root_tag = corpus.document.root.tag
    generator = WorkloadGenerator(corpus.document, seed=REFERENCE_SEED)
    pool, seen, parse_ns = [], set(), []
    generated = filtered = unreadable = 0
    while len(pool) < count and generated < count * 20:
        for tpq in generator.generate(100, contains_probability=0.5):
            generated += 1
            if tpq in seen:
                continue
            seen.add(tpq)
            words = re.findall(r'"([^"]+)"', " ".join(
                str(predicate.ftexpr) for predicate in tpq.contains))
            if (tpq.size() > MAX_PATTERN_NODES
                    or tpq.tag_of(tpq.root) == root_tag
                    or any(normalize_term(word) != word for word in words)):
                filtered += 1
                continue
            text = render(tpq)
            started = perf_counter_ns()
            try:
                readable = repro.parse_query(text) == tpq
            except repro.QueryParseError:
                readable = False
            parse_ns.append(perf_counter_ns() - started)
            if not readable:
                unreadable += 1
                continue
            index = len(pool)
            scheme = SCHEMES[(index // 3) % 3]
            if scheme == "keyword-first" and not tpq.contains:
                scheme = "structure-first"
            pool.append(PoolQuery(text, ALGORITHMS[index % 3], scheme))
    if len(pool) < count:
        raise RuntimeError(
            "query pool: only %d of %d queries survived (%d generated, %d "
            "filtered, %d did not round-trip)"
            % (len(pool), count, generated, filtered, unreadable)
        )
    info = {
        "pool_generated": generated,
        "pool_filtered": filtered,
        "pool_not_round_tripped": unreadable,
        "query.parse_us": statistics.median(parse_ns) / 1e3,
    }
    return pool[:count], info


def seeded_documents(seed, count, target_bytes):
    return [
        to_xml(generate_document(target_bytes=target_bytes,
                                 seed=seed * 1000 + index))
        for index in range(count)
    ]


# -- paper_relax -----------------------------------------------------------------


class PaperRelax:
    """Paper Q1-Q3 x {dpo, sso, hybrid} x K in {12, 200} on one document."""

    name = "paper_relax"

    def __init__(self, seed, sizes):
        started = perf_counter()
        self.xml = to_xml(
            generate_document(target_bytes=sizes["paper_bytes"], seed=seed))
        self.grid = [
            (text, algorithm, k)
            for text in PAPER_QUERIES.values()
            for algorithm in ("dpo", "sso", "hybrid")
            for k in (12, 200)
        ]
        parse_ns = []
        for text in PAPER_QUERIES.values():
            begun = perf_counter_ns()
            repro.parse_query(text)
            parse_ns.append(perf_counter_ns() - begun)
        self.parse_us = statistics.median(parse_ns) / 1e3
        self.generate_s = perf_counter() - started

    def _setup(self, log, recorder):
        since = len(log.kernel_ns)
        log.calibrate(samples=3)
        recorder.begin("setup")
        started = perf_counter_ns()
        engine, builds = build_engine(repro.parse(self.xml))
        ingested = perf_counter_ns()
        engine.query(self.grid[0][0], k=12)
        log.add_setup(since, perf_counter_ns() - started, [ingested - started],
                      builds)
        return engine

    def _pass(self, engine, log, recorder, expected, kind="query"):
        for text, algorithm, k in self.grid:
            # Every op evaluates: the result and evaluation tiers are emptied
            # outside the timed window; the plan cache stays warm.
            engine.result_cache.invalidate()
            engine.context.eval_cache.clear()
            result = timed_query(log, recorder, engine, text, k, algorithm,
                                 "structure-first", kind)
            if (result is not None
                    and score_vector(result) != expected[text, k, algorithm]):
                log.fail("%s k=%d %s: scores differ from the uncached oracle"
                         % (text, k, algorithm))

    def run(self, log, recorder, seconds, units=None, setups=1):
        for _ in range(setups):
            engine = self._setup(log, recorder)
        oracle = Engine(engine.backend, cache=False)
        expected = {
            (text, k, algorithm): score_vector(
                oracle.query(text, k=k, algorithm=algorithm))
            for text, algorithm, k in self.grid
        }
        # SSO and Hybrid must agree; DPO scores an answer by the level it
        # first appears at and is known to differ (README, first findings).
        pairs = sorted({(text, k) for text, _algorithm, k in self.grid})
        for text, k in pairs:
            if expected[text, k, "sso"] != expected[text, k, "hybrid"]:
                log.broken.append("%s k=%d: sso and hybrid disagree" % (text, k))
        log.info["dpo_vs_hybrid_differing"] = sum(
            expected[text, k, "dpo"] != expected[text, k, "hybrid"]
            for text, k in pairs)
        self._pass(engine, RunLog(), recorder, expected, kind="warmup")
        before = cache_counts(engine)
        deadline = perf_counter() + (seconds or 0)
        while not finished(log, units, deadline, least=2):
            gc.collect()
            self._pass(engine, log, recorder, expected)
            log.units += 1
        record_hit_ratios(log, cache_counts(engine, since=before))
        sample_phases(log, recorder, engine, [
            (text, k, algorithm, "structure-first")
            for text, algorithm, k in self.grid])
        log.layer["query.parse_us"] = self.parse_us * log.speed_factor()
        log.info.update(xml_bytes=len(self.xml), ops_per_pass=len(self.grid),
                        passes=log.units, generate_s=self.generate_s)


# -- mix_distinct and mix_zipf -----------------------------------------------------


class _Mix:
    """A corpus of seeded documents and the reference query pool."""

    def __init__(self, seed, sizes, pool_size):
        started = perf_counter()
        self.xmls = seeded_documents(seed, sizes["mix_docs"],
                                     sizes["mix_doc_bytes"])
        self.pool, self.pool_info = reference_pool(sizes["pool"])
        self.pool = self.pool[:pool_size]
        self.rng = random.Random(seed)
        self.generate_s = perf_counter() - started

    def _setup(self, log, recorder):
        since = len(log.kernel_ns)
        log.calibrate(samples=3)
        recorder.begin("setup")
        ingest_ns = []
        corpus = Corpus()
        for index, xml in enumerate(self.xmls):
            log.calibrate()
            recorder.begin("ingest")
            begun = perf_counter_ns()
            corpus.add_document(repro.parse(xml), name="doc%d" % index)
            ingest_ns.append(perf_counter_ns() - begun)
        recorder.begin("setup")
        begun = perf_counter_ns()
        engine, builds = build_engine(corpus)
        query = self.pool[0]
        engine.query(query.text, k=10, algorithm=query.algorithm,
                     scheme=query.scheme)
        # Summed, so that the kernel timings between documents stay out.
        log.add_setup(since, sum(ingest_ns) + perf_counter_ns() - begun,
                      ingest_ns, builds)
        return engine

    def _finish(self, log, recorder, engine, before):
        record_hit_ratios(log, cache_counts(engine, since=before))
        log.info["plan_cache"] = engine.cache_info()["plan_cache"]
        sample_phases(log, recorder, engine, [
            (query.text, 10, query.algorithm, query.scheme)
            for query in self.pool[:PHASE_SAMPLE]])
        log.layer["query.parse_us"] = (
            self.pool_info["query.parse_us"] * log.speed_factor())
        log.info.update(self.pool_info)
        log.info.update(xml_bytes=sum(map(len, self.xmls)),
                        documents=len(self.xmls), pool=len(self.pool),
                        ops=log.units, generate_s=self.generate_s)


class MixDistinct(_Mix):
    """Every query is new to every cache tier: the cold serving path."""

    name = "mix_distinct"

    def __init__(self, seed, sizes):
        super().__init__(seed, sizes, sizes["pool"])
        self.order = list(range(len(self.pool)))
        self.rng.shuffle(self.order)

    def run(self, log, recorder, seconds, units=None, setups=1):
        for _ in range(setups):
            engine = self._setup(log, recorder)
        vectors = {}
        empty = 0
        before = cache_counts(engine)
        deadline = perf_counter() + (seconds or 0)
        while not finished(log, units, deadline):
            if log.units % len(self.order) == 0:
                gc.collect()
            index = self.order[log.units % len(self.order)]
            query = self.pool[index]
            result = timed_query(log, recorder, engine, query.text, 10,
                                 query.algorithm, query.scheme)
            log.units += 1
            if result is not None:
                empty += not result.answers
                if index % ORACLE_EVERY == 0:
                    vectors.setdefault(index, score_vector(result))
        self._finish(log, recorder, engine, before)
        log.info["empty_answers"] = empty
        # After the window, so the shared IR engine's memo tables are not
        # pre-warmed for the measured ops.
        oracle = Engine(engine.backend, cache=False)
        for index, vector in vectors.items():
            query = self.pool[index]
            expected = score_vector(oracle.query(
                query.text, k=10, algorithm=query.algorithm, scheme=query.scheme))
            if vector != expected:
                log.fail("%s: scores differ from the uncached oracle" % query.text)
        log.info["oracle_checked"] = len(vectors)


class MixZipf(_Mix):
    """A pool the plan cache holds and the result cache does not, Zipf-drawn."""

    name = "mix_zipf"

    def __init__(self, seed, sizes):
        super().__init__(seed, sizes, sizes["zipf_pool"])
        ranks = range(1, len(self.pool) + 1)
        self.draws = self.rng.choices(
            range(len(self.pool)),
            weights=[rank ** -ZIPF_EXPONENT for rank in ranks],
            k=50_000,
        )

    def run(self, log, recorder, seconds, units=None, setups=1):
        for _ in range(setups):
            engine = self._setup(log, recorder)
        first = {}
        warmup = RunLog()
        for index, query in enumerate(self.pool):
            result = timed_query(warmup, recorder, engine, query.text, 10,
                                 query.algorithm, query.scheme, kind="warmup")
            if result is not None:
                first[index] = score_vector(result)
        log.info["warmup_s"] = sum(warmup.query_ns) / 1e9
        gc.collect()
        before = cache_counts(engine)
        deadline = perf_counter() + (seconds or 0)
        while not finished(log, units, deadline):
            index = self.draws[log.units % len(self.draws)]
            query = self.pool[index]
            result = timed_query(log, recorder, engine, query.text, 10,
                                 query.algorithm, query.scheme)
            log.units += 1
            if result is not None and score_vector(result) != first.get(index):
                log.fail("%s: answer differs from its first evaluation"
                         % query.text)
        self._finish(log, recorder, engine, before)
        ratio = log.layer["cache.result_hit_ratio"]
        low, high = HIT_RATIO_WINDOW
        if not low <= ratio <= high:
            log.broken.append(
                "result-cache hit ratio %.3f outside %.2f-%.2f: p50 is no "
                "longer a hit and p90 a miss" % (ratio, low, high))


# -- ingest_shard_disk --------------------------------------------------------------


class IngestShardDisk:
    """Ingest beside reads on a 2-shard disk corpus, then close and reopen.

    One cycle = a fresh directory, ``ingest_docs`` documents streamed in
    (each followed by a probe and the twelve fixed queries), then close,
    reopen and first answer.  Cycles repeat until the time is up; a
    reopen-to-first-answer is this workload's set-up.
    """

    name = "ingest_shard_disk"

    def __init__(self, seed, sizes):
        started = perf_counter()
        self.markers = ["zqdoc%dx%d" % (seed, index)
                        for index in range(sizes["ingest_docs"])]
        self.xmls = [
            xml.replace("<site>", "<site><docid>%s</docid>" % marker, 1)
            for xml, marker in zip(
                seeded_documents(seed, sizes["ingest_docs"],
                                 sizes["ingest_doc_bytes"]),
                self.markers)
        ]
        pool, self.pool_info = reference_pool(sizes["pool"])
        self.queries = [query.text for query in pool[:12]]
        self.scratch = os.path.join(OUT_DIR, "tmp-%d" % os.getpid())
        self.generate_s = perf_counter() - started

    @staticmethod
    def _close(engine):
        engine.backend.close()
        engine.context.close()  # the scatter thread pool

    def _fixed_queries(self, log, recorder, engine, kind="query"):
        vectors = []
        for text in self.queries:
            result = timed_query(log, recorder, engine, text, 10, "hybrid",
                                 "structure-first", kind)
            vectors.append(None if result is None else score_vector(result))
        return vectors

    def _cycle(self, log, recorder, path, tally):
        since = len(log.kernel_ns)  # this cycle's ingests and reopen share it
        ingest_ns = []
        engine = Engine.sharded(SHARDS, path=path)
        try:
            vectors = None
            for index, (xml, marker) in enumerate(zip(self.xmls, self.markers)):
                name = "doc%d" % index
                log.calibrate()
                recorder.begin("ingest")
                log.attempted += 1
                started = perf_counter_ns()
                try:
                    engine.backend.add_document(repro.parse(xml), name=name)
                except Exception as error:
                    log.fail("ingest of %s raised %r" % (name, error))
                    continue
                finally:
                    ingest_ns.append(perf_counter_ns() - started)
                    log.window_ns += ingest_ns[-1]
                # The version moved, so every cache tier is stale: the probe
                # and the fixed queries below all recompile.
                recorder.begin("probe")
                probe = engine.query(
                    '//site[./docid[.contains("%s")]]' % marker, k=3)
                if not any(engine.backend.source_of(answer.node) == name
                           for answer in probe.answers):
                    log.fail("%s acknowledged, but no probe answer lies in it"
                             % name)
                vectors = self._fixed_queries(log, recorder, engine)
            documents = engine.backend.describe()["documents"]
            sample_phases(log, recorder, engine, [
                (text, 10, "hybrid", "structure-first")
                for text in self.queries])
            for tier, (hits, misses) in cache_counts(engine).items():
                tally[tier][0] += hits
                tally[tier][1] += misses
            for folder, _dirs, files in os.walk(path):
                for file in files:
                    size = os.path.getsize(os.path.join(folder, file))
                    tally["disk_bytes"] += size
                    if file == "wal.log":
                        tally["wal_bytes"] += size
        finally:
            self._close(engine)

        recorder.begin("reopen")
        log.attempted += 1
        started = perf_counter_ns()
        engine = Engine.sharded(SHARDS, path=path)
        try:
            engine.query(self.queries[0], k=10, algorithm="hybrid",
                         scheme="structure-first")
            log.add_setup(since, perf_counter_ns() - started, ingest_ns)
            reopened = self._fixed_queries(RunLog(), recorder, engine,
                                           kind="reopen-check")
            if (engine.backend.describe()["documents"] != documents
                    or reopened != vectors):
                log.fail("reopen: document count or score vectors differ "
                         "from before the close")
        finally:
            self._close(engine)

    def _compact(self, log, recorder):
        """Seal the same documents in one standalone DiskBackend (traced run)."""
        recorder.begin("compact")
        backend = DiskBackend.create(os.path.join(self.scratch, "standalone"))
        try:
            for index, xml in enumerate(self.xmls):
                backend.add_document(repro.parse(xml), name="doc%d" % index)
            started = perf_counter()
            backend.compact()
            log.layer["backend.disk.compact_s"] = (
                (perf_counter() - started) * log.speed_factor())
        finally:
            backend.close()

    def run(self, log, recorder, seconds, units=None, setups=1):
        tally = {"disk_bytes": 0, "wal_bytes": 0}
        tally.update((tier, [0, 0]) for tier in TIERS)
        deadline = perf_counter() + (seconds or 0)
        os.makedirs(self.scratch)
        try:
            while not finished(log, units, deadline, least=3):
                gc.collect()
                path = os.path.join(self.scratch, "cycle-%d" % log.units)
                self._cycle(log, recorder, path, tally)
                shutil.rmtree(path)
                log.units += 1
            if recorder.enabled:
                self._compact(log, recorder)
        finally:
            shutil.rmtree(self.scratch, ignore_errors=True)
        record_hit_ratios(log, tally)
        xml_bytes = sum(map(len, self.xmls)) * log.units
        log.layer.update({
            "query.parse_us": self.pool_info["query.parse_us"] * log.speed_factor(),
            "backend.disk.bytes_per_xml_byte": tally["disk_bytes"] / xml_bytes,
            "backend.disk.wal_bytes_per_xml_byte": tally["wal_bytes"] / xml_bytes,
            "backend.disk.reopen_ms": statistics.median(log.setup_s) * 1e3,
        })
        log.info.update(xml_bytes_per_cycle=xml_bytes // log.units,
                        documents_per_cycle=len(self.xmls), cycles=log.units,
                        shards=SHARDS, generate_s=self.generate_s)


WORKLOADS = {
    workload.name: workload
    for workload in (PaperRelax, MixDistinct, MixZipf, IngestShardDisk)
}
