"""Storage-plane instrumentation overhead: the zero-overhead-when-off gate.

Not a paper figure.  Counters and histograms are threaded through every
DiskBackend I/O seam — WAL append/fsync, WAL replay, segment decode/seal,
lazy hydration, compaction.  The design contract is the same as the
query-path instrumentation: one ``REGISTRY.enabled`` attribute check when
the registry is killed, and bounded bookkeeping (a couple of dict folds
under one lock per I/O operation) when it is on.  Disk operations are fsync- and memcpy-dominated (hundreds of µs to
ms), so instrumentation in the ns range must vanish into them:

- ``test_cold_open_instrumented`` / ``test_ingest_instrumented`` time the
  default path (registry enabled) — what production runs;
- ``test_disk_obs_on_vs_off`` interleaves enabled/disabled medians for
  both cold open and WAL-durable ingest and *asserts* the instrumented
  path stays within 5% of the kill-switch path (plus a 100 µs noise
  floor, matching ``benchmarks/regress.py``'s tolerance discipline).

The gate must not cry wolf: disk timings carry multi-percent filesystem
noise (journal flushes, dentry churn) that dwarfs the instrumentation,
so each comparison alternates which side of the on/off pair runs first
(cancelling first-in-pair bias) and the whole experiment repeats three
times — the gate fails only when *every* trial shows the instrumented
path over budget, because a real regression reproduces across trials
and noise does not.
"""

import atexit
import os
import shutil
import statistics
import tempfile
from time import perf_counter

from benchmarks.harness import document_for
from repro.backend.disk import DiskBackend
from repro.obs.metrics import REGISTRY
from repro.xmltree import parse
from repro.xmltree.serialize import to_xml

#: Overridable so CI smoke runs can use a small document.
SIZE = os.environ.get("FLEXPATH_BENCH_SIZE", "10MB")

#: Relative overhead budget for instrumented vs kill-switch medians.
OVERHEAD_BUDGET = 1.05

#: Absolute noise floor (seconds): below this, timing jitter dominates.
NOISE_FLOOR = 100e-6

_prepared = {}


def _corpus_state():
    """Build (once) a sealed on-disk corpus plus one extra document's XML."""
    if SIZE not in _prepared:
        xml_text = to_xml(document_for(SIZE, seed=42))
        extra_xml = to_xml(document_for("1MB", seed=7))
        path = tempfile.mkdtemp(prefix="flexpath-diskobs-")
        atexit.register(shutil.rmtree, path, True)
        backend = DiskBackend.create(path)
        backend.add_document(parse(xml_text))
        backend.compact()
        backend.close()
        _prepared[SIZE] = (path, parse(extra_xml))
    return _prepared[SIZE]


def _cold_open(path):
    backend = DiskBackend.open(path)
    count = len(backend)
    backend.close()
    return count


def _ingest_once(extra_document):
    """One WAL-durable ingest into a scratch corpus (created per call)."""
    scratch = tempfile.mkdtemp(prefix="flexpath-diskobs-ingest-")
    try:
        backend = DiskBackend.create(scratch)
        backend.add_document(extra_document)
        backend.close()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def test_cold_open_instrumented(benchmark):
    """The production cold-start path with the registry on (the default)."""
    path, _extra = _corpus_state()
    assert REGISTRY.enabled
    count = benchmark(_cold_open, path)
    assert count > 0


def test_ingest_instrumented(benchmark):
    """WAL-durable ingest (append + fsync) with the registry on."""
    _path, extra = _corpus_state()
    assert REGISTRY.enabled
    benchmark(_ingest_once, extra)


def _timed(operation, enabled):
    """One run of ``operation`` with the registry forced on or off."""
    REGISTRY.enabled = enabled
    try:
        started = perf_counter()
        operation()
        return perf_counter() - started
    finally:
        REGISTRY.enabled = True


def _interleaved_medians(operation, rounds):
    """Median seconds for ``operation`` with the registry on vs off.

    Interleaved on/off pairs, alternating which side runs first each
    round — the first run of a pair sees different filesystem state
    (journal flushes from the previous round's cleanup), and alternating
    cancels that bias instead of charging it all to one side.
    """
    on_times, off_times = [], []
    operation()  # warm both code paths once
    for index in range(rounds):
        on_first = index % 2 == 0
        first = _timed(operation, enabled=on_first)
        second = _timed(operation, enabled=not on_first)
        on_times.append(first if on_first else second)
        off_times.append(second if on_first else first)
    return statistics.median(on_times), statistics.median(off_times)


def _within_budget(on_seconds, off_seconds):
    return on_seconds <= off_seconds * OVERHEAD_BUDGET + NOISE_FLOOR


def _best_of_trials(operation, trials, rounds):
    """(passed, best_on, best_off) over independent repeated experiments.

    A single trial's median ratio scatters several percent either side
    of 1.0 on a millisecond-scale fsync-bound operation; a genuine
    overhead regression shifts *every* trial. The gate therefore passes
    if any one trial lands within budget, and reports the trial with
    the lowest on/off ratio.
    """
    best = None
    passed = False
    for _ in range(trials):
        on_seconds, off_seconds = _interleaved_medians(operation, rounds)
        passed = passed or _within_budget(on_seconds, off_seconds)
        ratio = on_seconds / off_seconds if off_seconds > 0 else 0.0
        if best is None or ratio < best[0]:
            best = (ratio, on_seconds, off_seconds)
        if passed:
            break
    return passed, best[1], best[2]


def test_disk_obs_on_vs_off(benchmark):
    """Gate: instrumented cold open and ingest within 5% of kill-switch."""
    path, extra = _corpus_state()
    trials, rounds = 3, 10

    open_ok, open_on, open_off = _best_of_trials(
        lambda: _cold_open(path), trials, rounds
    )
    ingest_ok, ingest_on, ingest_off = _best_of_trials(
        lambda: _ingest_once(extra), trials, rounds
    )

    def both():
        _cold_open(path)
        _ingest_once(extra)

    benchmark.pedantic(both, rounds=3, iterations=1)
    benchmark.extra_info["cold_open_on_seconds"] = open_on
    benchmark.extra_info["cold_open_off_seconds"] = open_off
    benchmark.extra_info["ingest_on_seconds"] = ingest_on
    benchmark.extra_info["ingest_off_seconds"] = ingest_off
    benchmark.extra_info["cold_open_on_over_off"] = (
        open_on / open_off if open_off > 0 else 0.0
    )
    benchmark.extra_info["ingest_on_over_off"] = (
        ingest_on / ingest_off if ingest_off > 0 else 0.0
    )

    assert open_ok, (
        "instrumented cold open %.6fs exceeds %.0f%% of kill-switch %.6fs"
        " in every trial"
        % (open_on, (OVERHEAD_BUDGET - 1) * 100, open_off)
    )
    assert ingest_ok, (
        "instrumented ingest %.6fs exceeds %.0f%% of kill-switch %.6fs"
        " in every trial"
        % (ingest_on, (OVERHEAD_BUDGET - 1) * 100, ingest_off)
    )
