"""Read/write locking for the concurrent query engine.

FleXPath's mutable state has one writer seam — :meth:`Corpus.add_document`
splices new columns into the shared document and extends the backend's
inverted index and statistics, then bumps the version every cache above
the backend fences on — and many reader seams (queries walking the node
table, the inverted index, the statistics).  A single mutex would serialize
queries that never conflict; :class:`RWLock` lets any number of queries
proceed in parallel while an ingest drains them, mutates exclusively, and
hands the engine back.

The lock is **writer-preferring**: once a writer is waiting, new readers
block until it has run.  Ingest latency therefore stays bounded under a
steady query stream instead of starving behind an endless supply of
overlapping readers.

Neither side is reentrant — acquiring the read lock while holding the
write lock (or vice versa) deadlocks, exactly like ``threading.Lock``.
The engine's discipline (documented in DESIGN §10) keeps every acquisition
at the outermost facade/corpus seam, so nesting never arises.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager


class RWLock:
    """A writer-preferring readers/writer lock.

    Any number of threads may hold the read side at once; the write side is
    exclusive against both readers and other writers.  Use the context
    managers::

        with lock.read_locked():
            ...  # shared
        with lock.write_locked():
            ...  # exclusive
    """

    __slots__ = ("_cond", "_readers", "_writers_waiting", "_writing")

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writers_waiting = 0
        self._writing = False

    # -- read side -----------------------------------------------------------

    def acquire_read(self):
        with self._cond:
            while self._writing or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self):
        with self._cond:
            self._readers -= 1
            if not self._readers:
                self._cond.notify_all()

    @contextmanager
    def read_locked(self):
        """Hold the shared (read) side for the duration of the block."""
        self.acquire_read()
        try:
            yield self
        finally:
            self.release_read()

    # -- write side ----------------------------------------------------------

    def acquire_write(self):
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writing or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writing = True

    def release_write(self):
        with self._cond:
            self._writing = False
            self._cond.notify_all()

    @contextmanager
    def write_locked(self):
        """Hold the exclusive (write) side for the duration of the block."""
        self.acquire_write()
        try:
            yield self
        finally:
            self.release_write()

    # -- introspection (tests / debugging) -----------------------------------

    @property
    def readers(self):
        """Current reader count (racy snapshot; for tests and repr only)."""
        return self._readers

    @property
    def writing(self):
        """True while a writer holds the lock (racy snapshot)."""
        return self._writing

    def __repr__(self):
        return "RWLock(readers=%d, writing=%s, writers_waiting=%d)" % (
            self._readers,
            self._writing,
            self._writers_waiting,
        )
