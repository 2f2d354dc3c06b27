"""Property: the column statistics equal the reference counts.

Every count of every ``(tag | None)²`` pair, plus ``#(t)``, on a random
document, on a corpus grown one document at a time (checked after each
append), and on a disk corpus across ``compact()``, a reopen and a WAL tail.
"""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.disk import DiskBackend
from repro.backend.memory import InMemoryBackend
from repro.backend.stats import DocumentStatistics
from repro.collection import Corpus
from repro.xmltree import parse

from tests.properties.strategies import documents
from tests.spec.statistics import ReferenceStatistics, all_counts

#: A corpus element sharing the virtual root's tag, at two depths.
COLLECTION_XML = "<collection><a><collection><b/></collection></a></collection>"


@st.composite
def document_lists(draw):
    """One to four random documents, sometimes with :data:`COLLECTION_XML`."""
    docs = draw(st.lists(documents(), min_size=1, max_size=4))
    if draw(st.booleans()):
        docs.insert(draw(st.integers(0, len(docs))), parse(COLLECTION_XML))
    return docs


def _assert_matches_reference(source, document, virtual_root_id):
    tags = document.tags | {"missing"}
    expected = all_counts(ReferenceStatistics(document, virtual_root_id), tags)
    assert all_counts(source, tags) == expected


def _check_documents(docs):
    for doc in docs:
        _assert_matches_reference(DocumentStatistics(doc), doc, None)


def _check_corpus(docs):
    corpus = Corpus()
    backend = InMemoryBackend(corpus)
    backend.statistics  # materialize: every append now extends it
    for doc in docs:
        corpus.add_document(doc)
        _assert_matches_reference(backend.statistics, corpus.document, 0)
        _assert_matches_reference(backend, corpus.document, 0)


def _check_disk(docs):
    sealed, tail = docs[: len(docs) // 2 + 1], docs[len(docs) // 2 + 1 :]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "corpus")
        backend = DiskBackend.create(path)
        for doc in sealed:
            backend.add_document(doc)
        backend.compact()
        for doc in tail:
            backend.add_document(doc)
        backend.close()
        backend = DiskBackend.open(path)  # hydrates, then extends the tail
        try:
            _assert_matches_reference(backend, backend.document, 0)
            backend.add_document(docs[0])  # extends the hydrated counts
            _assert_matches_reference(backend.statistics, backend.document, 0)
        finally:
            backend.close()


@pytest.mark.parametrize(
    "check", [_check_documents, _check_corpus, _check_disk], ids=lambda c: c.__name__
)
@given(docs=document_lists())
@settings(max_examples=30, deadline=None)
def test_statistics_equal_the_reference(check, docs):
    check(docs)
