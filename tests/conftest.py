"""Shared fixtures for the FleXPath test suite."""

from __future__ import annotations

import pytest

from repro import FleXPath
from repro.obs.events import LISTENERS
from repro.obs.metrics import REGISTRY
from repro.xmark import generate_document
from repro.xmltree import parse
from tests.spec.datasets import article_corpus

LIBRARY_XML = """
<library>
 <article><title>Streaming XML</title>
  <section><title>Intro</title>
   <algorithm>procedure one</algorithm>
   <paragraph>Algorithms for streaming XML data processing.</paragraph>
  </section>
  <section><paragraph>Unrelated text about databases.</paragraph></section>
 </article>
 <article>
  <section><title>XML streaming survey</title>
   <paragraph>General overview of engines.</paragraph>
   <subsection><algorithm>procedure two</algorithm></subsection>
  </section>
 </article>
 <article>
  <abstract>We study streaming XML algorithms.</abstract>
  <section><paragraph>Nothing relevant here.</paragraph></section>
 </article>
</library>
"""


@pytest.fixture()
def clean_observability():
    """A zeroed metrics registry and no ``query_end`` listener, before and
    after the test.  Modules that count or listen opt in with
    ``pytestmark = pytest.mark.usefixtures("clean_observability")``."""
    REGISTRY.reset()
    LISTENERS.clear()
    yield
    REGISTRY.reset()
    LISTENERS.clear()


@pytest.fixture(scope="session")
def library_doc():
    """Three articles exercising exact, promoted, and abstract-only matches."""
    return parse(LIBRARY_XML)


@pytest.fixture(scope="session")
def library_engine(library_doc):
    return FleXPath(library_doc)


@pytest.fixture(scope="session")
def article_doc():
    """The archetype article corpus of tests.spec.datasets (25 articles)."""
    return article_corpus(articles=25, seed=11)


@pytest.fixture(scope="session")
def article_engine(article_doc):
    return FleXPath(article_doc)


@pytest.fixture(scope="session")
def xmark_doc():
    """A small (~120 KB) XMark-like document."""
    return generate_document(target_bytes=120_000, seed=3)


@pytest.fixture(scope="session")
def xmark_engine(xmark_doc):
    return FleXPath(xmark_doc)
