"""Synthetic article corpus for the paper's §1 motivating scenario.

The introduction motivates FleXPath with bibliographic collections (IEEE
INEX, ACM SIGMOD Record): heterogeneous structure plus textual content.
This generator produces such a corpus deterministically, with exactly the
heterogeneity the Figure 1 discussion relies on:

- some articles keep the keywords in a paragraph of the section that also
  holds an algorithm (exact Q1 matches);
- some have the keywords in the *section title*, not in any paragraph
  (recovered by contains promotion — paper Q2);
- some have the algorithm outside the keyword-bearing section (recovered
  by subtree promotion — paper Q3);
- some mention the keywords only in an abstract (recovered by repeated
  relaxation — paper Q5/Q6 territory);
- plus articles about unrelated topics (never relevant).

Every article records its archetype in an ``id`` attribute so tests can
assert which relaxation level recovers which article.
"""

from __future__ import annotations

import random
import runpy
from pathlib import Path

from repro.collection import Corpus
from repro.xmltree.builder import TreeBuilder

TOPIC_SENTENCES = (
    "We present new techniques for query evaluation.",
    "The experimental results demonstrate clear improvements.",
    "Our approach builds on well known indexing structures.",
    "A careful analysis shows the trade offs involved.",
    "The implementation uses a standard buffer manager.",
    "Related approaches are discussed in a later section.",
)

OFF_TOPIC_SENTENCES = (
    "Relational engines optimize join ordering with dynamic programming.",
    "Lock managers coordinate concurrent transactions.",
    "Buffer replacement policies affect cache hit rates.",
    "Cost models estimate cardinalities from histograms.",
)

#: Archetype names in the order generated; see the module docstring.
ARCHETYPES = (
    "exact",           # paragraph in the algorithm section has the keywords
    "title-keywords",  # section title has them, no paragraph does
    "split-algorithm", # keywords in a section without the algorithm
    "abstract-only",   # keywords only in the abstract
    "off-topic",       # keywords absent
)


def article_corpus(articles=25, seed=11, keywords=("XML", "streaming")):
    """Build a corpus of ``articles`` articles cycling over the archetypes.

    Each article is built as a standalone document and spliced into a
    :class:`~repro.collection.Corpus` — the incremental-ingest path — which
    yields exactly the same pre-order node ids as building the whole
    ``<collection>`` tree with one builder.

    Returns a :class:`~repro.xmltree.document.Document` rooted at
    ``<collection>``.
    """
    rng = random.Random(seed)
    keyword_text = " ".join(keywords)
    corpus = Corpus(root_tag="collection")

    for index in range(articles):
        archetype = ARCHETYPES[index % len(ARCHETYPES)]
        builder = TreeBuilder()
        builder.start(
            "article", {"id": "%s-%d" % (archetype, index), "year": str(1998 + index % 7)}
        )
        builder.start("title")
        if archetype == "off-topic":
            builder.add_text("Notes on %s" % rng.choice(("joins", "locks", "logs")))
        else:
            builder.add_text("A study of %s processing" % keyword_text)
        builder.end("title")

        builder.start("abstract")
        if archetype == "abstract-only":
            builder.add_text(
                "This paper studies %s algorithms in depth." % keyword_text
            )
        else:
            builder.add_text(rng.choice(TOPIC_SENTENCES))
        builder.end("abstract")

        if archetype == "exact":
            _section(
                builder,
                title="Evaluation",
                algorithm=True,
                paragraphs=(
                    "Our %s approach scales linearly." % keyword_text,
                    rng.choice(TOPIC_SENTENCES),
                ),
            )
        elif archetype == "title-keywords":
            _section(
                builder,
                title="Processing %s efficiently" % keyword_text,
                algorithm=True,
                paragraphs=(rng.choice(TOPIC_SENTENCES),),
            )
        elif archetype == "split-algorithm":
            _section(
                builder,
                title="Background",
                algorithm=True,
                paragraphs=(rng.choice(TOPIC_SENTENCES),),
            )
            _section(
                builder,
                title="Discussion",
                algorithm=False,
                paragraphs=("Handling %s workloads remains hard." % keyword_text,),
            )
        elif archetype == "abstract-only":
            _section(
                builder,
                title="Methods",
                algorithm=False,
                paragraphs=(rng.choice(TOPIC_SENTENCES),),
            )
        else:  # off-topic
            _section(
                builder,
                title="Engine internals",
                algorithm=True,
                paragraphs=(rng.choice(OFF_TOPIC_SENTENCES),),
            )
        builder.end("article")
        corpus.add_document(
            builder.finish(), name="%s-%d" % (archetype, index)
        )

    return corpus.document


def _section(builder, title, algorithm, paragraphs):
    builder.start("section")
    builder.start("title")
    builder.add_text(title)
    builder.end("title")
    if algorithm:
        builder.start("algorithm")
        builder.add_text("procedure evaluate(input) ...")
        builder.end("algorithm")
    for text in paragraphs:
        builder.start("paragraph")
        builder.add_text(text)
        builder.end("paragraph")
    builder.end("section")


#: The Figure 1 queries, verbatim in this library's concrete syntax.
#: Q1 is the user query; Q2-Q6 are the relaxations the introduction walks
#: through (Q1 ⊂ Q2, Q1 ⊂ Q3, Q2 ⊂ Q4, Q3 ⊂ Q4, Q4 ⊂ Q5 ⊂ Q6).  Their one
#: copy is in the example that runs them.
FIGURE1_QUERIES = runpy.run_path(
    str(Path(__file__).resolve().parents[2] / "examples" / "article_search.py")
)["FIGURE1_QUERIES"]
