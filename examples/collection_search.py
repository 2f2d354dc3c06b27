"""Searching a multi-document collection.

Combines several bibliographic documents under one virtual root
(the paper's "data tree, i.e., an XML document collection"), runs a
flexible query across all of them, attributes each answer back to its
source file, and highlights the matched keywords.

Run:  python examples/collection_search.py
"""

from repro import FleXPath
from repro.collection import DocumentCollection
from repro.ir import parse_ftexpr
from repro.ir.highlight import snippet

DOCUMENTS = {
    "proceedings-2003.xml": """
<proceedings year="2003">
 <article><title>Streaming XML engines</title>
  <section><algorithm>alg</algorithm>
   <paragraph>We evaluate XML streaming workloads end to end.</paragraph>
  </section>
 </article>
 <article><title>Cache design</title>
  <section><paragraph>Buffer pools and eviction policies.</paragraph></section>
 </article>
</proceedings>
""",
    "proceedings-2004.xml": """
<proceedings year="2004">
 <article><title>XML streaming in practice</title>
  <section><title>XML streaming deployment notes</title>
   <algorithm>alg</algorithm>
   <paragraph>Operational experience report.</paragraph>
  </section>
 </article>
</proceedings>
""",
    "tech-reports.xml": """
<reports>
 <article><abstract>A survey of streaming XML processing.</abstract>
  <section><paragraph>No algorithms inside.</paragraph></section>
 </article>
</reports>
""",
}

QUERY = (
    '//article[.//algorithm and ./section[./paragraph'
    ' and .contains("XML" and "streaming")]]'
)


def main():
    collection = DocumentCollection.from_texts(
        list(DOCUMENTS.values()), names=list(DOCUMENTS.keys())
    )
    engine = FleXPath(collection.document)
    expression = parse_ftexpr('"XML" and "streaming"')

    print("collection: %d documents, %d elements\n" % (
        len(collection), len(collection.document)
    ))

    print("=== flexible top-4 across the whole collection ===")
    result = engine.query(QUERY, k=4)
    for rank, answer in enumerate(result.answers, start=1):
        source = collection.source_of(answer.node)
        text = engine.document.full_text(answer.node)
        print("%d. [%s]  ss=%.2f ks=%.2f" % (
            rank, source, answer.score.structural, answer.score.keyword
        ))
        print("   %s" % snippet(text, expression, width=64))


if __name__ == "__main__":
    main()
