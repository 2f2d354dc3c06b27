"""The paper's §1 scenario: searching a bibliographic collection.

Opens ``articles.xml`` beside this script: 25 articles cycling over five
archetypes (exact matches, keywords only in a section title, algorithm
split from the keyword section, abstract-only, off-topic).  It then shows
how each query of Figure 1 — and FleXPath's automatic relaxation —
recovers progressively more of the relevant articles while never
surfacing the off-topic ones above them.

Run:  python examples/article_search.py
"""

from pathlib import Path

from repro import FleXPath

ARTICLES = Path(__file__).with_name("articles.xml")

#: The Figure 1 queries: Q1 is the user query, Q2-Q6 the relaxations the
#: paper's introduction writes by hand.
FIGURE1_QUERIES = {
    "Q1": '//article[./section[./algorithm and ./paragraph['
          '.contains("XML" and "streaming")]]]',
    "Q2": '//article[./section[./algorithm and ./paragraph and '
          '.contains("XML" and "streaming")]]',
    "Q3": '//article[.//algorithm and ./section[./paragraph['
          '.contains("XML" and "streaming")]]]',
    "Q4": '//article[.//algorithm and ./section[./paragraph and '
          '.contains("XML" and "streaming")]]',
    "Q5": '//article[./section[./paragraph and '
          '.contains("XML" and "streaming")]]',
    "Q6": '//article[.contains("XML" and "streaming")]',
}


def archetype(node):
    return node.attributes["id"].rsplit("-", 1)[0]


def main():
    engine = FleXPath.open(ARTICLES)

    print("corpus: %d articles, 5 archetypes\n" % len(engine.exact("//article")))

    print("=== Figure 1: what each hand-written query catches ===")
    for name in ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6"):
        nodes = engine.exact(FIGURE1_QUERIES[name])
        kinds = sorted({archetype(n) for n in nodes})
        print("%-3s %2d articles  %s" % (name, len(nodes), ", ".join(kinds)))

    print(
        "\nWriting Q2..Q6 by hand is the 'naive solution' the paper rejects;"
        "\nFleXPath derives them automatically from Q1:\n"
    )

    print("=== FleXPath: relax Q1 automatically (top-12, structure-first) ===")
    result = engine.query(FIGURE1_QUERIES["Q1"], k=12, algorithm="hybrid")
    for rank, answer in enumerate(result.answers, start=1):
        print(
            "%2d. %-16s ss=%.3f ks=%.3f" % (
                rank,
                archetype(answer.node),
                answer.score.structural,
                answer.score.keyword,
            )
        )

    kinds = [archetype(a.node) for a in result.answers]
    assert "off-topic" not in kinds[: kinds.count("exact")]
    print(
        "\nExact matches rank first; articles needing relaxation follow with"
        "\nlower structural scores; off-topic articles only appear, if at"
        "\nall, once every relevant archetype is exhausted."
    )

    print("\n=== keyword-first ranking of the same query ===")
    result = engine.query(
        FIGURE1_QUERIES["Q1"], k=5, scheme="keyword-first", algorithm="hybrid"
    )
    for rank, answer in enumerate(result.answers, start=1):
        print(
            "%2d. %-16s ks=%.3f ss=%.3f"
            % (
                rank,
                archetype(answer.node),
                answer.score.keyword,
                answer.score.structural,
            )
        )


if __name__ == "__main__":
    main()
