"""Deep and self-nested twigs: the recursive cases that stress the stacks.

Depth-1000 chain documents exercise the stack-merge kernels far past any
realistic XMark nesting, and same-tag self-nesting (``//a[./a]``) hits the
parent-child top-of-stack case where a node is simultaneously an open
ancestor and a candidate child.  The twig operator (strict mode) must agree
with the binary pipeline run unpruned (SSO mode, no ``k``) on both answers
and round-9 scores everywhere.
"""

import pytest

from repro.ir import IREngine
from repro.plans import SSO_MODE, STRICT, PlanExecutor, build_strict_plan, lower_plan
from repro.query import parse_query
from repro.relax import UNIFORM_WEIGHTS
from repro.backend.stats import DocumentStatistics
from repro.xmltree import parse

DEPTH = 1000


@pytest.fixture(scope="module")
def chain_doc():
    """<r><a><a>...<a><b>gold ring</b></a>...</a></a></r>, DEPTH a's deep."""
    xml = "<r>%s<b>gold ring</b>%s</r>" % ("<a>" * DEPTH, "</a>" * DEPTH)
    return parse(xml)


@pytest.fixture(scope="module")
def chain_executor(chain_doc):
    return PlanExecutor(chain_doc, IREngine(chain_doc))


@pytest.fixture(scope="module")
def chain_stats(chain_doc):
    return DocumentStatistics(chain_doc)


def _ranked(result):
    return sorted(
        (a.node_id, round(a.score.structural, 9), round(a.score.keyword, 9))
        for a in result.answers
    )


def _run_both(executor, stats, query_text):
    plan = lower_plan(
        build_strict_plan(parse_query(query_text), UNIFORM_WEIGHTS), stats,
        strict=True,
    )
    return executor.run(plan, mode=STRICT), executor.run(plan, mode=SSO_MODE)


class TestDeepChain:
    def test_self_nested_pc(self, chain_executor, chain_stats):
        twig, binary = _run_both(chain_executor, chain_stats, "//a[./a]")
        assert _ranked(twig) == _ranked(binary)
        assert len(twig.answers) == DEPTH - 1  # every a but the deepest

    def test_deep_ad_leaf(self, chain_executor, chain_stats):
        twig, binary = _run_both(chain_executor, chain_stats, "//a[.//b]")
        assert _ranked(twig) == _ranked(binary)
        assert len(twig.answers) == DEPTH  # every a contains the leaf b

    def test_triple_self_nesting(self, chain_executor, chain_stats):
        twig, binary = _run_both(chain_executor, chain_stats, "//a[./a/a]")
        assert _ranked(twig) == _ranked(binary)
        assert len(twig.answers) == DEPTH - 2

    def test_deep_contains_scores(self, chain_executor, chain_stats):
        twig, binary = _run_both(
            chain_executor, chain_stats, '//a[./a and .//b[.contains("gold")]]'
        )
        assert _ranked(twig) == _ranked(binary)
        assert twig.answers
        assert all(a.score.keyword > 0 for a in twig.answers)


class TestSelfNestedPatterns:
    """PC patterns where ancestor and descendant pools share one tag."""

    @pytest.fixture(scope="module")
    def doc(self):
        return parse(
            "<r>"
            "<a><a><a><b>gold</b></a></a></a>"
            "<a><a/></a>"
            "<a><c><a/></c></a>"  # a under a, but not a *child*
            "</r>"
        )

    @pytest.fixture(scope="module")
    def executor(self, doc):
        return PlanExecutor(doc, IREngine(doc))

    @pytest.fixture(scope="module")
    def stats(self, doc):
        return DocumentStatistics(doc)

    @pytest.mark.parametrize(
        "query_text",
        [
            "//a[./a]",
            "//a[./a/a]",
            "//a[.//a]",
            "//a[./a and ./a/a]",
            '//a[./a[.contains("gold")]]',
            '//a[.//a[./b[.contains("gold")]]]',
        ],
    )
    def test_twig_matches_binary(self, executor, stats, query_text):
        twig, binary = _run_both(executor, stats, query_text)
        assert _ranked(twig) == _ranked(binary)

    def test_pc_skips_non_child_nesting(self, executor, stats):
        # The a under <c> nests inside an a but is no a's child: ./a must
        # not count it, .//a must.
        pc_twig, pc_binary = _run_both(executor, stats, "//a[./a]")
        ad_twig, ad_binary = _run_both(executor, stats, "//a[.//a]")
        assert _ranked(pc_twig) == _ranked(pc_binary)
        assert _ranked(ad_twig) == _ranked(ad_binary)
        assert len(ad_twig.answers) > len(pc_twig.answers)
