"""The uniform-independence selectivity estimator (§6)."""

import pytest

from repro.ir import IREngine
from repro.query import parse_query
from repro.backend.stats import DocumentStatistics
from repro.stats import SelectivityEstimator
from repro.xmark import generate_document
from tests.spec.evaluate import evaluate


@pytest.fixture(scope="module")
def doc():
    return generate_document(target_bytes=60_000, seed=9)


@pytest.fixture(scope="module")
def estimator(doc):
    return SelectivityEstimator(DocumentStatistics(doc), IREngine(doc))


class TestExactCases:
    """Estimates are exact when the uniformity assumption trivially holds."""

    def test_single_tag(self, doc, estimator):
        query = parse_query("//item")
        assert estimator.estimate(query) == pytest.approx(doc.count("item"))

    def test_always_present_child(self, doc, estimator):
        # Every item has exactly one name child.
        query = parse_query("//item[./name]")
        assert estimator.estimate(query) == pytest.approx(doc.count("item"))

    def test_zero_when_tag_missing(self, estimator):
        assert estimator.estimate(parse_query("//unicorn[./horn]")) == 0.0


class TestEstimateQuality:
    """Estimates should track actual counts within a small factor."""

    @pytest.mark.parametrize(
        "query_text,tolerance",
        [
            ("//item[./description/parlist]", 0.35),
            ("//item[./mailbox/mail]", 0.35),
            ("//item[./incategory]", 0.35),
            ("//item[./description/parlist and ./mailbox/mail/text]", 0.5),
        ],
    )
    def test_relative_error(self, doc, estimator, query_text, tolerance):
        query = parse_query(query_text)
        actual = len(evaluate(query, doc))
        estimate = estimator.estimate(query)
        assert actual > 0
        assert abs(estimate - actual) / actual <= tolerance

    def test_monotone_in_relaxation(self, doc, estimator):
        strict = parse_query("//item[./description/parlist]")
        loose = parse_query("//item[./description//parlist]")
        assert estimator.estimate(loose) >= estimator.estimate(strict) - 1e-9


class TestContainsEstimates:
    def test_contains_reduces_estimate(self, doc, estimator):
        plain = parse_query("//item[./name]")
        filtered = parse_query('//item[./name and .contains("gold")]')
        assert estimator.estimate(filtered) < estimator.estimate(plain)

    def test_contains_estimate_tracks_actual(self, doc, estimator):
        query = parse_query('//item[.contains("gold")]')
        actual = len(evaluate(query, doc))
        estimate = estimator.estimate(query)
        assert actual > 0
        assert abs(estimate - actual) / actual <= 0.25

    def test_without_ir_engine_contains_ignored(self, doc):
        estimator = SelectivityEstimator(DocumentStatistics(doc), ir_engine=None)
        plain = parse_query("//item")
        filtered = parse_query('//item[.contains("gold")]')
        assert estimator.estimate(filtered) == estimator.estimate(plain)


class TestSpineHandling:
    def test_distinguished_below_root(self, doc, estimator):
        query = parse_query("//item/mailbox/mail")
        actual = len(evaluate(query, doc))
        estimate = estimator.estimate(query)
        assert actual > 0
        assert abs(estimate - actual) / actual <= 0.35

    def test_branch_off_spine(self, doc, estimator):
        query = parse_query("//item[./incategory]/name")
        actual = len(evaluate(query, doc))
        estimate = estimator.estimate(query)
        assert abs(estimate - actual) / max(actual, 1) <= 0.5
