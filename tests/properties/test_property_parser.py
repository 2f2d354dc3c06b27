"""Property tests: query parser round trips and XMark determinism."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query import parse_query

from tests.properties.strategies import TAGS


@st.composite
def query_strings(draw, max_depth=3):
    """Random well-formed XPath-fragment query strings."""

    def step(depth):
        axis = draw(st.sampled_from(("/", "//")))
        tag = draw(st.sampled_from(TAGS))
        qualifiers = []
        if depth < max_depth:
            for _ in range(draw(st.integers(0, 2))):
                qualifiers.append("." + step(depth + 1))
        if draw(st.booleans()) and depth > 0:
            word = draw(st.sampled_from(("gold", "ring", "stamp")))
            qualifiers.append('.contains("%s")' % word)
        text = axis + tag
        if qualifiers:
            text += "[%s]" % " and ".join(qualifiers)
        return text

    return step(0)


class TestParserRoundTrip:
    @given(query_strings())
    @settings(max_examples=80, deadline=None)
    def test_to_xpath_round_trips(self, text):
        query = parse_query(text)
        assert parse_query(query.to_xpath()) == query

    @given(query_strings())
    @settings(max_examples=80, deadline=None)
    def test_variables_are_preorder_numbered(self, text):
        query = parse_query(text)
        numbers = [int(var[1:]) for var in query.variables]
        assert numbers == list(range(1, len(numbers) + 1))

    @given(query_strings())
    @settings(max_examples=50, deadline=None)
    def test_parsing_is_deterministic(self, text):
        assert parse_query(text) == parse_query(text)


class TestXMarkDeterminism:
    @given(st.integers(0, 1000), st.integers(5_000, 30_000))
    @settings(max_examples=10, deadline=None)
    def test_seeded_generation_is_stable(self, seed, size):
        from repro.xmark import generate_document

        first = generate_document(target_bytes=size, seed=seed)
        second = generate_document(target_bytes=size, seed=seed)
        assert [n.tag for n in first.nodes()] == [n.tag for n in second.nodes()]
        assert [n.text for n in first.nodes()] == [
            n.text for n in second.nodes()
        ]
