"""Tokenization pipeline."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import STOP_WORDS, normalize_term, tokenize, tokenize_and_stem


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("Hello, World!") == ["hello", "world"]

    def test_alphanumerics_kept_together(self):
        assert tokenize("top-k in 2004") == ["top", "k", "in", "2004"]

    def test_empty_text(self):
        assert tokenize("") == []
        assert tokenize("   ...   ") == []

    def test_unicode_word_characters(self):
        assert tokenize("naïve café") == ["naïve", "café"]


class TestPipeline:
    def test_stop_words_dropped(self):
        tokens = tokenize_and_stem("the cat and the hat")
        assert "the" not in tokens
        assert "and" not in tokens
        assert "cat" in tokens

    def test_stemming_applied(self):
        assert tokenize_and_stem("streaming algorithms") == ["stream", "algorithm"]

    def test_normalize_term_matches_pipeline(self):
        for word in ("Streaming", "ALGORITHMS", "queries"):
            assert [normalize_term(word)] == tokenize_and_stem(word)

    def test_normalize_stop_word_is_none(self):
        assert normalize_term("the") is None
        assert normalize_term("The") is None

    def test_stop_words_frozen(self):
        assert isinstance(STOP_WORDS, frozenset)


def _tokenize_per_character(text):
    """The character loop ``tokenize`` replaced; its output is the contract."""
    tokens = []
    word = []
    for char in text:
        if char.isalnum():
            word.append(char.lower())
        elif word:
            tokens.append("".join(word))
            word = []
    if word:
        tokens.append("".join(word))
    return tokens


# Characters whose case mapping or word-ness is irregular: dotted capital I
# lowers to two code points, sharp s has no single upper case, capital sigma
# lowers by position, titlecase digraphs, combining marks and joiners are
# not alphanumeric, and non-ASCII digits / numerics are.
_IRREGULAR = "İıßẞΣσςǅǲ̇́‍_-.' \t\n0９²½Ⅷ٣aZéÉ"


class TestTokenizeMatchesCharacterLoop:
    @given(st.text(alphabet=st.one_of(
        st.sampled_from(_IRREGULAR), st.characters()), max_size=40))
    @settings(max_examples=1500, deadline=None)
    def test_arbitrary_unicode(self, text):
        assert tokenize(text) == _tokenize_per_character(text)

    def test_named_cases(self):
        for text in ("ΟΔΟΣ ΟΔΟΣ.", "Σ", "aΣ", "Σa", "İstanbul", "Straße", "a_b",
                     "é", "x٣y", "ǅemal", "top-k 2004"):
            assert tokenize(text) == _tokenize_per_character(text), text
        assert tokenize("ΟΔΟΣ") == ["οδοσ"]  # not the word-final form
        assert tokenize("a_b") == ["a", "b"]
