"""Porter stemmer (Porter, 1980).

A from-scratch implementation of the classic five-step suffix-stripping
algorithm, the stemmer the IR literature of the paper's era (and the paper's
own "stemming" references) assume. Behaviour follows the original paper,
including the m() measure, *v* / *d* / *o* conditions, and the step order.
"""

from __future__ import annotations

_VOWELS = "aeiou"


def _is_consonant(word, index):
    char = word[index]
    if char in _VOWELS:
        return False
    if char == "y":
        return index == 0 or not _is_consonant(word, index - 1)
    return True


def _measure(stem_text):
    """Return m: the number of VC sequences in the word."""
    forms = []
    for index in range(len(stem_text)):
        consonant = _is_consonant(stem_text, index)
        if not forms or forms[-1] != consonant:
            forms.append(consonant)
    # forms is like [C, V, C, V, ...]; count V->C transitions.
    count = 0
    for first, second in zip(forms, forms[1:]):
        if first is False and second is True:
            count += 1
    return count


def _contains_vowel(stem_text):
    return any(not _is_consonant(stem_text, i) for i in range(len(stem_text)))


def _ends_double_consonant(word):
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word):
    if len(word) < 3:
        return False
    if not _is_consonant(word, len(word) - 3):
        return False
    if _is_consonant(word, len(word) - 2):
        return False
    if not _is_consonant(word, len(word) - 1):
        return False
    return word[-1] not in "wxy"


def _replace(word, suffix, replacement, min_measure):
    stem_text = word[: len(word) - len(suffix)]
    if _measure(stem_text) > min_measure:
        return stem_text + replacement
    return word


def stem(word):
    """Return the Porter stem of a lower-case word.

    Not memoized itself: every caller comes through the surface word memo
    of :func:`repro.ir.tokenizer.normalize_term`, so each distinct word
    pays for the five steps once per process.
    """
    if len(word) <= 2:
        return word

    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _step2(word)
    word = _step3(word)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word


def _step1a(word):
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word):
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            return word[:-1]
        return word
    flag = False
    if word.endswith("ed") and _contains_vowel(word[:-2]):
        word = word[:-2]
        flag = True
    elif word.endswith("ing") and _contains_vowel(word[:-3]):
        word = word[:-3]
        flag = True
    if flag:
        if word.endswith(("at", "bl", "iz")):
            return word + "e"
        if _ends_double_consonant(word) and word[-1] not in "lsz":
            return word[:-1]
        if _measure(word) == 1 and _ends_cvc(word):
            return word + "e"
    return word


def _step1c(word):
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


_STEP2_SUFFIXES = (
    ("ational", "ate"),
    ("tional", "tion"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("abli", "able"),
    ("alli", "al"),
    ("entli", "ent"),
    ("eli", "e"),
    ("ousli", "ous"),
    ("ization", "ize"),
    ("ation", "ate"),
    ("ator", "ate"),
    ("alism", "al"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("biliti", "ble"),
)


def _step2(word):
    for suffix, replacement in _STEP2_SUFFIXES:
        if word.endswith(suffix):
            return _replace(word, suffix, replacement, 0)
    return word


_STEP3_SUFFIXES = (
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
)


def _step3(word):
    for suffix, replacement in _STEP3_SUFFIXES:
        if word.endswith(suffix):
            return _replace(word, suffix, replacement, 0)
    return word


_STEP4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


def _step4(word):
    for suffix in _STEP4_SUFFIXES:
        if word.endswith(suffix):
            stem_text = word[: len(word) - len(suffix)]
            if _measure(stem_text) > 1:
                return stem_text
            return word
    if word.endswith("ion"):
        stem_text = word[:-3]
        if stem_text and stem_text[-1] in "st" and _measure(stem_text) > 1:
            return stem_text
    return word


def _step5a(word):
    if word.endswith("e"):
        stem_text = word[:-1]
        measure = _measure(stem_text)
        if measure > 1:
            return stem_text
        if measure == 1 and not _ends_cvc(stem_text):
            return stem_text
    return word


def _step5b(word):
    if _measure(word) > 1 and word.endswith("ll"):
        return word[:-1]
    return word
