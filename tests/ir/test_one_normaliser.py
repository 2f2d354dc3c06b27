"""One word normaliser: a query word finds its own text through every door.

Indexed text and query words both go through ``normalize_term``.  So a
word with a capital sigma (``str.lower()`` maps it by its position in the
word, the index per character) and a quoted word with punctuation inside
(``e-mail``, indexed as ``e`` and ``mail``) find the element that holds
them through keyword search, a ``contains`` query, highlighting and the CLI.
"""

import os
import subprocess
import sys

import pytest

from repro.engine import Engine
from repro.ir import highlight, parse_ftexpr, tokenize

DOC = "<a><b>ΟΔΟΣ</b><b>an e-mail</b><b>x</b></a>"

#: word -> (the text of the one <b> holding it, that text highlighted)
WORDS = {
    "ΟΔΟΣ": ("ΟΔΟΣ", "**ΟΔΟΣ**"),
    "e-mail": ("an e-mail", "an **e**-**mail**"),
}


@pytest.fixture(scope="module")
def engine():
    return Engine.from_xml(DOC)


@pytest.mark.parametrize("word", sorted(WORDS))
def test_keyword_search(engine, word):
    matches = engine.context.ir.most_specific_matches(
        parse_ftexpr('"%s"' % word)
    )
    assert [engine.document.full_text(m.node) for m in matches] == [WORDS[word][0]]


@pytest.mark.parametrize("word", sorted(WORDS))
def test_contains_query(engine, word):
    nodes = engine.exact('//b[.contains("%s")]' % word)
    assert [engine.document.full_text(node) for node in nodes] == [WORDS[word][0]]


@pytest.mark.parametrize("word", sorted(WORDS))
def test_highlight(word):
    """As written and as the index spells it (``οδοσ``, ``e mail``)."""
    text, marked = WORDS[word]
    for spelling in (word, " ".join(tokenize(word))):
        assert highlight(text, parse_ftexpr('"%s"' % spelling)) == marked


@pytest.mark.parametrize("word", sorted(WORDS))
def test_cli_search(tmp_path, word):
    path = tmp_path / "doc.xml"
    path.write_text(DOC, encoding="utf-8")
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "search", str(path), '"%s"' % word],
        capture_output=True,
        encoding="utf-8",
        env=dict(os.environ, PYTHONIOENCODING="utf-8"),
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert "# 1 most specific match(es)" in completed.stdout
    assert "| %s" % WORDS[word][1] in completed.stdout
