"""Deterministic XMark-like document generator.

Produces auction-site documents with the XMark schema fragment below,
sized by an approximate serialized-byte target, fully reproducible from a
seed::

    site
    ├── regions
    │   └── {africa,asia,australia,europe,namerica,samerica}
    │       └── item*
    │           ├── location, quantity, name, payment
    │           ├── description → (text | parlist)
    │           ├── shipping
    │           ├── incategory*          (0..3, optional)
    │           └── mailbox → mail* → (from, to, date, text)
    ├── categories → category* → (name, description)
    └── people → person* → (name, emailaddress, ...)

    parlist → listitem+,  listitem → (text | parlist)
    text → #PCDATA with optional inline bold / keyword / emph children

It has the three features §6 calls out as enabling relaxations: recursive
nodes (``parlist``), optional nodes (``incategory``) and shared nodes
(``text`` under ``mail``, ``description`` and ``listitem``).  The
distribution knobs are chosen so the paper's evaluation queries behave as
§6 describes:

- ``//item[./description/parlist]`` (paper Q1) matches a strict subset of
  items, and nested parlists make axis generalization *available*;
- ``./mailbox/mail/text`` (paper Q2) misses items whose mails have no text
  but whose description does — subtree promotion of ``text`` recovers them;
- ``incategory`` and the inline ``bold``/``keyword``/``emph`` children are
  optional, so leaf deletions steadily grow the answer set (paper Q3).

All probabilities are configurable via :class:`XMarkConfig`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.xmark.words import (
    CATEGORY_WORDS,
    FIRST_NAMES,
    LAST_NAMES,
    MARKERS,
    REGIONS,
    VOCABULARY,
)
from repro.xmltree.builder import TreeBuilder


@dataclass
class XMarkConfig:
    """Distribution knobs for the generator."""

    target_bytes: int = 1 << 20  # ~1 "MB" of serialized content
    seed: int = 42

    # -- structure probabilities ------------------------------------------------
    description_parlist_probability: float = 0.6  # else plain text description
    parlist_recursion_probability: float = 0.35
    parlist_max_depth: int = 4
    listitems_per_parlist: tuple = (1, 3)  # inclusive range
    mails_per_item: tuple = (0, 4)
    mail_text_probability: float = 0.75
    incategory_probability: float = 0.7  # at least one incategory
    incategory_max: int = 3
    inline_probability: float = 0.3  # each of bold/keyword/emph, per text
    nested_inline_probability: float = 0.1  # inline inside inline

    # -- text ---------------------------------------------------------------------
    sentence_words: tuple = (6, 14)
    sentences_per_text: tuple = (1, 3)
    marker_probability: float = 0.12  # chance a sentence carries a marker term
    categories: int = 12
    people: int = 25


class XMarkGenerator:
    """Generates one document per :class:`XMarkConfig`."""

    def __init__(self, config=None):
        self.config = config if config is not None else XMarkConfig()
        self._rng = random.Random(self.config.seed)
        self._builder = None
        self._bytes = 0
        self.items_generated = 0

    # -- public -------------------------------------------------------------------

    def generate(self):
        """Build and return the document."""
        self._rng = random.Random(self.config.seed)
        self._builder = TreeBuilder()
        self._bytes = 0
        self.items_generated = 0

        self._start("site")
        self._emit_categories()
        self._emit_people()
        self._start("regions")
        region_index = 0
        # Round-robin items over regions until the size target is met.
        open_region = None
        while self._bytes < self.config.target_bytes:
            if open_region is None:
                open_region = REGIONS[region_index % len(REGIONS)]
                self._start(open_region)
            self._emit_item()
            # Close the region every few items so regions interleave.
            if self.items_generated % 8 == 0:
                self._end(open_region)
                open_region = None
                region_index += 1
        if open_region is not None:
            self._end(open_region)
        self._end("regions")
        self._end("site")
        return self._builder.finish()

    # -- sections ------------------------------------------------------------------

    def _emit_categories(self):
        self._start("categories")
        for index in range(self.config.categories):
            self._start("category", {"id": "category%d" % index})
            self._text_element("name", self._rng.choice(CATEGORY_WORDS))
            self._start("description")
            self._emit_text_element()
            self._end("description")
            self._end("category")
        self._end("categories")

    def _emit_people(self):
        self._start("people")
        for index in range(self.config.people):
            self._start("person", {"id": "person%d" % index})
            name = "%s %s" % (
                self._rng.choice(FIRST_NAMES),
                self._rng.choice(LAST_NAMES),
            )
            self._text_element("name", name)
            self._text_element(
                "emailaddress", name.replace(" ", ".") + "@example.com"
            )
            self._end("person")
        self._end("people")

    def _emit_item(self):
        rng = self._rng
        config = self.config
        self.items_generated += 1
        self._start("item", {"id": "item%d" % self.items_generated})
        self._text_element("location", rng.choice(REGIONS))
        self._text_element("quantity", str(rng.randint(1, 5)))
        self._text_element(
            "name",
            "%s %s" % (rng.choice(VOCABULARY), rng.choice(VOCABULARY)),
        )
        self._text_element("payment", rng.choice(("cash", "check", "credit")))

        self._start("description")
        if rng.random() < config.description_parlist_probability:
            self._emit_parlist(depth=1)
        else:
            self._emit_text_element()
        self._end("description")

        self._text_element("shipping", rng.choice(("ground", "air", "sea")))

        if rng.random() < config.incategory_probability:
            for _ in range(rng.randint(1, config.incategory_max)):
                self._element_with_attrs(
                    "incategory",
                    {"category": "category%d" % rng.randrange(config.categories)},
                )

        self._start("mailbox")
        for _ in range(rng.randint(*config.mails_per_item)):
            self._emit_mail()
        self._end("mailbox")
        self._end("item")

    def _emit_parlist(self, depth):
        rng = self._rng
        config = self.config
        self._start("parlist")
        for _ in range(rng.randint(*config.listitems_per_parlist)):
            self._start("listitem")
            recurse = (
                depth < config.parlist_max_depth
                and rng.random() < config.parlist_recursion_probability
            )
            if recurse:
                self._emit_parlist(depth + 1)
            else:
                self._emit_text_element()
            self._end("listitem")
        self._end("parlist")

    def _emit_mail(self):
        rng = self._rng
        self._start("mail")
        self._text_element(
            "from",
            "%s %s" % (rng.choice(FIRST_NAMES), rng.choice(LAST_NAMES)),
        )
        self._text_element(
            "to",
            "%s %s" % (rng.choice(FIRST_NAMES), rng.choice(LAST_NAMES)),
        )
        self._text_element(
            "date", "%02d/%02d/2003" % (rng.randint(1, 12), rng.randint(1, 28))
        )
        if rng.random() < self.config.mail_text_probability:
            self._emit_text_element()
        self._end("mail")

    def _emit_text_element(self):
        """A ``text`` element with prose and optional inline children."""
        rng = self._rng
        config = self.config
        self._start("text")
        self._add_text(self._sentences())
        inline_tags = [
            tag
            for tag in ("bold", "keyword", "emph")
            if rng.random() < config.inline_probability
        ]
        for tag in inline_tags:
            self._start(tag)
            self._add_text(self._phrase())
            if rng.random() < config.nested_inline_probability:
                nested = rng.choice(("bold", "keyword", "emph"))
                self._text_element(nested, self._phrase())
            self._end(tag)
        self._end("text")

    # -- prose ----------------------------------------------------------------------

    def _phrase(self):
        rng = self._rng
        words = [rng.choice(VOCABULARY) for _ in range(rng.randint(2, 4))]
        if rng.random() < self.config.marker_probability:
            words.insert(rng.randrange(len(words) + 1), rng.choice(MARKERS))
        return " ".join(words)

    def _sentences(self):
        rng = self._rng
        config = self.config
        parts = []
        for _ in range(rng.randint(*config.sentences_per_text)):
            count = rng.randint(*config.sentence_words)
            words = [rng.choice(VOCABULARY) for _ in range(count)]
            if rng.random() < config.marker_probability:
                words.insert(rng.randrange(len(words) + 1), rng.choice(MARKERS))
            parts.append(" ".join(words) + ".")
        return " ".join(parts)

    # -- builder helpers ---------------------------------------------------------------

    def _start(self, tag, attributes=None):
        self._builder.start(tag, attributes)
        self._bytes += 2 * len(tag) + 5
        if attributes:
            self._bytes += sum(len(k) + len(v) + 4 for k, v in attributes.items())

    def _end(self, tag):
        self._builder.end(tag)

    def _add_text(self, text):
        self._builder.add_text(text)
        self._bytes += len(text)

    def _text_element(self, tag, text):
        self._start(tag)
        self._add_text(text)
        self._end(tag)

    def _element_with_attrs(self, tag, attributes):
        self._start(tag, attributes)
        self._end(tag)


def generate_document(target_bytes=1 << 20, seed=42, config=None):
    """Generate an XMark-like document of roughly ``target_bytes``."""
    if config is None:
        config = XMarkConfig(target_bytes=target_bytes, seed=seed)
    generator = XMarkGenerator(config)
    return generator.generate()
