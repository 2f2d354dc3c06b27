"""XMark-like synthetic auction data (the paper's evaluation dataset)."""

from repro.xmark.generator import XMarkConfig, XMarkGenerator, generate_document

#: The three evaluation queries of §6, verbatim from the paper.
PAPER_Q1 = "//item[./description/parlist]"
PAPER_Q2 = "//item[./description/parlist and ./mailbox/mail/text]"
PAPER_Q3 = (
    "//item[./description/parlist/listitem and "
    "./mailbox/mail/text[./bold and ./keyword and ./emph] and "
    "./name and ./incategory]"
)

PAPER_QUERIES = {"Q1": PAPER_Q1, "Q2": PAPER_Q2, "Q3": PAPER_Q3}

__all__ = [
    "PAPER_Q1",
    "PAPER_Q2",
    "PAPER_Q3",
    "PAPER_QUERIES",
    "XMarkConfig",
    "XMarkGenerator",
    "generate_document",
]
