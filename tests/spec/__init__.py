"""The paper's reference semantics, the oracle the engine is tested against.

Nothing in ``src`` imports these modules: the §2.1 evaluator, closure, core
and containment (Thm 1), the relaxation space (Thm 2), the §4.3.1/§6
statistics counted by definition, and the §1 article corpus
(``examples/articles.xml`` is its output) with the Figure 1 queries
``examples/article_search.py`` runs.
"""
