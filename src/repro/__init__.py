"""FleXPath: flexible structure and full-text querying for XML.

A from-scratch reproduction of Amer-Yahia, Lakshmanan & Pandit,
"FleXPath: Flexible Structure and Full-Text Querying for XML",
SIGMOD 2004.

Quick start::

    from repro import Engine

    engine = Engine.from_xml(open("corpus.xml").read())
    result = engine.query(
        '//article[./section[./paragraph and .contains("XML" and "streaming")]]',
        k=10, scheme="structure-first", algorithm="hybrid",
    )
    for answer in result.answers:
        print(answer.node_id, answer.score)
"""

from repro.backend import InMemoryBackend, StorageBackend, as_backend
from repro.backend.disk import DiskBackend
from repro.backend.sharded import (
    HashRouter,
    RoundRobinRouter,
    ShardRouter,
    ShardedBackend,
)
from repro.cache import ResultCache
from repro.collection import Corpus, DocumentCollection
from repro.compiled import CompiledQuery, PlanCache, compile_query
from repro.concurrency import RWLock
from repro.engine import Engine, FleXPath
from repro.plans.eval_cache import EvaluationCache
from repro.errors import (
    CorruptStorageError,
    EvaluationError,
    FleXPathError,
    FTExprParseError,
    InvalidQueryError,
    InvalidRelaxationError,
    QueryBatchError,
    QueryCancelledError,
    QueryParseError,
    QueryTimeoutError,
    XMLParseError,
)
from repro.session import QueryControl, Session
from repro.ir import IREngine, parse_ftexpr
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    QueryTrace,
    SlowQueryLog,
    Tracer,
    disable_slow_query_log,
    enable_slow_query_log,
    get_registry,
)
from repro.query import TPQ, parse_query
from repro.rank import (
    COMBINED,
    KEYWORD_FIRST,
    STRUCTURE_FIRST,
    AnswerScore,
    ScoredAnswer,
)
from repro.relax import PenaltyModel, RelaxationSchedule, WeightAssignment
from repro.topk import (
    DPO,
    SSO,
    ExecutionSession,
    Hybrid,
    IRFirstDPO,
    NaiveRewriting,
    QueryContext,
    TopKResult,
)
from repro.xmltree import Document, build_document, element, parse, parse_file

__version__ = "1.0.0"

__all__ = [
    "AnswerScore",
    "COMBINED",
    "CompiledQuery",
    "Corpus",
    "CorruptStorageError",
    "DPO",
    "DiskBackend",
    "Document",
    "DocumentCollection",
    "Engine",
    "EvaluationCache",
    "EvaluationError",
    "ExecutionSession",
    "FTExprParseError",
    "FleXPath",
    "FleXPathError",
    "HashRouter",
    "Hybrid",
    "IREngine",
    "IRFirstDPO",
    "InMemoryBackend",
    "InvalidQueryError",
    "InvalidRelaxationError",
    "KEYWORD_FIRST",
    "MetricsRegistry",
    "NULL_TRACER",
    "NaiveRewriting",
    "PenaltyModel",
    "PlanCache",
    "QueryBatchError",
    "QueryCancelledError",
    "QueryContext",
    "QueryControl",
    "QueryParseError",
    "QueryTimeoutError",
    "QueryTrace",
    "RWLock",
    "ResultCache",
    "RelaxationSchedule",
    "RoundRobinRouter",
    "SSO",
    "STRUCTURE_FIRST",
    "ScoredAnswer",
    "Session",
    "ShardRouter",
    "ShardedBackend",
    "SlowQueryLog",
    "StorageBackend",
    "TPQ",
    "TopKResult",
    "Tracer",
    "WeightAssignment",
    "XMLParseError",
    "as_backend",
    "build_document",
    "compile_query",
    "disable_slow_query_log",
    "element",
    "enable_slow_query_log",
    "get_registry",
    "parse",
    "parse_file",
    "parse_ftexpr",
    "parse_query",
    "__version__",
]
