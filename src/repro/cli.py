"""Command-line interface: ``python -m repro <command> ...``.

Commands:

- ``query PATH QUERY``    top-K flexible evaluation
- ``exact PATH QUERY``    strict XPath-fragment semantics, no relaxation
- ``explain PATH QUERY``  show the relaxation schedule and plan choice
- ``search PATH FTEXPR``  content-only keyword search (no structure)
- ``generate``            emit an XMark-like document to stdout or a file
- ``stats PATH``          a corpus directory's status line; document and
                          tag statistics
- ``dump FILE OUT``       convert a document to a binary dump file
- ``metrics PATH``        run a workload and dump the metrics registry
- ``serve-metrics PATH``  serve /metrics, /healthz, /statusz over HTTP
- ``ingest DIR FILE...``  append documents to a corpus directory
                          (WAL-durable; created if missing or empty)
- ``compact DIR``         fold a corpus directory's WAL into a sealed segment

A ``PATH`` opens through :func:`repro.backend.open_path`, the one rule for
what a path holds: a file is one document — XML, or a dump written by
``dump``, which skips the XML parser — and a directory a corpus written by
``ingest`` (or ``Engine.sharded``), sharded when it holds ``shard-*``
directories, served off mmap'd segments.  Anything else is refused, so only
``ingest`` creates a corpus, in a missing or empty directory; it and
``compact`` work on every shard of a sharded one.  ``query --shards N``
scatters a file over N in-memory shards; a directory must hold N shards.

Examples::

    python -m repro generate --size-kb 200 --seed 7 -o auctions.xml
    python -m repro query auctions.xml '//item[./description/parlist]' -k 5
    python -m repro explain auctions.xml '//item[./mailbox/mail/text]'
    python -m repro explain --json auctions.xml '//item[./description]'
    python -m repro search auctions.xml '"gold" and "vintage"' -k 3
    python -m repro metrics auctions.xml --count 20 --json
    python -m repro ingest ./corpus auctions.xml
    python -m repro query ./corpus '//item[./description/parlist]' -k 5
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.backend import open_path
from repro.backend.disk import DiskBackend
from repro.engine import ALGORITHMS, DEFAULT_ALGORITHM, Engine
from repro.errors import FleXPathError
from repro.rank.schemes import SCHEMES, STRUCTURE_FIRST
from repro.xmark import generate_document
from repro.xmltree.serialize import to_xml
from repro.xmltree.storage import dump_document, read_document


def _ranking_flags(parser):
    """``--algorithm`` and ``--scheme``, named from the engine's and the
    ranking module's tables."""
    parser.add_argument(
        "--algorithm", choices=tuple(ALGORITHMS), default=DEFAULT_ALGORITHM
    )
    parser.add_argument(
        "--scheme", choices=tuple(SCHEMES), default=STRUCTURE_FIRST.name
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FleXPath: flexible structure and full-text querying for XML",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    query = commands.add_parser("query", help="top-K flexible evaluation")
    query.add_argument("file", help="XML document, dump, or corpus directory")
    query.add_argument("query", help="XPath-fragment query")
    query.add_argument("-k", type=int, default=10, help="answers to return")
    _ranking_flags(query)
    query.add_argument(
        "--max-relaxations", type=int, default=None, metavar="N",
        help="cap the relaxation schedule",
    )
    query.add_argument(
        "--show-text", action="store_true",
        help="print a text snippet for each answer",
    )
    query.add_argument(
        "--no-cache", action="store_true",
        help="disable the evaluation and result caches for this run",
    )
    query.add_argument(
        "--batch", action="store_true",
        help="treat QUERY as a file of queries (one per line, # comments"
        " skipped) evaluated as a batch through query_many",
    )
    query.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="thread-pool width for --batch (default 4)",
    )
    query.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="per-query evaluation budget; queries past it abort with"
        " a timeout error",
    )
    query.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="scatter a file over N in-process shards (a directory must"
        " hold N shards); answers and scores equal unsharded ones",
    )

    exact = commands.add_parser("exact", help="strict evaluation, no relaxation")
    exact.add_argument("file")
    exact.add_argument("query")

    explain = commands.add_parser("explain", help="show the relaxation schedule")
    explain.add_argument("file")
    explain.add_argument("query")
    explain.add_argument("-k", type=int, default=10)
    explain.add_argument(
        "--analyze", action="store_true",
        help="actually run the query (--algorithm, --scheme) with tracing"
        " and print the per-phase time and counter breakdown",
    )
    explain.add_argument(
        "--json", action="store_true",
        help="run the query traced and print the trace as JSON"
        " (QueryTrace.as_dict()); implies --analyze",
    )
    _ranking_flags(explain)

    search = commands.add_parser("search", help="content-only keyword search")
    search.add_argument("file")
    search.add_argument("ftexpr", help='full-text expression, e.g. \'"a" and "b"\'')
    search.add_argument("-k", type=int, default=10)

    generate = commands.add_parser("generate", help="emit XMark-like data")
    generate.add_argument("--size-kb", type=int, default=100)
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument("-o", "--output", default=None, help="file (default stdout)")

    stats = commands.add_parser(
        "stats", help="corpus status line and document statistics"
    )
    stats.add_argument("file")
    stats.add_argument(
        "--tags", type=int, default=15, metavar="N",
        help="show the N most frequent tags",
    )

    dump = commands.add_parser(
        "dump", help="convert a document to a binary dump file"
    )
    dump.add_argument("file", help="XML document (or an existing dump)")
    dump.add_argument("output", help="dump file to write")

    metrics = commands.add_parser(
        "metrics",
        help="run a workload and dump the process metrics registry",
    )
    metrics.add_argument("file", help="XML document (or a dump)")
    metrics.add_argument(
        "--workload", default=None, metavar="WL",
        help="file with one query per line (blank lines and # comments"
        " skipped); default: auto-generate from the document",
    )
    metrics.add_argument(
        "--count", type=int, default=10, metavar="N",
        help="queries to auto-generate when no workload file is given",
    )
    metrics.add_argument("-k", type=int, default=10, help="answers per query")
    _ranking_flags(metrics)
    metrics.add_argument(
        "--seed", type=int, default=0,
        help="seed for the auto-generated workload",
    )
    metrics.add_argument(
        "--json", action="store_true",
        help="dump the registry as JSON (default: Prometheus text format)",
    )
    metrics.add_argument(
        "--slow-ms", type=float, default=None, metavar="MS",
        help="also enable the slow-query log at this threshold",
    )
    metrics.add_argument(
        "--no-cache", action="store_true",
        help="disable the evaluation and result caches for the workload",
    )

    serve = commands.add_parser(
        "serve-metrics",
        help="serve the observability HTTP endpoint for a corpus or document",
    )
    serve.add_argument(
        "file", help="XML document, dump, or on-disk corpus directory"
    )
    serve.add_argument(
        "--port", type=int, default=0,
        help="port to bind (default 0 = ephemeral; the bound port is printed)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default loopback)",
    )
    serve.add_argument(
        "--query", default=None, metavar="Q",
        help="evaluate one query on startup, so hydration and query metrics"
        " are warm before the first scrape",
    )
    serve.add_argument("-k", type=int, default=10, help="answers for --query")
    serve.add_argument(
        "--slow-ms", type=float, default=None, metavar="MS",
        help="also enable the slow-query log at this threshold (rendered"
        " on /statusz)",
    )
    serve.add_argument(
        "--duration", type=float, default=None, metavar="S",
        help="serve for S seconds then exit (default: until interrupted)",
    )

    ingest = commands.add_parser(
        "ingest",
        help="append documents to an on-disk corpus (created if missing"
        " or empty)",
    )
    ingest.add_argument("corpus", help="corpus directory")
    ingest.add_argument(
        "files", nargs="+", help="XML documents or dumps to append"
    )
    ingest.add_argument(
        "--compact", action="store_true",
        help="fold the WAL into a sealed segment after ingesting",
    )

    compact = commands.add_parser(
        "compact",
        help="fold an on-disk corpus' WAL tail into a sealed segment"
        " (every shard's, for a sharded corpus directory)",
    )
    compact.add_argument("corpus", help="corpus directory")
    compact.set_defaults(files=[], compact=True)

    return parser


def main(argv=None, out=None):
    """Entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args, out)
    except (FleXPathError, OSError) as error:
        print("error: %s" % error, file=sys.stderr)
        return 1


def _dispatch(args, out):
    if args.command == "generate":
        return _cmd_generate(args, out)
    if args.command == "dump":
        return _cmd_dump(args, out)
    if args.command in ("ingest", "compact"):
        return _cmd_ingest(args, out)
    return _READ_COMMANDS[args.command](_open_engine(args), args, out)


def _open_engine(args):
    """The engine a read command serves, over what ``open_path`` opens.

    ``--shards N`` scatters a file over N in-memory shards; on a directory
    it only checks that the corpus there has N shards.
    """
    options = {"cache": not getattr(args, "no_cache", False)}
    shards = getattr(args, "shards", None)
    if shards is not None and shards < 1:
        raise FleXPathError("--shards must be >= 1")
    if shards is not None and os.path.isfile(args.file):
        # One document still runs the full scatter-gather path; multi-document
        # corpora route across shards via ingest.
        engine = Engine.sharded(shards, **options)
        engine.backend.add_document(
            read_document(args.file), name=os.path.basename(args.file)
        )
        return engine
    backend = open_path(args.file)
    if shards is not None and getattr(backend, "shard_count", None) != shards:
        backend.close()
        raise FleXPathError("%s does not hold %d shards" % (args.file, shards))
    return Engine(backend, **options)


def _status_line(path, backend):
    """A corpus directory's one-line status, disk or sharded."""
    info = backend.describe()
    line = "corpus %s: %d document(s), %d nodes, version %d" % (
        path, info["documents"], info["nodes"], info["version"],
    )
    if "shards" in info:
        return line + ", %d shard(s)" % info["shards"]
    return line + ", generation %d, %d in WAL" % (
        info["generation"], info["wal_documents"],
    )


def _read_queries(path):
    """The queries in ``path``, one per line; blanks and ``#`` lines skipped."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.strip() for line in handle]
    return [line for line in lines if line and not line.startswith("#")]


def _print_answers(engine, result, show_text, out):
    # A sharded engine has no unified document; its backend renders text.
    source = engine.document if engine.document is not None else engine.backend
    for rank, answer in enumerate(result.answers, start=1):
        line = "%3d. node %-6d <%s>  ss=%.3f ks=%.3f level=%d" % (
            rank,
            answer.node_id,
            answer.node.tag,
            answer.score.structural,
            answer.score.keyword,
            answer.relaxation_level,
        )
        if show_text:
            text = source.full_text(answer.node)
            if len(text) > 60:
                text = text[:57] + "..."
            line += "  | %s" % text
        print(line, file=out)


def _cmd_query(engine, args, out):
    if args.deadline_ms is not None and args.deadline_ms <= 0:
        raise FleXPathError("--deadline-ms must be positive")
    if args.batch:
        return _cmd_query_batch(engine, args, out)
    result = engine.query(
        args.query,
        k=args.k,
        scheme=args.scheme,
        algorithm=args.algorithm,
        max_relaxations=args.max_relaxations,
        deadline_ms=args.deadline_ms,
    )
    print(
        "# %s, %s, K=%d, relaxations used: %d"
        % (result.algorithm, result.scheme.name, args.k, result.relaxations_used),
        file=out,
    )
    _print_answers(engine, result, args.show_text, out)
    return 0


def _cmd_query_batch(engine, args, out):
    if args.workers < 1:
        raise FleXPathError("--workers must be >= 1")
    queries = _read_queries(args.query)
    if not queries:
        raise FleXPathError("batch file %r contains no queries" % args.query)
    results = engine.query_many(
        queries,
        k=args.k,
        scheme=args.scheme,
        algorithm=args.algorithm,
        max_relaxations=args.max_relaxations,
        workers=args.workers,
        deadline_ms=args.deadline_ms,
    )
    print(
        "# %d quer(ies), %s, K=%d, workers=%d"
        % (len(queries), args.algorithm, args.k, args.workers),
        file=out,
    )
    for text, result in zip(queries, results):
        print("", file=out)
        print(
            "%s  ->  %d answer(s), relaxations used: %d"
            % (text, len(result.answers), result.relaxations_used),
            file=out,
        )
        _print_answers(engine, result, args.show_text, out)
    return 0


def _cmd_explain(engine, args, out):
    if not args.json:
        print(engine.explain(args.query, k=args.k, scheme=args.scheme), file=out)
        if not args.analyze:
            return 0
    trace = engine.query(
        args.query,
        k=args.k,
        scheme=args.scheme,
        algorithm=args.algorithm,
        trace=True,
    )
    if args.json:
        print(json.dumps(trace.as_dict(), indent=2), file=out)
        return 0
    print("", file=out)
    compile_ms = trace.spans.get("compile", {}).get("seconds", 0.0) * 1e3
    execute_ms = trace.spans.get("execute", {}).get("seconds", 0.0) * 1e3
    print(
        "compile: %.3f ms   execute: %.3f ms" % (compile_ms, execute_ms),
        file=out,
    )
    print("", file=out)
    print(trace.format(), file=out)
    return 0


def _cmd_exact(engine, args, out):
    nodes = engine.exact(args.query)
    print("# %d exact match(es)" % len(nodes), file=out)
    for node in nodes:
        print("node %-6d <%s>" % (node.node_id, node.tag), file=out)
    return 0


def _cmd_search(engine, args, out):
    from repro.ir.ftexpr import parse_ftexpr
    from repro.ir.highlight import snippet as make_snippet

    if engine.document is None:
        raise FleXPathError(
            "`search` needs a unified node table; run it per shard directory"
        )
    expression = parse_ftexpr(args.ftexpr)
    matches = engine.keyword_search(args.ftexpr, k=args.k)
    print("# %d most specific match(es)" % len(matches), file=out)
    for rank, match in enumerate(matches, start=1):
        text = engine.document.full_text(match.node)
        print(
            "%3d. node %-6d <%s>  score=%.3f  | %s"
            % (
                rank,
                match.node.node_id,
                match.node.tag,
                match.score,
                make_snippet(text, expression, width=60),
            ),
            file=out,
        )
    return 0


def _cmd_generate(args, out):
    document = generate_document(
        target_bytes=args.size_kb * 1024, seed=args.seed
    )
    text = to_xml(document)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(
            "wrote %d elements (%d bytes) to %s"
            % (len(document), len(text), args.output),
            file=out,
        )
    else:
        out.write(text)
    return 0


def _cmd_dump(args, out):
    document = read_document(args.file)
    dump_document(document, args.output)
    print("wrote %d nodes to %s" % (len(document), args.output), file=out)
    return 0


def _cmd_stats(engine, args, out):
    if os.path.isdir(args.file):
        print(_status_line(args.file, engine.backend), file=out)
    document = engine.document
    if document is None:
        return 0  # a sharded corpus has no unified node table to summarize
    summary = document.stats_summary()
    print(
        "elements: %(nodes)d   distinct tags: %(tags)d   depth: %(depth)d"
        "   text bytes: %(text_bytes)d" % summary,
        file=out,
    )
    counts = sorted(
        ((document.count(tag), tag) for tag in document.tags), reverse=True
    )
    print("\nmost frequent tags:", file=out)
    for count, tag in counts[: args.tags]:
        print("  %-20s %6d" % (tag, count), file=out)
    return 0


def _cmd_metrics(engine, args, out):
    from repro.obs.metrics import get_registry
    from repro.obs.slowlog import SlowQueryLog
    from repro.workload import generate_workload

    if args.workload:
        queries = _read_queries(args.workload)
    elif engine.document is None:
        raise FleXPathError(
            "`metrics` needs a unified node table to generate a workload;"
            " pass --workload FILE for a sharded corpus"
        )
    else:
        queries = generate_workload(
            engine.document, args.count, seed=args.seed
        )
    registry = get_registry()
    registry.reset()  # the dump should describe this workload run only
    slowlog = None
    if args.slow_ms is not None:
        slowlog = SlowQueryLog(slow_ms=args.slow_ms).install()
    failures = 0
    try:
        for item in queries:
            try:
                engine.query(
                    item, k=args.k,
                    scheme=args.scheme, algorithm=args.algorithm,
                )
            except FleXPathError:
                failures += 1
    finally:
        if slowlog is not None:
            slowlog.uninstall()
    if args.json:
        print(json.dumps(registry.as_dict(), indent=2), file=out)
    else:
        out.write(registry.expose_text())
    if failures:
        print(
            "# %d of %d workload quer(ies) failed" % (failures, len(queries)),
            file=sys.stderr,
        )
    return 0


def _cmd_serve_metrics(engine, args, out):
    import time

    from repro.obs.slowlog import disable_slow_query_log, enable_slow_query_log

    if args.duration is not None and args.duration <= 0:
        raise FleXPathError("--duration must be positive")
    if args.slow_ms is not None:
        enable_slow_query_log(args.slow_ms)
    if args.query:
        engine.query(args.query, k=args.k)
    server = engine.serve_metrics(port=args.port, host=args.host)
    print(
        "serving metrics at %s (routes: /metrics /metrics.json /healthz"
        " /statusz)" % server.url,
        file=out,
    )
    out.flush()
    try:
        if args.duration is not None:
            time.sleep(args.duration)
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        if args.slow_ms is not None:
            disable_slow_query_log()
    return 0


def _cmd_ingest(args, out):
    """``ingest DIR FILE...`` and ``compact DIR``: append each file to the
    corpus directory (a sharded one routes it to its shard), seal the WAL
    tail when asked, and print the directory's status line."""
    if os.path.isfile(args.corpus):
        raise FleXPathError("no corpus directory at %s: a file" % args.corpus)
    if args.command == "ingest" and not (
        os.path.isdir(args.corpus) and os.listdir(args.corpus)
    ):
        # Only ingest starts a corpus, in a missing or empty directory.
        backend = DiskBackend.create(args.corpus)
    else:
        backend = open_path(args.corpus)
    try:
        for path in args.files:
            document = read_document(path)
            backend.add_document(document, name=os.path.basename(path))
            print("ingested %s (%d nodes)" % (path, len(document)), file=out)
        if args.compact:
            # One generation for a disk corpus, one per shard for a sharded one.
            print(
                "compacted %s to generation %s"
                % (args.corpus, backend.compact()),
                file=out,
            )
        print(_status_line(args.corpus, backend), file=out)
    finally:
        backend.close()
    return 0


_READ_COMMANDS = {
    "query": _cmd_query,
    "exact": _cmd_exact,
    "explain": _cmd_explain,
    "search": _cmd_search,
    "stats": _cmd_stats,
    "metrics": _cmd_metrics,
    "serve-metrics": _cmd_serve_metrics,
}


if __name__ == "__main__":
    sys.exit(main())
