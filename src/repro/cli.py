"""Command-line interface: ``python -m repro <command> ...``.

Commands:

- ``query FILE QUERY``    top-K flexible evaluation
- ``exact FILE QUERY``    strict XPath-fragment semantics, no relaxation
- ``explain FILE QUERY``  show the relaxation schedule and plan choice
- ``search FILE FTEXPR``  content-only keyword search (no structure)
- ``generate``            emit an XMark-like document to stdout or a file
- ``stats FILE``          document and tag statistics
- ``dump FILE OUT``       convert a document to a binary dump file
- ``metrics FILE``        run a workload and dump the metrics registry
- ``serve-metrics FILE``  serve /metrics, /healthz, /statusz over HTTP
- ``ingest DIR FILE...``  append documents to an on-disk corpus (WAL-durable)
- ``compact DIR``         fold an on-disk corpus' WAL into a sealed segment
                          (every shard's, for a sharded corpus)
- ``open --path DIR``     open an on-disk corpus; show status or run a query

``FILE`` may be either an XML file or a dump written by ``dump`` (sniffed
by its magic bytes) — dumps skip the XML parser entirely on load.  For
the query-style commands it may also be an on-disk corpus *directory*
(created with ``ingest``), which opens via mmap with no parsing at all.

Examples::

    python -m repro generate --size-kb 200 --seed 7 -o auctions.xml
    python -m repro query auctions.xml '//item[./description/parlist]' -k 5
    python -m repro explain auctions.xml '//item[./mailbox/mail/text]'
    python -m repro explain --analyze --json auctions.xml '//item[./description]'
    python -m repro search auctions.xml '"gold" and "vintage"' -k 3
    python -m repro metrics auctions.xml --count 20 --json
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.engine import Engine
from repro.errors import FleXPathError
from repro.xmark import generate_document
from repro.xmltree.serialize import to_xml
from repro.xmltree.storage import DUMP_MAGIC, dump_document, load_document


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FleXPath: flexible structure and full-text querying for XML",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    query = commands.add_parser("query", help="top-K flexible evaluation")
    query.add_argument("file", help="XML document")
    query.add_argument("query", help="XPath-fragment query")
    query.add_argument("-k", type=int, default=10, help="answers to return")
    query.add_argument(
        "--algorithm",
        choices=("dpo", "sso", "hybrid", "naive", "ir-first"),
        default="hybrid",
    )
    query.add_argument(
        "--scheme",
        choices=("structure-first", "keyword-first", "combined"),
        default="structure-first",
    )
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
        help="partition the corpus across N in-process shards and evaluate"
        " scatter-gather (answers and scores identical to unsharded)",
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
        help="actually run the query with tracing and print the per-phase"
        " time and counter breakdown",
    )
    explain.add_argument(
        "--json", action="store_true",
        help="with --analyze, print the trace as JSON"
        " (QueryTrace.as_dict()) instead of the human rendering",
    )
    explain.add_argument(
        "--algorithm",
        choices=("dpo", "sso", "hybrid", "naive", "ir-first"),
        default="hybrid",
        help="algorithm to analyze (only with --analyze)",
    )
    explain.add_argument(
        "--scheme",
        choices=("structure-first", "keyword-first", "combined"),
        default="structure-first",
        help="ranking scheme to analyze (only with --analyze)",
    )

    search = commands.add_parser("search", help="content-only keyword search")
    search.add_argument("file")
    search.add_argument("ftexpr", help='full-text expression, e.g. \'"a" and "b"\'')
    search.add_argument("-k", type=int, default=10)

    generate = commands.add_parser("generate", help="emit XMark-like data")
    generate.add_argument("--size-kb", type=int, default=100)
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument("-o", "--output", default=None, help="file (default stdout)")

    stats = commands.add_parser("stats", help="document statistics")
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
    metrics.add_argument(
        "--algorithm",
        choices=("dpo", "sso", "hybrid", "naive", "ir-first"),
        default="hybrid",
    )
    metrics.add_argument(
        "--scheme",
        choices=("structure-first", "keyword-first", "combined"),
        default="structure-first",
    )
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
        help="append documents to an on-disk corpus (created if missing)",
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

    opencmd = commands.add_parser(
        "open",
        help="open an on-disk corpus: show status, or run one query",
    )
    opencmd.add_argument(
        "--path", required=True, metavar="DIR", help="corpus directory"
    )
    opencmd.add_argument(
        "--query", default=None, metavar="Q",
        help="XPath-fragment query to evaluate (default: just show status)",
    )
    opencmd.add_argument("-k", type=int, default=10, help="answers to return")
    opencmd.add_argument(
        "--algorithm",
        choices=("dpo", "sso", "hybrid", "naive", "ir-first"),
        default="hybrid",
    )
    opencmd.add_argument(
        "--scheme",
        choices=("structure-first", "keyword-first", "combined"),
        default="structure-first",
    )

    return parser


def main(argv=None, out=None):
    """Entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args, out)
    except FleXPathError as error:
        print("error: %s" % error, file=sys.stderr)
        return 1
    except OSError as error:
        print("error: %s" % error, file=sys.stderr)
        return 1


def _is_dump(path):
    """True if ``path`` starts with the dump file magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(DUMP_MAGIC)) == DUMP_MAGIC
    except OSError:
        return False


def _load_document(path):
    """Parse an XML file, or load it directly when it is a dump."""
    if _is_dump(path):
        return load_document(path)
    from repro.xmltree.parser import parse_file

    return parse_file(path)


def _dispatch(args, out):
    if args.command == "generate":
        return _cmd_generate(args, out)
    if args.command == "dump":
        return _cmd_dump(args, out)
    if args.command == "ingest":
        return _cmd_ingest(args, out)
    if args.command == "compact":
        return _cmd_compact(args, out)
    if args.command == "open":
        return _cmd_open(args, out)
    import os

    shards = getattr(args, "shards", None)
    if shards is not None and shards < 1:
        raise FleXPathError("--shards must be >= 1")
    if os.path.isdir(args.file):
        # A corpus directory: serve it straight off the mmap'd segments.
        # A sharded layout (shard-0000/ ...) opens as a ShardedBackend,
        # anything else as a single DiskBackend.
        from repro.backend.sharded import ShardedBackend

        if ShardedBackend.shard_count_at(args.file):
            source = ShardedBackend.open(args.file, shard_count=shards)
        else:
            from repro.backend.disk import DiskBackend

            source = DiskBackend.open(args.file)
    elif shards is not None:
        # One parsed document still exercises the full scatter-gather
        # path; multi-document corpora route across shards via ingest.
        from repro.backend.sharded import ShardedBackend

        source = ShardedBackend.in_memory(shards)
        source.add_document(
            _load_document(args.file), name=os.path.basename(args.file)
        )
    else:
        source = _load_document(args.file)
    engine = Engine(
        source,
        cache=not getattr(args, "no_cache", False),
    )
    if args.command == "query":
        return _cmd_query(engine, args, out)
    if args.command == "exact":
        return _cmd_exact(engine, args, out)
    if args.command == "explain":
        return _cmd_explain(engine, args, out)
    if args.command == "search":
        return _cmd_search(engine, args, out)
    if args.command == "stats":
        return _cmd_stats(engine, args, out)
    if args.command == "metrics":
        return _cmd_metrics(engine, args, out)
    if args.command == "serve-metrics":
        return _cmd_serve_metrics(engine, args, out)
    raise FleXPathError("unknown command %r" % args.command)


def _snippet(source, node, width=60):
    text = source.full_text(node)
    if len(text) > width:
        text = text[: width - 3] + "..."
    return text


def _text_source(engine):
    """Whatever renders answer snippets: the unified document, or — when
    serving a sharded corpus (no unified node table) — the backend itself,
    whose ``full_text`` resolves a GlobalNode through its owning shard."""
    if engine.document is not None:
        return engine.document
    return engine.backend


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
    for rank, answer in enumerate(result.answers, start=1):
        line = "%3d. node %-6d <%s>  ss=%.3f ks=%.3f level=%d" % (
            rank,
            answer.node_id,
            answer.node.tag,
            answer.score.structural,
            answer.score.keyword,
            answer.relaxation_level,
        )
        if args.show_text:
            line += "  | %s" % _snippet(_text_source(engine), answer.node)
        print(line, file=out)
    return 0


def _cmd_query_batch(engine, args, out):
    if args.workers < 1:
        raise FleXPathError("--workers must be >= 1")
    with open(args.query, "r", encoding="utf-8") as handle:
        lines = [line.strip() for line in handle]
    queries = [line for line in lines if line and not line.startswith("#")]
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
        for rank, answer in enumerate(result.answers, start=1):
            line = "%3d. node %-6d <%s>  ss=%.3f ks=%.3f level=%d" % (
                rank,
                answer.node_id,
                answer.node.tag,
                answer.score.structural,
                answer.score.keyword,
                answer.relaxation_level,
            )
            if args.show_text:
                line += "  | %s" % _snippet(_text_source(engine), answer.node)
            print(line, file=out)
    return 0


def _cmd_explain(engine, args, out):
    if args.analyze and args.json:
        trace = engine.query(
            args.query,
            k=args.k,
            scheme=args.scheme,
            algorithm=args.algorithm,
            trace=True,
        )
        print(json.dumps(trace.as_dict(), indent=2), file=out)
        return 0
    print(engine.explain(args.query, k=args.k, scheme=args.scheme), file=out)
    if args.analyze:
        trace = engine.query(
            args.query,
            k=args.k,
            scheme=args.scheme,
            algorithm=args.algorithm,
            trace=True,
        )
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
    document = _load_document(args.file)
    dump_document(document, args.output)
    print("wrote %d nodes to %s" % (len(document), args.output), file=out)
    return 0


def _cmd_stats(engine, args, out):
    document = engine.document
    if document is None:
        raise FleXPathError(
            "`stats` needs a unified node table; run it per shard directory"
        )
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
        with open(args.workload, "r", encoding="utf-8") as handle:
            lines = [line.strip() for line in handle]
        queries = [line for line in lines if line and not line.startswith("#")]
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


def _open_disk_backend(path, create=False):
    import os

    from repro.backend.disk import DiskBackend

    if os.path.exists(os.path.join(path, "MANIFEST.json")):
        return DiskBackend.open(path)
    if create:
        return DiskBackend.create(path)
    raise FleXPathError("no on-disk corpus at %s (run `ingest` first)" % path)


def _cmd_ingest(args, out):
    import os

    backend = _open_disk_backend(args.corpus, create=True)
    try:
        for path in args.files:
            document = _load_document(path)
            backend.add_document(document, name=os.path.basename(path))
            print(
                "ingested %s (%d nodes)" % (path, len(document)), file=out
            )
        if args.compact:
            generation = backend.compact()
            print("compacted to generation %d" % generation, file=out)
        info = backend.describe()
        print(
            "corpus %s: %d document(s), %d nodes, version %d,"
            " generation %d, %d in WAL"
            % (
                info["path"],
                info["documents"],
                info["nodes"],
                info["version"],
                info["generation"],
                info["wal_documents"],
            ),
            file=out,
        )
    finally:
        backend.close()
    return 0


def _cmd_compact(args, out):
    import os

    from repro.backend.sharded import ShardedBackend

    if os.path.isdir(args.corpus) and ShardedBackend.shard_count_at(args.corpus):
        backend = ShardedBackend.open(args.corpus)
    else:
        backend = _open_disk_backend(args.corpus)
    try:
        # One generation for a disk corpus, one per shard for a sharded one.
        generation = backend.compact()
        info = backend.describe()
        print(
            "compacted %s to generation %s (%d document(s), %d nodes)"
            % (args.corpus, generation, info["documents"], info["nodes"]),
            file=out,
        )
    finally:
        backend.close()
    return 0


def _cmd_open(args, out):
    backend = _open_disk_backend(args.path)
    try:
        info = backend.describe()
        print(
            "corpus %s: %d document(s), %d nodes, version %d,"
            " generation %d, %d in WAL"
            % (
                info["path"],
                info["documents"],
                info["nodes"],
                info["version"],
                info["generation"],
                info["wal_documents"],
            ),
            file=out,
        )
        if args.query is None:
            return 0
        engine = Engine(backend)
        result = engine.query(
            args.query, k=args.k, scheme=args.scheme, algorithm=args.algorithm
        )
        print(
            "# %s, %s, K=%d, relaxations used: %d"
            % (
                result.algorithm,
                result.scheme.name,
                args.k,
                result.relaxations_used,
            ),
            file=out,
        )
        for rank, answer in enumerate(result.answers, start=1):
            print(
                "%3d. node %-6d <%s>  ss=%.3f ks=%.3f level=%d" % (
                    rank,
                    answer.node_id,
                    answer.node.tag,
                    answer.score.structural,
                    answer.score.keyword,
                    answer.relaxation_level,
                ),
                file=out,
            )
    finally:
        backend.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
