"""The command-line interface."""

import io

import pytest

from repro.cli import main
from tests.conftest import LIBRARY_XML


@pytest.fixture()
def xml_file(tmp_path):
    path = tmp_path / "library.xml"
    path.write_text(LIBRARY_XML)
    return str(path)


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestQuery:
    def test_basic(self, xml_file):
        code, output = run(["query", xml_file, "//article", "-k", "2"])
        assert code == 0
        assert output.count("<article>") == 2
        assert "Hybrid" in output

    def test_algorithm_and_scheme_flags(self, xml_file):
        code, output = run(
            [
                "query", xml_file, "//article", "-k", "1",
                "--algorithm", "dpo", "--scheme", "combined",
            ]
        )
        assert code == 0
        assert "DPO" in output and "combined" in output

    def test_show_text(self, xml_file):
        code, output = run(
            ["query", xml_file, "//article", "-k", "1", "--show-text"]
        )
        assert code == 0
        assert "|" in output

    def test_relaxation_cap(self, xml_file):
        code, output = run(
            [
                "query", xml_file,
                '//article[./section[./paragraph and .contains("XML")]]',
                "-k", "9", "--max-relaxations", "0",
            ]
        )
        assert code == 0
        assert "relaxations used: 0" in output

    def test_shards_matches_unsharded_scores(self, xml_file):
        query = '//article[./section[./paragraph and .contains("XML")]]'
        code, sharded = run(
            ["query", xml_file, query, "-k", "3", "--shards", "2",
             "--show-text"]
        )
        assert code == 0
        flat_code, flat = run(
            ["query", xml_file, query, "-k", "3", "--show-text"]
        )
        assert flat_code == 0

        def scores(output):
            return [
                line.split("ss=", 1)[1]
                for line in output.splitlines()
                if "ss=" in line
            ]

        assert scores(sharded) == scores(flat)

    def test_shards_must_be_positive(self, xml_file, capsys):
        code, _output = run(["query", xml_file, "//article", "--shards", "0"])
        assert code == 1
        assert "--shards" in capsys.readouterr().err

    def test_sharded_corpus_directory(self, tmp_path):
        from repro import Engine, RoundRobinRouter
        from repro.xmltree import parse

        path = str(tmp_path / "corpus")
        engine = Engine.sharded(
            shard_count=2, router=RoundRobinRouter(), path=path
        )
        for index in range(4):
            engine.backend.add_document(
                parse("<root><a>gold %d</a></root>" % index),
                name="doc%d" % index,
            )
        engine.backend.close()
        code, output = run(
            ["query", path, '//a[.contains("gold")]', "-k", "2"]
        )
        assert code == 0
        assert output.count("<a>") == 2
        # --shards reaches the sharded open: a contradicting count refuses.
        code, _output = run(["query", path, "//a", "--shards", "3"])
        assert code == 1

    def test_compact_a_sharded_corpus_directory(self, tmp_path):
        from repro import Engine
        from repro.backend.sharded import ShardedBackend
        from repro.xmltree import parse

        path = str(tmp_path / "corpus")
        engine = Engine.sharded(shard_count=2, path=path)
        for index in range(4):
            engine.backend.add_document(
                parse("<root><a>gold %d</a></root>" % index),
                name="doc%d" % index,
            )
        engine.backend.close()
        code, output = run(["compact", path])
        assert code == 0
        assert "to generation [2, 2] (4 document(s)" in output
        backend = ShardedBackend.open(path)
        try:
            assert [shard.wal_documents for shard in backend.shards] == [0, 0]
        finally:
            backend.close()

    def test_bad_query_is_an_error(self, xml_file):
        code, _output = run(["query", xml_file, "not a query"])
        assert code == 1

    def test_missing_file_is_an_error(self):
        code, _output = run(["query", "/nonexistent.xml", "//a"])
        assert code == 1

    def test_generous_deadline_succeeds(self, xml_file):
        code, output = run(
            ["query", xml_file, "//article", "-k", "2", "--deadline-ms", "60000"]
        )
        assert code == 0
        assert "<article>" in output

    def test_nonpositive_deadline_is_an_error(self, xml_file, capsys):
        code, _output = run(
            ["query", xml_file, "//article", "--deadline-ms", "0"]
        )
        assert code == 1
        assert "--deadline-ms must be positive" in capsys.readouterr().err


class TestQueryBatch:
    @pytest.fixture()
    def batch_file(self, tmp_path):
        path = tmp_path / "queries.txt"
        path.write_text(
            "//article\n"
            "# a comment line\n"
            "\n"
            "//section\n"
        )
        return str(path)

    def test_batch_runs_every_query_in_order(self, xml_file, batch_file):
        code, output = run(
            ["query", xml_file, batch_file, "--batch", "--workers", "2", "-k", "2"]
        )
        assert code == 0
        assert "# 2 quer(ies)" in output and "workers=2" in output
        assert output.index("//article") < output.index("//section")
        assert "<article>" in output and "<section>" in output

    def test_batch_matches_single_query_answers(self, xml_file, batch_file):
        _code, batch_output = run(
            ["query", xml_file, batch_file, "--batch", "-k", "2"]
        )
        _code, single_output = run(["query", xml_file, "//article", "-k", "2"])
        for line in single_output.splitlines():
            if line.strip().startswith("1.") or line.strip().startswith("2."):
                assert line in batch_output

    def test_empty_batch_file_is_an_error(self, xml_file, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# only comments\n")
        code, _output = run(["query", xml_file, str(path), "--batch"])
        assert code == 1

    def test_bad_workers_is_a_clean_error(self, xml_file, batch_file, capsys):
        code, _output = run(
            ["query", xml_file, batch_file, "--batch", "--workers", "0"]
        )
        assert code == 1
        assert "--workers must be >= 1" in capsys.readouterr().err

    def test_batch_with_deadline(self, xml_file, batch_file):
        code, output = run(
            [
                "query", xml_file, batch_file, "--batch",
                "--workers", "2", "--deadline-ms", "60000",
            ]
        )
        assert code == 0
        assert "# 2 quer(ies)" in output


class TestOtherCommands:
    def test_exact(self, xml_file):
        code, output = run(["exact", xml_file, "//section"])
        assert code == 0
        assert "4 exact match(es)" in output

    def test_explain(self, xml_file):
        code, output = run(
            ["explain", xml_file, "//article[./section/paragraph]"]
        )
        assert code == 0
        assert "level 0" in output

    def test_search(self, xml_file):
        code, output = run(["search", xml_file, '"streaming"', "-k", "3"])
        assert code == 0
        assert "score=" in output

    def test_stats(self, xml_file):
        code, output = run(["stats", xml_file])
        assert code == 0
        assert "distinct tags" in output
        assert "article" in output

    def test_generate_to_file(self, tmp_path):
        target = str(tmp_path / "generated.xml")
        code, output = run(
            ["generate", "--size-kb", "10", "--seed", "2", "-o", target]
        )
        assert code == 0
        assert "wrote" in output
        from repro.xmltree import parse_file

        doc = parse_file(target)
        assert doc.root.tag == "site"

    def test_dump_then_query_the_dump(self, xml_file, tmp_path):
        dump = str(tmp_path / "library.fxd")
        code, output = run(["dump", xml_file, dump])
        assert code == 0
        assert "wrote" in output
        query = '//article[./section[./paragraph and .contains("XML")]]'
        assert run(["query", dump, query, "-k", "3"]) == run(
            ["query", xml_file, query, "-k", "3"]
        )

    def test_generate_to_stdout(self):
        code, output = run(["generate", "--size-kb", "5", "--seed", "2"])
        assert code == 0
        assert output.startswith("<site>")

    def test_no_command_exits_with_usage(self):
        with pytest.raises(SystemExit):
            run([])


class TestExplainJson:
    def test_analyze_json_is_valid_trace_json(self, xml_file):
        import json

        code, output = run(
            [
                "explain", xml_file, "//article[./section/paragraph]",
                "--analyze", "--json", "-k", "3",
            ]
        )
        assert code == 0
        payload = json.loads(output)
        assert payload["algorithm"]
        assert payload["levels"]
        assert payload["phases"]
        assert "total_seconds" in payload

    def test_json_without_analyze_keeps_human_rendering(self, xml_file):
        code, output = run(
            ["explain", xml_file, "//article[./section/paragraph]", "--json"]
        )
        assert code == 0
        assert "level 0" in output

    def test_analyze_reports_compile_and_execute_timings(self, xml_file):
        code, output = run(
            [
                "explain", xml_file, "//article[./section/paragraph]",
                "--analyze", "-k", "3",
            ]
        )
        assert code == 0
        assert "compile:" in output and "execute:" in output
        assert output.index("compile:") < output.index("phase breakdown")

    def test_analyze_prints_physical_operators(self, xml_file):
        code, output = run(
            [
                "explain", xml_file, "//article[./section/paragraph]",
                "--analyze", "-k", "3",
            ]
        )
        assert code == 0
        # Per-level operator lines: chosen physical operator with the
        # estimated cardinality next to the observed one.
        assert "seed-scan" in output
        assert "est=" in output
        assert "act=" in output

    def test_analyze_json_includes_operator_estimates(self, xml_file):
        import json

        code, output = run(
            [
                "explain", xml_file, "//article[./section/paragraph]",
                "--analyze", "--json", "-k", "3",
            ]
        )
        assert code == 0
        payload = json.loads(output)
        operator_lists = [level["operators"] for level in payload["levels"]]
        assert any(operator_lists)
        seen_kinds = set()
        for operators in operator_lists:
            for op in operators:
                assert set(op) >= {"kind", "var", "detail", "estimate",
                                   "actual"}
                seen_kinds.add(op["kind"])
        assert "seed-scan" in seen_kinds

    def test_analyze_never_prints_an_estimate_nobody_made(self, xml_file):
        """A ``contains-filter`` used to read ``est=0.0  act=2``."""
        import json

        from tests.plans.test_physical import unfounded_zero_estimates

        argv = [
            "explain", xml_file,
            '//article[./section/paragraph[.contains("streaming")]]',
            "--analyze", "--algorithm", "dpo", "-k", "3",
        ]
        code, output = run(argv)
        assert code == 0
        filters = [line for line in output.splitlines()
                   if "contains-filter" in line]
        assert filters and all("est=- " in line for line in filters)
        assert any("act=0" not in line for line in filters)
        code, output = run(argv + ["--json"])
        assert code == 0
        for level in json.loads(output)["levels"]:
            assert unfounded_zero_estimates(level["operators"]) == []
            for op in level["operators"]:
                if op["kind"] == "contains-filter":
                    assert op["estimate"] is None


class TestExplainAnalyzeWarm:
    QUERY = '//article[./section[./paragraph and ./title and .contains("XML")]]'

    def test_cache_hit_levels_print_the_cold_actuals(self, xml_file, monkeypatch):
        """Every twig actual is read off its subtree table, hit or resolved:
        a DPO run whose tables are all cached prints what a cold one does."""
        import json

        from repro import Engine, cli

        query = self.QUERY
        argv = [
            "explain", xml_file, query, "--analyze", "--algorithm", "dpo",
            "-k", "3",
        ]
        code, cold = run(argv)
        assert code == 0
        code, cold_json = run(argv + ["--json"])
        assert code == 0

        def warmed(source, **options):
            engine = Engine(source, **options)
            engine.query(query, k=3, algorithm="dpo")
            return engine

        monkeypatch.setattr(cli, "Engine", warmed)
        code, warm = run(argv)
        assert code == 0
        code, warm_json = run(argv + ["--json"])
        assert code == 0

        cold_json, warm_json = json.loads(cold_json), json.loads(warm_json)
        assert cold_json["counters"]["eval_cache.subtree.misses"] > 0
        assert "eval_cache.subtree.misses" not in warm_json["counters"]
        assert warm_json["counters"]["eval_cache.subtree.hits"] > 0
        assert all(
            level["stats"]["tuples_produced"] == 0 for level in warm_json["levels"]
        )

        def actuals(output):
            return [
                line.split("act=")[1].split()[0]
                for line in output.splitlines()
                if "twig-join" in line or "contains-filter" in line
            ]

        assert actuals(cold) and actuals(warm) == actuals(cold)
        assert any(value not in ("-", "0") for value in actuals(cold))


class TestMetrics:
    def test_prometheus_text_output(self, xml_file):
        code, output = run(["metrics", xml_file, "--count", "3"])
        assert code == 0
        assert "# TYPE flexpath_query_count counter" in output
        assert "flexpath_query_count 3" in output
        assert "flexpath_query_seconds_bucket" in output

    def test_json_output(self, xml_file):
        import json

        code, output = run(["metrics", xml_file, "--count", "3", "--json"])
        assert code == 0
        payload = json.loads(output)
        assert payload["counters"]["query.count"] == 3
        assert payload["histograms"]["query.seconds"]["count"] == 3

    def test_workload_file(self, xml_file, tmp_path):
        workload = tmp_path / "workload.txt"
        workload.write_text(
            "# comment lines and blanks are skipped\n"
            "\n"
            "//article\n"
            "//article[./section/paragraph]\n"
        )
        code, output = run(
            ["metrics", xml_file, "--workload", str(workload), "--json"]
        )
        assert code == 0
        import json

        assert json.loads(output)["counters"]["query.count"] == 2

    def test_sharded_corpus_needs_a_workload_file(self, tmp_path, capsys):
        from repro import Engine
        from repro.xmltree import parse

        path = str(tmp_path / "corpus")
        engine = Engine.sharded(shard_count=2, path=path)
        for index in range(2):
            engine.backend.add_document(parse("<r><a>gold %d</a></r>" % index))
        engine.backend.close()
        code, _output = run(["metrics", path, "--count", "2"])
        assert code == 1
        assert "--workload" in capsys.readouterr().err
        workload = tmp_path / "workload.txt"
        workload.write_text("//a\n")
        code, output = run(["metrics", path, "--workload", str(workload)])
        assert code == 0
        assert "flexpath_query_count 1" in output

    def test_slow_ms_uninstalls_after_the_run(self, xml_file):
        from repro.obs.events import LISTENERS

        code, output = run(
            ["metrics", xml_file, "--count", "2", "--slow-ms", "60000"]
        )
        assert code == 0
        assert not LISTENERS


class TestServeMetrics:
    def _scrape(self, argv, paths):
        """Run ``serve-metrics`` on a thread and fetch ``paths`` from it."""
        import json
        import re
        import threading
        import time
        import urllib.request

        out = io.StringIO()
        thread = threading.Thread(
            target=main, args=(argv,), kwargs={"out": out}, daemon=True
        )
        thread.start()
        url = None
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            match = re.search(r"http://[\d.]+:\d+", out.getvalue())
            if match:
                url = match.group(0)
                break
            time.sleep(0.02)
        assert url, "serve-metrics never printed its URL"
        bodies = {}
        for path in paths:
            with urllib.request.urlopen(url + path, timeout=5) as response:
                body = response.read().decode()
            bodies[path] = (
                json.loads(body) if path != "/metrics" else body
            )
        thread.join(timeout=15)
        assert not thread.is_alive()
        return bodies

    def test_serves_metrics_and_health(self, xml_file):
        bodies = self._scrape(
            [
                "serve-metrics", xml_file, "--duration", "2",
                "--query", "//article", "--slow-ms", "0",
            ],
            ["/healthz", "/metrics", "/statusz"],
        )
        assert bodies["/healthz"] == {"status": "ok"}
        assert "flexpath_query_count" in bodies["/metrics"]
        assert bodies["/statusz"]["backend"]["kind"] == "InMemoryBackend"
        assert any(
            detail["query"] == "//article"
            for detail in bodies["/statusz"]["slow_queries"]
        )

    def test_serves_a_disk_corpus_with_storage_metrics(self, xml_file, tmp_path):
        from repro.obs.metrics import REGISTRY

        corpus = str(tmp_path / "corpus")
        code, _ = run(["ingest", corpus, xml_file, "--compact"])
        assert code == 0
        REGISTRY.reset()
        bodies = self._scrape(
            [
                "serve-metrics", corpus, "--duration", "2",
                "--query", '//article[.contains("streaming")]',
            ],
            ["/metrics", "/statusz"],
        )
        metrics = bodies["/metrics"]
        assert "flexpath_wal_replays 1" in metrics
        assert "flexpath_segment_loads 3" in metrics
        assert "flexpath_disk_postings_directory_hydrations 1" in metrics
        assert bodies["/statusz"]["backend"]["kind"] == "DiskBackend"

    def test_rejects_non_positive_duration(self, xml_file):
        code, _ = run(["serve-metrics", xml_file, "--duration", "0"])
        assert code == 1
