"""Self-test of the benchmark itself (not part of tier-1; run by hand).

    python3 benchmarks/e2e/selftest.py

Checks ``BENCHMARK.json`` against the limits of the benchmark contract,
then runs every workload twice at smoke size, untraced and traced, with
one seed and a fixed amount of work, and checks that

- the metrics each run prints are exactly the declared ones, units too;
- no op failed and no premise broke (``failed_share == 0``; the ``mix_zipf``
  hit-ratio window is such a premise, asserted by the run itself);
- the counts that must repeat for a seed do repeat.
"""

import json
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}\Z")
# Passes, ops, draws and cycles: fixed, so that counts cannot depend on
# how much a time-bounded run happened to finish.
UNITS = {"paper_relax": 2, "mix_distinct": 200, "mix_zipf": 1500,
         "ingest_shard_disk": 3}
REPEATABLE = ("cache.result_hit_ratio", "plans.tuples_produced",
              "relax.levels_per_query", "backend.disk.bytes_per_xml_byte")


def check_contract(declared):
    """The limits a BENCHMARK.json outside of which is refused unrun."""
    problems = []

    def expect(condition, message):
        if not condition:
            problems.append(message)

    expect(set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}, "top-level keys")
    expect(1 <= len(declared["paths"]) <= 16
           and all(PATH.match(path) and not path.startswith("/")
                   and ".." not in path.split("/") for path in declared["paths"]),
           "paths")
    expect(len(declared["command"]) <= 32
           and all(len(part) <= 200 for part in declared["command"]), "command")
    expect(isinstance(declared["run_seconds"], int)
           and 1 <= declared["run_seconds"] <= 60, "run_seconds")
    expect(2 <= len(declared["workloads"]) <= 8, "workload count")
    expect(1 <= len(declared["end_to_end"]) <= 16, "end_to_end count")
    expect(1 <= len(declared["per_layer"]) <= 128, "per_layer count")
    names = []
    for workload in declared["workloads"]:
        expect(set(workload) == {"name", "why"}, "workload keys %r" % workload)
        expect(len(workload["why"]) <= 200 and "\n" not in workload["why"],
               "why of %s" % workload["name"])
        names.append(workload["name"])
    for metric in declared["end_to_end"]:
        expect(set(metric) == {"name", "unit", "better", "bound"},
               "end_to_end keys %r" % metric)
        expect(0 <= metric["bound"] <= 0.25, "bound of %s" % metric["name"])
    for metric in declared["per_layer"]:
        expect(set(metric) == {"name", "unit", "better"},
               "per_layer keys %r" % metric)
    for metric in declared["end_to_end"] + declared["per_layer"]:
        expect(UNIT.match(metric["unit"]), "unit of %s" % metric["name"])
        expect(metric["better"] in ("lower", "higher"),
               "better of %s" % metric["name"])
        names.append(metric["name"])
    for name in names:
        expect(NAME.match(name), "name %r" % name)
    expect(len(names) == len(set(names)), "a name is used twice")
    expect([(metric["unit"], metric["better"])
            for metric in declared["end_to_end"] if metric["name"] == "setup_s"]
           == [("s", "lower")],
           "setup_s must be an end-to-end metric in s, lower is better")
    expect(os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024,
           "file size")
    return problems


def smoke(record_path):
    """Every workload, untraced and traced, at smoke size with fixed units."""
    for workload, units in UNITS.items():
        for trace in ("0", "1"):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
                 "--workload", workload, "--trace", trace, "--seed", "7",
                 "--units", str(units), "--record", record_path],
                capture_output=True, text=True)
            if done.returncode:
                raise SystemExit("%s trace=%s exited %d:\n%s" % (
                    workload, trace, done.returncode, done.stderr))
            last = json.loads(done.stdout.strip().splitlines()[-1])
            if set(last) != {"correct", "attempted", "failed", "metrics"}:
                raise SystemExit("%s: last line is not the result object" % workload)
    with open(record_path) as handle:
        return [json.loads(line) for line in handle]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    problems = check_contract(declared)
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out, prefix="tmp-selftest-") as scratch:
        first = smoke(os.path.join(scratch, "first.jsonl"))
        second = smoke(os.path.join(scratch, "second.jsonl"))
    for record in first + second:
        label = "%s trace=%d" % (record["workload"], record["trace"])
        group = "per_layer" if record["trace"] else "end_to_end"
        wanted = {metric["name"]: metric["unit"] for metric in declared[group]}
        printed = {name: metric["unit"] for name, metric in record["metrics"].items()}
        if printed != wanted:
            problems.append("%s: metrics differ from BENCHMARK.json: %s" % (
                label, sorted(set(printed.items()) ^ set(wanted.items()))))
        if not record["correct"] or record["failed_share"] != 0:
            problems.append("%s: %s" % (label, record["failures"] + record["broken"]))
    for one, other in zip(first, second):
        if one["trace"]:
            for name in REPEATABLE:
                values = (one["metrics"][name]["value"], other["metrics"][name]["value"])
                if values[0] != values[1]:
                    problems.append("%s: %s does not repeat for one seed: %r" % (
                        one["workload"], name, values))
    for problem in problems:
        print("FAIL:", problem)
    print("selftest: %d problem(s) in %d runs" % (len(problems), len(first + second)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
