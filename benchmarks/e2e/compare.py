"""Compare result sets written by ``run.py --record``.

    python3 benchmarks/e2e/compare.py A.jsonl            # spread of one set
    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl    # B against A
    python3 benchmarks/e2e/compare.py --run DIR_A DIR_B --repeat 10

For every workload x end-to-end metric it prints each side's median and
quartiles (``statistics.quantiles(values, n=4)``), the spread (distance
between the quartiles as a share of the median), the bound from
``BENCHMARK.json`` and a verdict:

- one set: ``steady`` (spread within a third of the bound), ``ok`` (within
  the bound) or ``unresolved`` (wider than the bound);
- two sets: ``regressed`` when B's median is worse than A's by more than the
  bound, ``unresolved`` when either side's spread is wider than the bound
  (the runs cannot tell), else ``ok``.

``--run`` measures two checkouts itself (each a directory holding this
repository at one commit, e.g. from ``git archive``): ``--repeat`` pairs,
alternating which side runs first, then compares.  Each set needs at
least five runs per workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
MIN_RUNS = 5


def load(path):
    """``{workload: {metric: [values]}}`` of the untraced runs in a file."""
    values = defaultdict(lambda: defaultdict(list))
    failed = 0
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if record["trace"]:
                continue
            failed += not record["correct"]
            for name, metric in record["metrics"].items():
                values[record["workload"]][name].append(metric["value"])
    return values, failed


def summary(values):
    low, _mid, high = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return middle, low, high, (high - low) / middle


def compare(declared, first, second=None):
    """Print the table; return the number of rows that are not ok/steady."""
    bad = 0
    header = "%-18s %-14s %34s" % ("workload", "metric", "A median [q1, q3] spread")
    if second is not None:
        header += " %34s %8s" % ("B median [q1, q3] spread", "B/A")
    print(header + " %6s  verdict" % "bound")
    for workload in (entry["name"] for entry in declared["workloads"]):
        for metric in declared["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sides = [first[workload][name]]
            if second is not None:
                sides.append(second[workload][name])
            if any(len(side) < MIN_RUNS for side in sides):
                raise SystemExit("%s %s: need at least %d runs per set, have %s"
                                 % (workload, name, MIN_RUNS, [len(s) for s in sides]))
            stats = [summary(side) for side in sides]
            row = "%-18s %-14s" % (workload, name)
            for middle, low, high, spread in stats:
                row += " %12.4f [%9.4f,%9.4f] %5.1f%%" % (middle, low, high, spread * 100)
            widest = max(spread for *_rest, spread in stats)
            if second is None:
                verdict = ("steady" if widest <= bound / 3
                           else "ok" if widest <= bound else "unresolved")
            else:
                ratio = stats[1][0] / stats[0][0]
                worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
                row += " %8.4f" % ratio
                verdict = ("regressed" if worse > bound
                           else "unresolved" if widest > bound else "ok")
            bad += verdict in ("regressed", "unresolved")
            print("%s %5.0f%%  %s" % (row, bound * 100, verdict))
    return bad


def measure(directories, repeat, seed, seconds, out_prefix):
    """Run both checkouts ``repeat`` times, alternating which goes first."""
    paths = [os.path.abspath("%s-%s.jsonl" % (out_prefix, side)) for side in "AB"]
    for path in paths:
        if os.path.exists(path):
            raise SystemExit("%s exists; move it or pass another --out" % path)
    for pair in range(repeat):
        order = (0, 1) if pair % 2 == 0 else (1, 0)
        for side in order:
            command = [sys.executable, os.path.join("benchmarks", "e2e", "run.py"),
                       "--trace", "0", "--seed", str(seed),
                       "--record", paths[side]]
            if seconds is not None:
                command += ["--seconds", str(seconds)]
            done = subprocess.run(command, cwd=directories[side],
                                  stdout=subprocess.DEVNULL)
            if done.returncode:
                raise SystemExit("run in %s failed" % directories[side])
    return paths


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sets", nargs="+", metavar="FILE_OR_DIR")
    parser.add_argument("--run", action="store_true",
                        help="the two arguments are checkouts to measure")
    parser.add_argument("--repeat", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", default="compare",
                        help="with --run: result files are OUT-A.jsonl, OUT-B.jsonl")
    args = parser.parse_args()
    if len(args.sets) > 2 or (args.run and len(args.sets) != 2):
        parser.error("give one result file, two result files, or --run with two checkouts")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    paths = (measure(args.sets, args.repeat, args.seed, args.seconds, args.out)
             if args.run else args.sets)
    loaded = [load(path) for path in paths]
    for path, (_values, failed) in zip(paths, loaded):
        print("# %s: %d run(s) with failed or wrong answers" % (path, failed))
    bad = compare(declared, *(values for values, _failed in loaded))
    return 1 if bad or any(failed for _values, failed in loaded) else 0


if __name__ == "__main__":
    sys.exit(main())
