"""Benchmark regression gate: compare a run against a committed baseline.

The bench trajectory only means something if someone reads it. This gate
makes CI read it: ``BENCH_baseline.json`` (committed at the repo root)
snapshots the median times of the smoke benchmarks, and every CI run
compares its fresh ``--benchmark-json`` output against that snapshot::

    # refresh the baseline (after a PR that legitimately shifts performance)
    python -m pytest benchmarks/bench_ingest_memory.py ... \
        --benchmark-json=bench-smoke.json
    python benchmarks/regress.py bench-smoke.json --update

    # gate a run (exit 1 on any >25% median regression)
    python benchmarks/regress.py bench-smoke.json

Noise handling:

- ``--tolerance`` (default 0.25) — a benchmark regresses only when its
  median exceeds baseline × (1 + tolerance);
- ``--min-time`` (default 100 µs) — benchmarks whose medians are both
  below this floor are reported but never fail the gate (sub-100 µs
  medians are dominated by timer jitter);
- ``--normalize`` — divide every current median by the geometric-mean
  speed ratio of the whole run before comparing, so a uniformly slower
  machine (CI runner vs the laptop that wrote the baseline) does not fail
  every benchmark at once.  A *global* slowdown is invisible under
  normalization, so local runs gating their own baseline should omit it.

Exit codes: 0 ok, 1 regression(s), 2 usage/baseline problems.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = ROOT / "BENCH_baseline.json"


def load_benchmark_medians(path):
    """``{fullname: median_seconds}`` from a pytest-benchmark JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    medians = {}
    for bench in data.get("benchmarks", []):
        medians[bench["fullname"]] = bench["stats"]["median"]
    return medians


def load_baseline(path):
    """The committed baseline: ``(medians, meta)``."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    medians = {
        name: entry["median"] for name, entry in data["benchmarks"].items()
    }
    return medians, data.get("meta", {})


def write_baseline(current_path, baseline_path):
    """Snapshot a ``--benchmark-json`` file into the baseline format."""
    with open(current_path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    benchmarks = {}
    for bench in data.get("benchmarks", []):
        stats = bench["stats"]
        benchmarks[bench["fullname"]] = {
            "median": stats["median"],
            "mean": stats["mean"],
            "stddev": stats["stddev"],
            "rounds": stats["rounds"],
        }
    if not benchmarks:
        raise SystemExit("no benchmarks in %s; refusing to write an empty"
                         " baseline" % current_path)
    payload = {
        "meta": {
            "source": str(current_path),
            "datetime": data.get("datetime"),
            "python": data.get("machine_info", {}).get("python_version"),
            "cpu": data.get("machine_info", {}).get("cpu", {}).get("brand_raw")
            if isinstance(data.get("machine_info", {}).get("cpu"), dict)
            else None,
            "note": "refresh with: python benchmarks/regress.py <run.json>"
            " --update",
        },
        "benchmarks": benchmarks,
    }
    with open(baseline_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return len(benchmarks)


def speed_factor(baseline, current):
    """Geometric-mean ratio current/baseline over the common benchmarks.

    The machine-speed estimate ``--normalize`` divides by: > 1 means the
    current run is uniformly slower than the machine that wrote the
    baseline.
    """
    ratios = []
    for name, base_median in baseline.items():
        median = current.get(name)
        if median and base_median > 0:
            ratios.append(median / base_median)
    if not ratios:
        return 1.0
    return math.exp(sum(math.log(ratio) for ratio in ratios) / len(ratios))


def compare(baseline, current, tolerance=0.25, min_time=1e-4, factor=1.0):
    """Classify every baseline benchmark against the current run.

    Returns a dict with ``regressions``, ``improvements``, ``ok``,
    ``too_fast_to_judge`` (below the noise floor), ``missing`` (in the
    baseline but not the run) and ``new`` (in the run but not the
    baseline).  Each comparison entry is ``(name, base_median,
    adjusted_median, ratio)``.
    """
    report = {
        "regressions": [],
        "improvements": [],
        "ok": [],
        "too_fast_to_judge": [],
        "missing": [],
        "new": sorted(set(current) - set(baseline)),
    }
    for name, base_median in sorted(baseline.items()):
        median = current.get(name)
        if median is None:
            report["missing"].append(name)
            continue
        adjusted = median / factor
        ratio = adjusted / base_median if base_median > 0 else float("inf")
        entry = (name, base_median, adjusted, ratio)
        if adjusted < min_time and base_median < min_time:
            report["too_fast_to_judge"].append(entry)
        elif ratio > 1.0 + tolerance:
            report["regressions"].append(entry)
        elif ratio < 1.0 / (1.0 + tolerance):
            report["improvements"].append(entry)
        else:
            report["ok"].append(entry)
    return report


def _print_entries(label, entries, out):
    print(label, file=out)
    for name, base_median, adjusted, ratio in entries:
        print(
            "  %-72s %10.3f ms -> %10.3f ms  (%.2fx)"
            % (name, base_median * 1e3, adjusted * 1e3, ratio),
            file=out,
        )


def main(argv=None, out=None):
    """Entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="regress",
        description="compare a pytest-benchmark JSON run against the"
        " committed baseline",
    )
    parser.add_argument("current", help="--benchmark-json output to check")
    parser.add_argument(
        "--baseline", default=str(DEFAULT_BASELINE),
        help="baseline file (default: BENCH_baseline.json at the repo root)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed median growth before failing (default 0.25 = +25%%)",
    )
    parser.add_argument(
        "--min-time", type=float, default=1e-4, metavar="SECONDS",
        help="noise floor: medians below this never fail (default 1e-4)",
    )
    parser.add_argument(
        "--normalize", action="store_true",
        help="divide out the run's geometric-mean speed ratio first"
        " (for comparisons across machines)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="write the baseline from this run instead of comparing",
    )
    args = parser.parse_args(argv)

    if args.update:
        count = write_baseline(args.current, args.baseline)
        print(
            "wrote %d benchmark(s) to %s" % (count, args.baseline), file=out
        )
        return 0

    try:
        baseline, meta = load_baseline(args.baseline)
    except FileNotFoundError:
        print(
            "error: no baseline at %s (create one with --update)"
            % args.baseline,
            file=sys.stderr,
        )
        return 2
    current = load_benchmark_medians(args.current)
    factor = speed_factor(baseline, current) if args.normalize else 1.0

    report = compare(
        baseline, current,
        tolerance=args.tolerance, min_time=args.min_time, factor=factor,
    )
    print(
        "baseline: %s (%d benchmark(s)%s)"
        % (
            args.baseline,
            len(baseline),
            ", " + meta["datetime"] if meta.get("datetime") else "",
        ),
        file=out,
    )
    if args.normalize:
        print("machine speed factor: %.3fx (normalized out)" % factor, file=out)
    if report["regressions"]:
        _print_entries("REGRESSIONS (>%.0f%%):" % (args.tolerance * 100),
                       report["regressions"], out)
    if report["improvements"]:
        _print_entries("improvements:", report["improvements"], out)
    if report["too_fast_to_judge"]:
        _print_entries(
            "below the %.1f µs noise floor (not gated):"
            % (args.min_time * 1e6),
            report["too_fast_to_judge"], out,
        )
    if report["missing"]:
        print(
            "missing from this run: %s" % ", ".join(report["missing"]),
            file=out,
        )
    if report["new"]:
        print(
            "new (not in baseline): %s" % ", ".join(report["new"]), file=out
        )
    print(
        "%d ok, %d regressed, %d improved, %d below floor"
        % (
            len(report["ok"]),
            len(report["regressions"]),
            len(report["improvements"]),
            len(report["too_fast_to_judge"]),
        ),
        file=out,
    )
    return 1 if report["regressions"] else 0


if __name__ == "__main__":
    sys.exit(main())
