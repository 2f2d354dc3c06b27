#!/usr/bin/env python
"""Profile one end-to-end workload: the "profile before code" rule as one command.

    python tools/profile_e2e.py mix_distinct [--seconds N] [--seed S]
    python tools/profile_e2e.py paper_relax --callers 'document.py:.*.node.$'

Runs ``benchmarks/e2e/run.py --workload <workload> --trace 0`` in this
process under ``cProfile`` (set-up, ingest and queries alike — everything
the untraced run measures) and prints the 25 functions with the most
``tottime`` and the cumulative ``tottime`` per ``repro.*`` module.  The
run's own metric lines are suppressed; profiled timings are two to three
times the unprofiled ones, so read shares, not milliseconds.
``--callers FUNC`` adds the ``pstats`` callers table of every function
whose ``file:line(name)`` matches the regular expression ``FUNC`` — "who
still makes node views" is ``--callers 'document.py:.*.node.$'``.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import io
import os
import pstats
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
E2E = os.path.join(ROOT, "benchmarks", "e2e")
SRC = os.path.join(ROOT, "src") + os.sep
TOP = 25


def profile(workload, seconds, seed):
    sys.path.insert(0, E2E)
    import run  # benchmarks/e2e/run.py

    args = argparse.Namespace(
        workload=workload, seed=seed, seconds=seconds, trace="0",
        smoke=False, units=None, record=None)
    profiler = cProfile.Profile()
    with contextlib.redirect_stdout(io.StringIO()):
        profiler.enable()
        try:
            result = run.run_once(args, run.contract())
        finally:
            profiler.disable()
    return pstats.Stats(profiler), result


def module_of(filename):
    """``repro.ir.engine`` for a file under ``src/``, else None."""
    if not filename.startswith(SRC):
        return None
    return filename[len(SRC):-len(".py")].replace(os.sep, ".")


def report(stats, out=sys.stdout):
    total = stats.total_tt
    rows = sorted(stats.stats.items(), key=lambda item: -item[1][2])
    out.write("top %d by tottime (of %.2f s profiled)\n" % (TOP, total))
    out.write("%9s %6s %10s %9s  %s\n"
              % ("tottime", "share", "calls", "cumtime", "function"))
    for (filename, line, name), (_, calls, tottime, cumtime, _) in rows[:TOP]:
        where = module_of(filename) or os.path.basename(filename)
        out.write("%9.3f %5.1f%% %10d %9.3f  %s:%d(%s)\n"
                  % (tottime, 100 * tottime / total, calls, cumtime,
                     where, line, name))
    per_module = defaultdict(float)
    for (filename, _, _), (_, _, tottime, _, _) in rows:
        per_module[module_of(filename) or "(outside repro)"] += tottime
    out.write("\ntottime per module\n")
    for module, tottime in sorted(per_module.items(), key=lambda item: -item[1]):
        if tottime >= 0.005 * total:
            out.write("%9.3f %5.1f%%  %s\n" % (tottime, 100 * tottime / total, module))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--callers", metavar="FUNC",
                        help="also print who calls the functions matching "
                             "this regex (pstats print_callers)")
    args = parser.parse_args()
    stats, result = profile(args.workload, args.seconds, args.seed)
    print("# %s seed=%d seconds=%g under cProfile: %d ops attempted, %d failed, "
          "queries_per_s %.1f (profiled)" % (
              args.workload, args.seed, args.seconds, result["attempted"],
              result["failed"], result["metrics"]["queries_per_s"]["value"]))
    report(stats)
    if args.callers:
        print("\ncallers of %r" % args.callers)
        stats.strip_dirs().sort_stats("cumulative").print_callers(args.callers)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
