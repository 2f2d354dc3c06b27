"""End-to-end benchmark driver (README.md has one command per use).

One run = one workload, one seed, traced or not::

    python3 benchmarks/e2e/run.py --workload mix_zipf --seed 1 --seconds 12 --trace 0

prints every metric by name with its unit and, as the last line, the
result object ``BENCHMARK.json``'s contract asks for.  Without
``--workload`` (or with ``--repeat``) it runs each requested combination
in a child process of its own, so ``peak_rss_mb`` and the parse memo are
per run, and stops when the last child has exited.

Loop: closed, one client thread.  Timer: ``perf_counter_ns`` around each
``Engine.query`` / ingest.  GC: interpreter defaults inside the timed
windows (users pay it); ``gc.collect()`` between passes, outside them.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SETUP_REPEATS = 3  # setup_s is the median of this many set-ups
MAX_TRACE_OVERHEAD = 1.5


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def percentile(samples, share):
    """Nearest-rank percentile of an unsorted sample."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def end_to_end(log):
    """Timings at reference speed (see ``workloads.speed_kernel``).

    Set-up and ingest samples were scaled when taken (``RunLog.add_setup``);
    query timings take the whole run's factor here.
    """
    speed = log.speed_factor()
    return {
        "setup_s": statistics.median(log.setup_s),
        "queries_per_s": len(log.query_ns) / (log.window_ns / 1e9 * speed),
        "query_ms_p50": percentile(log.query_ns, 0.5) / 1e6 * speed,
        "query_ms_p90": percentile(log.query_ns, 0.9) / 1e6 * speed,
        "ingest_ms_p50": statistics.median(log.ingest_ns) / 1e6,
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def commit_hash():
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_once(args, declared):
    """Run one workload once; print its metrics; return the contract object."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro
    import spans
    import workloads

    invoked = time.perf_counter()
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    workload = workloads.WORKLOADS[args.workload](args.seed, sizes)
    log = workloads.RunLog()
    extra = {}
    group = "end_to_end" if args.trace == "0" else "per_layer"
    units = {metric["name"]: metric["unit"] for metric in declared[group]}
    if args.trace == "0":
        workload.run(log, spans.NullRecorder(), args.seconds,
                     units=args.units, setups=SETUP_REPEATS)
        metrics = end_to_end(log)
    else:
        # The untraced half fixes how much work the traced half repeats on
        # a fresh engine, so their ratio is tracing's cost and nothing else.
        base = workloads.RunLog()
        workload.run(base, spans.NullRecorder(), args.seconds / 2,
                     units=args.units)
        registry = repro.get_registry()
        operators = ("plan.physical.twig", "plan.physical.binary")
        before = [registry.counter(name) for name in operators]
        recorder = spans.SpanRecorder()
        recorder.install()
        try:
            workload.run(log, recorder, None, units=base.units)
        finally:
            recorder.uninstall()
        twig, binary = (registry.counter(name) - count
                        for name, count in zip(operators, before))
        metrics = dict.fromkeys(units, 0.0)  # a layer the workload never enters
        speed = log.speed_factor()
        per_query_op = recorder.per_op("query")
        metrics.update(spans.layer_metrics(recorder, per_query_op, speed))
        metrics.update(log.layer)
        metrics["plans.twig_share"] = twig / (twig + binary) if twig + binary else 0.0
        metrics["trace_overhead_ratio"] = (
            log.window_ns * speed / (base.window_ns * base.speed_factor()))
        if metrics["trace_overhead_ratio"] > MAX_TRACE_OVERHEAD:
            log.broken.append("trace_overhead_ratio %.3f > %.1f"
                              % (metrics["trace_overhead_ratio"], MAX_TRACE_OVERHEAD))
        os.makedirs(workloads.OUT_DIR, exist_ok=True)
        trace_path = os.path.join(workloads.OUT_DIR, "trace-%s.jsonl" % args.workload)
        recorder.write(trace_path)
        extra = {
            "trace_file": os.path.relpath(trace_path, ROOT),
            "spans": len(recorder.records),
            "unpatched": recorder.unpatched,
            "untraced_window_s": base.window_ns / 1e9,
            "traced_window_s": log.window_ns / 1e9,
            "layer_share_of_query_time": spans.layer_shares(per_query_op[0]),
            "layer_share_of_ingest_time": spans.layer_shares(
                recorder.per_op("ingest")[0]),
            "median_query_op_layers_us": spans.median_op_layers(per_query_op[0]),
        }

    if set(units) != set(metrics):
        raise SystemExit("metrics differ from BENCHMARK.json: %s"
                         % sorted(set(units) ^ set(metrics)))
    print("# %s seed=%d trace=%s seconds=%g%s" % (
        args.workload, args.seed, args.trace, args.seconds,
        " (smoke sizes)" if args.smoke else ""))
    print("# closed loop, 1 client; GC at interpreter defaults while timing, "
          "gc.collect() between passes")
    for name in sorted(metrics):
        print("%-40s %16.6f %s" % (name, metrics[name], units[name]))
    print("# timings are at reference speed: as measured x %.4f (speed kernel "
          "mean %.3f ms over %d samples)" % (
              log.speed_factor(), statistics.fmean(log.kernel_ns) / 1e6,
              len(log.kernel_ns)))
    samples = len(log.query_ns)
    beyond_p90 = samples - math.ceil(0.9 * samples)
    failed_share = log.failed / log.attempted
    print("# %d query samples (%d beyond p90), %d ingest samples, %d set-ups; "
          "%d attempted, %d failed (failed_share %.6f)" % (
              samples, beyond_p90, len(log.ingest_ns), len(log.setup_s),
              log.attempted, log.failed, failed_share))
    for message in log.failures + log.broken:
        print("# FAILED: %s" % message)

    result = {
        "correct": log.failed == 0 and not log.broken,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }
    if args.record:
        record = dict(result)
        record.update(
            workload=args.workload, seed=args.seed, trace=int(args.trace),
            seconds=args.seconds, smoke=args.smoke,
            failed_share=failed_share,
            failures=log.failures, broken=log.broken,
            meta=dict(
                log.info, commit=commit_hash(),
                python=platform.python_version(), nproc=os.cpu_count(),
                speed_factor=log.speed_factor(),
                kernel_samples=len(log.kernel_ns),
                query_samples=samples,
                samples_beyond_p90=beyond_p90,
                ingest_samples=len(log.ingest_ns),
                setup_samples=len(log.setup_s),
                measured_window_s=log.window_ns / 1e9,
                invocation_s=time.perf_counter() - invoked, **extra),
        )
        with open(args.record, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    return result


def run_many(args, declared):
    """Each (repeat, workload, trace) combination in its own child process."""
    names = [args.workload] if args.workload else [
        workload["name"] for workload in declared["workloads"]]
    traces = ("0", "1") if args.trace == "both" else (args.trace,)
    status = 0
    for repeat in range(args.repeat):
        seed = args.seed + repeat if args.vary_seed else args.seed
        for name in names:
            for trace in traces:
                command = [sys.executable, os.path.abspath(__file__),
                           "--workload", name, "--seed", str(seed),
                           "--seconds", str(args.seconds), "--trace", trace]
                if args.smoke:
                    command.append("--smoke")
                if args.units:
                    command += ["--units", str(args.units)]
                if args.record:
                    command += ["--record", args.record]
                sys.stdout.flush()
                status = max(status, subprocess.run(command).returncode)
    return status


def main():
    declared = contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[
        workload["name"] for workload in declared["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=("0", "1", "both"))
    parser.add_argument("--smoke", action="store_true",
                        help="all sizes at about a tenth, one second per run")
    parser.add_argument("--units", type=int,
                        help="measure exactly this many passes / ops / cycles "
                             "instead of --seconds (selftest uses it)")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--vary-seed", action="store_true",
                        help="with --repeat: run i uses seed + i")
    parser.add_argument("--record", metavar="FILE",
                        help="append each run's full record to FILE (JSON lines)")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(declared["run_seconds"])
    if args.trace is None:
        args.trace = "0" if args.workload and args.repeat == 1 else "both"
    if not args.workload or args.repeat > 1 or args.trace == "both":
        return run_many(args, declared)
    print(json.dumps(run_once(args, declared)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
