#!/usr/bin/env python3
"""Benchmark latpoly from the source tree of the checkout it lives in.

    python3 bench/run.py --workload verify|closure|query --seed N \
        --seconds S --trace 0|1

With ``--trace 0`` the workload's items run untraced, over and over, for
S seconds (every item at least once), and the end-to-end metrics are
printed.  With ``--trace 1`` one untraced reference pass and one traced
pass run over the same items, whatever S is, the spans go to
``.bench_out/`` and the per-layer metrics are printed.  Every output is
checked; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("verify", "closure", "query")
# fresh interpreters timed for setup_s in each run; the median is reported
SETUP_PROBES = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
}


def use_checkout_source():
    """Import latpoly from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "latpoly" / "__init__.py").is_file():
        raise SystemExit(f"error: no latpoly sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import latpoly

    if Path(latpoly.__file__).resolve().parent != SRC / "latpoly":
        raise SystemExit(f"error: latpoly imported from {latpoly.__file__}, not {SRC}")


def make_workload(name, seed):
    use_checkout_source()
    if name == "query":
        from query import Query

        return Query(seed)
    from workloads import Closure, Verify

    return {"verify": Verify, "closure": Closure}[name](seed)


def run_item(workload, item, fn, *args):
    """Run one item and check its answer, timing only the run.

    Returns the summary, the seconds the run took and the number of the
    item's operations that failed; an exception fails all of them.
    """
    start = time.perf_counter()
    try:
        summary = fn(item, *args)
        elapsed = time.perf_counter() - start
        return summary, elapsed, workload.failures(item, summary)
    except Exception:  # the run goes on and reports the failure
        traceback.print_exc(file=sys.stderr)
        return None, time.perf_counter() - start, item.ops


def measure(workload, seconds, probe):
    """Cycle through the items until `seconds` have passed and each ran once.

    Between items, `probe` runs SETUP_PROBES times at even intervals, so
    that setup_s samples the machine over the whole run like the other
    metrics; its time is not counted against `seconds`.
    """
    times = [[] for _ in workload.items]
    setup = []
    digest = hashlib.sha256()
    attempted = failed = 0
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        for i, item in enumerate(workload.items):
            summary, elapsed, bad = run_item(workload, item, workload.run)
            times[i].append(elapsed)
            attempted += item.ops
            failed += bad
            if len(times[i]) == 1:
                digest.update(repr((item.name, summary)).encode())
            now = time.perf_counter()
            if len(setup) < SETUP_PROBES and now >= start + len(setup) * seconds / SETUP_PROBES:
                setup.append(probe())
                deadline += time.perf_counter() - now
            if times[-1] and time.perf_counter() >= deadline:
                setup += [probe() for _ in range(SETUP_PROBES - len(setup))]
                return times, statistics.median(setup), attempted, failed, digest.hexdigest()


def end_to_end(workload, seconds, probe):
    times, setup_s, attempted, failed, digest = measure(workload, seconds, probe)
    # per-item medians, so that a run cut inside a pass keeps the item mix
    item_s = [statistics.median(t) for t in times]
    percentiles = statistics.quantiles(item_s, n=100, method="inclusive")
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_per_s": sum(item.ops for item in workload.items) / sum(item_s),
        "latency_p50_ms": percentiles[49] * 1000,
        "latency_p99_ms": percentiles[98] * 1000,
    }
    return metrics, END_TO_END_UNITS, attempted, failed, digest


def traced_run(workload, seed):
    from spans import PER_LAYER_UNITS, Tracer

    attempted = failed = 0
    untraced_s = traced_s = 0.0
    reference = []
    digest = hashlib.sha256()
    for item in workload.items:
        summary, elapsed, bad = run_item(workload, item, workload.run)
        reference.append(summary)
        digest.update(repr((item.name, summary)).encode())
        untraced_s += elapsed
        attempted += item.ops
        failed += bad

    tracer = Tracer()
    for i, (item, ref) in enumerate(zip(workload.items, reference)):
        tracer.request = i
        summary, elapsed, bad = run_item(workload, item, workload.traced, tracer, ref)
        traced_s += elapsed
        attempted += item.ops
        # the traced pass must reproduce the untraced answers exactly
        failed += bad if summary == ref else item.ops
    tracer.request = None
    if hasattr(workload, "traced_extra"):
        workload.traced_extra(tracer)

    metrics = tracer.layer_metrics()
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1
    tracer.write(ROOT / ".bench_out" / f"spans-{workload.name}-{seed}.jsonl")
    return metrics, PER_LAYER_UNITS, attempted, failed, digest.hexdigest()


def setup_probe(args):
    """Time from starting a fresh interpreter to its first timed operation."""
    start = time.perf_counter()
    probe = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--probe"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    # perf_counter reads CLOCK_MONOTONIC, which every process shares
    return float(probe.stdout.split()[-1]) - start


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    workload = make_workload(args.workload, args.seed)
    if args.probe:
        print(time.perf_counter())
        return 0
    if args.trace:
        metrics, units, attempted, failed, digest = traced_run(workload, args.seed)
    else:
        metrics, units, attempted, failed, digest = end_to_end(
            workload, args.seconds, lambda: setup_probe(args)
        )
    print(f"workload {args.workload} seed {args.seed} digest {digest}")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
