"""One benchmark process: set up one workload, run its units, check them.

Started by run.py with the environment it prepares (BLAS thread count,
PYTHONPATH pointing at the checkout's src).  In ``setup`` mode it stops at
the start of the first unit and reports the set-up time; in ``run`` mode it
runs units in a closed loop for the given number of seconds and prints one
JSON line with the samples, the counts of operations and the checks' verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc

import numpy as np

from reference import REF_S, reference

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
MIN_UNITS = 3
PROBE_UNIT = -1
PROBE_RUN_SEED = 0

# a traced run traces units 4j and 4j+1 and runs 4j+2 and 4j+3 untraced, in
# whole blocks of four, so that traced and untraced units cover odd and even
# unit indices alike (typicality_audit alternates delta by parity)
TRACE_BLOCK = 4


def layer_metrics(
    metrics: list, stats: dict, traced_units: list, alloc_peak: float, overhead: float
) -> dict:
    """The per-layer metrics named in ``metrics`` (BENCHMARK.json's per_layer).

    A metric's name is a span name and what is taken from it, after the last
    dot.  Counts and maxima come from the probe unit.  A self time is the
    median, over the pairs of traced units, of the pair's mean per unit.
    """
    probe = stats.get(PROBE_UNIT, {})
    pairs = [traced_units[k : k + 2] for k in range(0, len(traced_units), 2)]
    out = {}
    for m in metrics:
        metric = m["name"]
        span, kind = metric.rsplit(".", 1)
        if metric == "unit.alloc_peak_mb":
            value = alloc_peak
        elif metric == "trace.overhead_s":
            value = overhead
        elif kind == "self_s":
            value = statistics.median(
                sum(stats.get(u, {}).get(span, (0, 0.0, 0.0, 0.0))[1] for u in pair) / len(pair)
                for pair in pairs
            )
        else:
            calls, _, max_size, sum_size = probe.get(span, (0, 0.0, 0.0, 0.0))
            value = {"calls": calls, "flops": sum_size}.get(kind, max_size)
        out[metric] = {"value": value, "unit": m["unit"]}
    return out


def at_reference_speed(units: list, refs: list) -> float:
    """Mean unit time at reference speed: REF_S * sum(units) / sum(refs)."""
    return REF_S * sum(units) / sum(refs) if units else float("nan")


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--out", required=True, help="directory for outputs and traces")
    args = ap.parse_args(argv)

    import oneshot

    src = os.path.join(os.path.dirname(BENCH_DIR), "src")
    if os.path.dirname(os.path.dirname(os.path.abspath(oneshot.__file__))) != src:
        print(f"error: imported oneshot from {oneshot.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Outcome

    workload = WORKLOADS[args.workload](args.out)
    if args.mode == "setup":
        setup_s = time.monotonic() - args.t0
        ref = reference(workload.REF_REPS)
        print(json.dumps({"setup_s": setup_s, "ref_wall_s": ref, "setup_at_ref_s": REF_S * setup_s / ref}))
        return 0

    tracer = None
    outcome = Outcome()
    alloc_peak = 0.0
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        # the probe unit has the same input in every run, so its figures repeat;
        # its allocation peak is taken untraced, without the spans' memory
        seed = workload.unit_seed(PROBE_RUN_SEED, 0)
        tracemalloc.start()
        result = workload.unit(0, seed)
        alloc_peak = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()
        workload.check(0, seed, result, outcome)
        del result
        tracer.attach()
        tracer.unit = PROBE_UNIT
        result = workload.unit(0, seed)
        tracer.unit = None
        workload.check(0, seed, result, outcome)
        del result

    # every unit is preceded by the reference, which tracks the machine's speed
    samples = {"plain": [], "traced": [], "ref_plain": [], "ref_traced": []}
    traced_units = []
    loop_start = time.monotonic()
    setup_s = loop_start - args.t0
    i = 0
    while (
        i < MIN_UNITS
        or time.monotonic() - loop_start < args.seconds
        or (tracer is not None and i % TRACE_BLOCK)
    ):
        seed = workload.unit_seed(args.seed, i)
        traced = tracer is not None and i % TRACE_BLOCK < 2
        if traced:
            tracer.attach()
        elif tracer is not None:
            tracer.detach()  # untraced units run the unwrapped functions
        ref = reference(workload.REF_REPS)
        if traced:
            tracer.unit = i
            traced_units.append(i)
        t = time.perf_counter()
        result = workload.unit(i, seed)
        dt = time.perf_counter() - t
        if tracer is not None:
            tracer.unit = None
        kind = "traced" if traced else "plain"
        samples[kind].append(dt)
        samples["ref_" + kind].append(ref)
        workload.check(i, seed, result, outcome)
        del result
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    workload.finish(outcome)

    record = {
        "setup_s": setup_s,
        # the reference before the first unit runs right after the set-up
        "setup_at_ref_s": REF_S * setup_s / (samples["ref_traced"] or samples["ref_plain"])[0],
        "unit_at_ref_s": at_reference_speed(samples["plain"], samples["ref_plain"]),
        "unit_wall_s": samples["plain"],
        "ref_wall_s": samples["ref_plain"],
        "traced_unit_wall_s": samples["traced"],
        "traced_ref_wall_s": samples["ref_traced"],
        "peak_rss_mb": peak_rss_mb,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "known_fault_failed": outcome.known_fault_failed,
        "unexpected": outcome.unexpected[:20],
        "machine": machine(),
    }
    if tracer is not None:
        tracer.detach()
        overhead = at_reference_speed(samples["traced"], samples["ref_traced"]) - (
            at_reference_speed(samples["plain"], samples["ref_plain"])
        )
        with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
            per_layer = json.load(fh)["per_layer"]
        record["per_layer"] = layer_metrics(
            per_layer, tracer.per_unit(), traced_units, alloc_peak, overhead
        )
        trace_path = os.path.join(args.out, f"trace-{args.workload}-seed{args.seed}.npz")
        tracer.save(trace_path)
        record["trace_file"] = trace_path
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
