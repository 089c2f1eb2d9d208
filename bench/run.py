"""Benchmark of the oneshot package: one workload per call.

    python3 bench/run.py --workload {cq_mac,typicality_audit,small_audits}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The benchmark imports the package from the
checkout's ``src`` directory; without it, it exits with code 2.  With
``--trace 0`` it measures the end-to-end metrics: the set-up time (median over
several fresh interpreters), the median unit time and the peak resident set
of the process that runs the units.  With ``--trace 1`` it measures the
per-layer metrics instead.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the full record,
with the samples and the machine metadata, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("cq_mac", "typicality_audit", "small_audits")
# one BLAS thread: the run then does not depend on the caller's environment,
# reductions repeat bit for bit, and the second core absorbs other activity
BLAS_THREADS = "1"
SETUP_STARTS = 7  # fresh interpreters whose set-up time is measured per run
RUN_LIMIT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(mode: str, args, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON record."""
    t0 = time.monotonic()
    cmd = [
        sys.executable,
        os.path.join(BENCH_DIR, "worker.py"),
        "--mode", mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--t0", repr(t0),
        "--out", OUT_DIR,
    ]
    proc = subprocess.run(
        cmd, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=deadline - t0
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "oneshot", "__init__.py")):
        print(f"error: no package source under {ROOT}/src/oneshot", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        probes = [] if args.trace else [
            spawn("setup", args, deadline) for _ in range(SETUP_STARTS - 1)
        ]
        setup = [p["setup_at_ref_s"] for p in probes]
        rec = spawn("run", args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = rec["per_layer"]
    else:
        # both times are at reference speed (reference.py)
        setup.append(rec["setup_at_ref_s"])
        values = {
            "setup_s": statistics.median(setup),
            "unit_s": rec["unit_at_ref_s"],
            "peak_rss_mb": rec["peak_rss_mb"],
        }
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            end_to_end = json.load(fh)["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in end_to_end}
    result = {
        "correct": not rec["unexpected"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }
    record = dict(rec, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_at_ref_samples=setup, setup_probes=probes,
                  result=result)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    for msg in rec["unexpected"]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
