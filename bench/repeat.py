"""Repeat the benchmark over several seeds and summarise each metric.

    python3 bench/repeat.py [--workloads W ...] [--seeds 1 2 ...] [--seconds S] [--trace 0|1]

Runs ``bench/run.py`` once per (workload, seed), in sequence, from the root of
the checkout.  For every metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the distance
between the quartiles as a share of the median; for the end-to-end metrics it
also shows the bound from BENCHMARK.json.  The summary is written to
bench/out/repeat-<tag>.json.  The reference figures in bench/README.md come
from this script.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tag", default="latest")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {}
    for workload in args.workloads:
        runs, samples = [], []
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            record = os.path.join(
                BENCH_DIR, "out", f"result-{workload}-seed{seed}-trace{args.trace}.json"
            )
            with open(record) as fh:
                rec = json.load(fh)
            samples.append({k: rec[k] for k in ("unit_wall_s", "ref_wall_s", "setup_probes")})
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        metrics = {
            name: summarise([r["metrics"][name]["value"] for r in runs])
            for name in runs[0]["metrics"]
        }
        summary[workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed_shares": shares,
            "metrics": metrics,
            "unit_samples": samples,
        }
        print(f"{workload}: correct={summary[workload]['correct']} failed share(s)={shares}")
        for name, s in metrics.items():
            bound = bounds.get(name)
            extra = f"  bound {bound}" if bound is not None else ""
            print(
                f"  {name:45s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                f"  spread {s['spread']:.3f}{extra}"
            )
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    path = os.path.join(BENCH_DIR, "out", f"repeat-{args.tag}.json")
    with open(path, "w") as fh:
        json.dump({"seconds": args.seconds, "seeds": args.seeds, "workloads": summary}, fh, indent=1)
    print(f"summary written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
