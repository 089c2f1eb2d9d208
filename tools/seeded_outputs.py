"""Run the seeded command list in two checkouts and compare what each writes.

    python3 tools/seeded_outputs.py A B

A and B are checkouts of this repository (the same path twice replays every
command).  Each command runs from the checkout's root on its own `src`, with
one BLAS thread, into a fresh output directory.  Its outputs are the files it
writes, its stdout and its exit code.  For each output the tool prints
"identical" when the bytes are equal.  Otherwise it prints how many records
moved, out of how many, and the largest absolute and relative drift of their
numbers.  A record is one element of a JSON list (a check), one top-level
JSON entry outside a list, one CSV row or one line of stdout.  Relative
drift is taken over numbers above 1e-9 in magnitude, since identity
residuals near 1e-16 move by their own size.  Everything that is not a
number must match: check names, params, verdicts and the set of records.

Exit code: 0 when every output of every command is byte-identical, 1 when
any byte differs, 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TB = ["typicality-build"]
COMMANDS = (
    TB,
    TB + ["--c", "1", "--k", "2", "--L", "2"],
    TB + ["--c", "2", "--k", "2", "--L", "2"],
    TB + ["--k", "3", "--c", "0", "--L", "2"],
    TB + ["--c", "3", "--k", "1"],
    TB + ["--k", "3", "--c", "1", "--L", "2"],
    TB + ["--c", "2", "--k", "2", "--L", "4"],
    ["audit", "typicality", "--trials", "2", "--seed", "1"],
    ["audit", "typicality", "--k", "3", "--c", "0", "--L", "2", "--trials", "1", "--seed", "1"],
    ["mac", "cq", "bench/cq_mac.txt", "--trials", "3", "--seed", "5"],
    ["mac", "cq", "configs/cq_mac_small.txt", "--seed", "0"],
    ["mac", "cq", "configs/cq_adder8.txt", "--trials", "5", "--seed", "0"],
    ["mac", "cq", "configs/cq_mac_wide.txt", "--trials", "3", "--seed", "5"],
    ["mac", "classical", "configs/classical_mac_small.txt"],
    ["audit", "tilting", "--trials", "200", "--seed", "1"],
    ["audit", "tilting", "--trials", "200", "--seed", "3"],
    ["audit", "gao", "--trials", "200", "--seed", "1"],
    ["audit", "hn", "--trials", "200", "--seed", "1"],
    ["audit", "dh", "--trials", "20"],
)
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
REL_FLOOR = 1e-9


def run(checkout: Path, args: list) -> dict:
    """{output name: bytes} of one command: the files it writes, its stdout and its exit code."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), **ONE_THREAD)
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run(
            [sys.executable, "-m", "oneshot.cli", *args, "--out", out],
            cwd=checkout, env=env, capture_output=True,
        )
        outputs = {path.name: path.read_bytes() for path in sorted(Path(out).iterdir())}
    outputs["stdout"] = proc.stdout
    outputs["exit code"] = str(proc.returncode).encode()
    return outputs


def records(name: str, data: bytes) -> dict:
    """{record key: [(label, leaf)]} of one output; a leaf is a float for a number, else its text."""
    text = data.decode()
    if name.endswith(".json"):
        out: dict = {}
        _walk(json.loads(text), (), out)
        return out
    if name.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(text)))
    else:
        rows = [line.split() for line in text.splitlines()]
    return {i: [(j, _leaf(token)) for j, token in enumerate(row)] for i, row in enumerate(rows)}


def _walk(node, path: tuple, out: dict) -> None:
    # a leaf belongs to the first list element on its path, else to its top-level key
    if isinstance(node, dict):
        for key in sorted(node):
            _walk(node[key], path + (key,), out)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            _walk(item, path + (i,), out)
    else:
        ends = [j for j, part in enumerate(path) if isinstance(part, int)]
        record = path[: ends[0] + 1] if ends else path[:1]
        number = isinstance(node, (int, float)) and not isinstance(node, bool)
        out.setdefault(record, []).append((path, float(node) if number else json.dumps(node)))


def _leaf(token: str):
    try:
        return float(token)
    except ValueError:
        return token


def compare(name: str, a: bytes, b: bytes) -> str:
    """"identical", or the records that moved and their largest drift; ValueError on any other change."""
    if a == b:
        return "identical"
    ra, rb = records(name, a), records(name, b)
    if list(ra) != list(rb):
        raise ValueError("the records differ")
    moved, abs_drift, rel_drift = 0, 0.0, 0.0
    for key in ra:
        if [label for label, _ in ra[key]] != [label for label, _ in rb[key]]:
            raise ValueError(f"record {key} differs in its fields")
        changed = False
        for (label, x), (_, y) in zip(ra[key], rb[key]):
            if isinstance(x, str) or isinstance(y, str):
                if x != y:
                    raise ValueError(f"record {key}, {label}: {x!r} -> {y!r}")
            elif x != y and not (math.isnan(x) and math.isnan(y)):
                changed = True
                drift = abs(x - y)
                abs_drift = max(abs_drift, drift)
                if max(abs(x), abs(y)) > REL_FLOOR:
                    rel_drift = max(rel_drift, drift / max(abs(x), abs(y)))
        moved += changed
    return f"{moved} of {len(ra)} records moved, max abs drift {abs_drift:.3g}, max rel drift {rel_drift:.3g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="first checkout")
    parser.add_argument("b", type=Path, help="second checkout")
    args = parser.parse_args(argv)
    for checkout in (args.a, args.b):
        if not (checkout / "src" / "oneshot").is_dir():
            parser.error(f"{checkout} is not a checkout of this repository")
    differ = False
    for command in COMMANDS:
        outs = [run(checkout.resolve(), command) for checkout in (args.a, args.b)]
        print("oneshot " + " ".join(command), flush=True)
        for name in sorted(set(outs[0]) | set(outs[1])):
            a, b = (out.get(name) for out in outs)
            if a is None or b is None:
                verdict = "written on one side only"
            else:
                try:
                    verdict = compare(name, a, b)
                except ValueError as exc:
                    verdict = f"DIFFERENT: {exc}"
            differ |= verdict != "identical"
            print(f"  {name}: {verdict}", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
