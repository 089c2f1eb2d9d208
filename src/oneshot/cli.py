"""Batch experiment runner and inequality auditor.

Subcommands expose the library as seeded, reproducible runs:

    oneshot dh INPUT --out DIR            hypothesis-testing entropy solvers
    oneshot audit WHICH [flags]           randomized inequality suites
    oneshot mac MODE CONFIG [flags]       channel experiments (CSV + JSON)
    oneshot typicality-build [flags]      smoothing-construction audit report

Identical (config, seed) pairs produce byte-identical CSV/JSON outputs.  The
environment variable ONESHOT_DIM_CAP overrides the per-site dimension cap.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys

import numpy as np

from . import audits, mac, hyptest, qla, report, typicality

CSV_COLUMNS = (
    "trial",
    "seed",
    "exact_error",
    "bound_total",
    "bound_type1",
    "bound_r1",
    "bound_r2",
    "bound_sum",
)


class ConfigError(ValueError):
    pass


def parse_kv(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def parse_floats(value: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in value.split()])
    except ValueError as exc:
        raise ConfigError(f"bad numeric list: {value!r}") from exc


def parse_complex_matrix(cfg: dict, key: str) -> np.ndarray:
    """Matrix given as a row-major list of (re, im) pairs plus a dims header."""
    if f"{key}.dims" not in cfg or key not in cfg:
        raise ConfigError(f"missing matrix {key!r} (need {key}.dims and {key})")
    dims = [int(tok) for tok in cfg[f"{key}.dims"].split()]
    if len(dims) != 2:
        raise ConfigError(f"{key}.dims must have two entries")
    flat = parse_floats(cfg[key])
    if flat.size != 2 * dims[0] * dims[1]:
        raise ConfigError(f"{key}: expected {2 * dims[0] * dims[1]} numbers")
    return (flat[0::2] + 1j * flat[1::2]).reshape(dims[0], dims[1])


def format_complex_matrix(m: np.ndarray) -> list[str]:
    m = np.asarray(m, dtype=complex)
    lines = [f"dims = {m.shape[0]} {m.shape[1]}"]
    flat = []
    for v in m.ravel():
        flat.append(repr(float(v.real)))
        flat.append(repr(float(v.imag)))
    lines.append("values = " + " ".join(flat))
    return lines


def _json_default(value):
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not serializable: {type(value)}")


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, default=_json_default)
        fh.write("\n")


def write_trials_csv(path: str, rows: list, bounds: dict) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for trial, seed, err in rows:
            vals = (
                str(trial),
                str(seed),
                repr(float(err)),
                repr(float(bounds.get("total", float("nan")))),
                repr(float(bounds.get("type1", float("nan")))),
                repr(float(bounds.get("r1", float("nan")))),
                repr(float(bounds.get("r2", float("nan")))),
                repr(float(bounds.get("sum", float("nan")))),
            )
            fh.write(",".join(vals) + "\n")


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _ensure_out(path: str | None) -> str:
    out = path or "."
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# dh


def cmd_dh(args) -> int:
    try:
        with open(args.input) as fh:
            text = fh.read()
        cfg = parse_kv(text)
        mode = cfg.get("mode", "classical")
        eps = float(cfg.get("epsilon", "nan"))
        if not 0 <= eps < 1:
            raise ConfigError("epsilon must be in [0, 1)")
        if mode == "classical":
            p = parse_floats(cfg["p"])
            q = parse_floats(cfg["q"])
            res = hyptest.dh_classical(p, q, eps)
            test_lines = ["kind = classical-test"] + [
                "values = " + " ".join(repr(float(v)) for v in res.test)
            ]
        elif mode == "quantum":
            rho = parse_complex_matrix(cfg, "rho")
            sigma = parse_complex_matrix(cfg, "sigma")
            # validated, then solved as given: the alternate may have any trace
            for name, check, m in (("rho", qla.density_matrix, rho), ("sigma", qla.positive, sigma)):
                try:
                    check(m)
                except ValueError as exc:
                    raise ConfigError(f"{name}: {exc}") from None
            res = hyptest.quantum_optimal_test(rho, sigma, eps)
            test_lines = ["kind = povm-element"] + format_complex_matrix(res.test)
        else:
            raise ConfigError(f"unknown mode {mode!r}")
    except (ConfigError, KeyError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = _ensure_out(args.out)
    with open(os.path.join(out, "test.txt"), "w") as fh:
        fh.write("\n".join(test_lines) + "\n")
    print("inf" if res.value_bits == float("inf") else repr(float(res.value_bits)))
    return 0


def _check_trials(trials: int | None) -> None:
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


# ---------------------------------------------------------------------------
# audit


def cmd_audit(args) -> int:
    which = args.which
    try:
        _check_trials(args.trials)
        if which == "typicality":
            checks = audits.audit_typicality(
                n_states=args.trials if args.trials is not None else 5,
                seed=args.seed,
                c=args.c,
                k=args.k,
                dim_h=args.H,
                dim_l=args.L,
                deltas=tuple(args.delta) if args.delta else (0.2, 0.4),
                eps=args.eps,
            )
        elif which in audits.SUITES:
            trials = args.trials
            if trials is None:
                trials = {"tilting": 1000, "gao": 200, "hn": 200, "dh": 200}[which]
            checks = audits.SUITES[which](trials, args.seed)
        else:
            raise ValueError(f"unknown audit {which!r}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = _ensure_out(args.out)
    payload = {
        "audit": which,
        "seed": args.seed,
        "checks": [c.to_dict() for c in checks],
        "pass": report.all_pass(checks),
    }
    write_json(os.path.join(out, f"audit_{which}.json"), payload)
    failed = [c for c in checks if not c.passed]
    print(f"{which}: {len(checks) - len(failed)}/{len(checks)} checks passed")
    if failed:
        print(f"first failure: {failed[0].describe()}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# mac


def load_classical_spec(cfg: dict) -> mac.ClassicalChannelSpec:
    if "kernel.dims" not in cfg or "kernel" not in cfg:
        raise ConfigError("missing kernel (need kernel.dims and kernel)")
    dims = [int(tok) for tok in cfg["kernel.dims"].split()]
    if len(dims) != 3:
        raise ConfigError("kernel.dims must have three entries")
    flat = parse_floats(cfg["kernel"])
    if flat.size != np.prod(dims):
        raise ConfigError(f"kernel: expected {np.prod(dims)} numbers")
    kernel = flat.reshape(dims)
    return mac.ClassicalChannelSpec(kernel, parse_floats(cfg["p_x"]), parse_floats(cfg["p_y"]))


def load_cq_spec(cfg: dict) -> mac.CqChannelSpec:
    try:
        nx, ny = int(cfg["nx"]), int(cfg["ny"])
    except KeyError as exc:
        raise ConfigError(f"missing {exc.args[0]}") from exc
    states = []
    for x in range(nx):
        row = []
        for y in range(ny):
            row.append(parse_complex_matrix(cfg, f"rho.{x}.{y}"))
        states.append(row)
    return mac.CqChannelSpec(
        np.array(states), parse_floats(cfg["p_x"]), parse_floats(cfg["p_y"])
    )


def cmd_mac(args) -> int:
    try:
        with open(args.config) as fh:
            text = fh.read()
        cfg = parse_kv(text)
        mode = args.mode
        eps = float(cfg["epsilon"])
        if not 0 < eps < 1:
            raise ConfigError("epsilon must be in (0, 1)")
        trials = args.trials if args.trials is not None else int(cfg.get("trials", "100"))
        _check_trials(trials)
        seed = args.seed if args.seed is not None else int(cfg.get("seed", "0"))
        if mode == "classical":
            spec = load_classical_spec(cfg)
            info = mac.classical_information_quantities(spec, eps)
            auto_r1, auto_r2 = mac.classical_corner_rates(info, eps)
            r1 = auto_r1 if cfg.get("r1", "auto") == "auto" else float(cfg["r1"])
            r2 = auto_r2 if cfg.get("r2", "auto") == "auto" else float(cfg["r2"])
            m1, m2 = mac.message_count(r1), mac.message_count(r2)
            typicality.check_budget("the decoder grid m1 m2 |Z|", m1 * m2 * spec.shape[2])
            result = mac.classical_mac_experiment(spec, r1, r2, eps, trials, seed)
            # inside the rate region the expectation bound undercuts the
            # headline 6 eps target; outside it only the target can fail
            governing = "total" if result.bounds["total"] <= result.bounds["target"] else "target"
        elif mode == "cq":
            spec = load_cq_spec(cfg)
            delta_raw = cfg.get("delta", "auto")
            delta = eps**0.25 if delta_raw == "auto" else float(delta_raw)
            dim_l = int(cfg.get("l_dim", "16"))
            dec = mac.build_decoding_povms(spec, dim_l, delta, eps)
            auto_r1, auto_r2 = mac.cq_corner_rates(dec, eps)
            r1 = auto_r1 if cfg.get("r1", "auto") == "auto" else float(cfg["r1"])
            r2 = auto_r2 if cfg.get("r2", "auto") == "auto" else float(cfg["r2"])
            m1, m2 = mac.message_count(r1), mac.message_count(r2)
            width = 2 * spec.dz
            rows = min(dec.chan.dim, (1 + m1 + m2) * width)
            typicality.check_budget("the stacked codebook factor", rows * m1 * m2 * width)
            result = mac.cq_mac_experiment(
                spec, r1, r2, eps, dim_l, delta, trials, seed, dec=dec
            )
            single = m1 == 1 and m2 == 1
            governing = "fallback" if single else "total"
        else:
            raise ConfigError(f"unknown mode {mode!r}")
    except (ConfigError, KeyError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    slack = 3.0 * result.mc_sem
    ok = result.within_bound(governing) and ("hn" not in result.bounds or result.within_bound("hn"))
    out = _ensure_out(args.out)
    write_trials_csv(os.path.join(out, "trials.csv"), result.trial_rows, result.bounds)
    summary = {
        "config_hash": config_hash(text),
        "mode": mode,
        "rates": [float(result.rates[0]), float(result.rates[1])],
        "epsilon": eps,
        "trials": trials,
        "seed": seed,
        "bounds": {k: float(v) for k, v in result.bounds.items()},
        "governing_bound": governing,
        "mc_mean": result.mc_mean,
        "mc_halfwidth": result.mc_halfwidth,
        "pass": bool(ok),
        "expect_fail": bool(args.expect_fail),
    }
    write_json(os.path.join(out, "summary.json"), summary)
    print(
        f"mean error {result.mc_mean:.6g} vs {governing} bound "
        f"{result.bounds[governing]:.6g} (+3 sigma {slack:.3g}): "
        + ("ok" if ok else "VIOLATED")
    )
    if not ok and args.expect_fail:
        print("bound violation was expected (--expect-fail)")
        return 0
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# typicality-build


def cmd_typicality_build(args) -> int:
    try:
        inst = audits.random_instance(
            args.seed, args.c, args.k, args.H, args.L, args.delta, args.eps
        )
        res = typicality.intersection_lemma(inst)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = _ensure_out(args.out)
    payload = {
        "params": {
            "seed": args.seed,
            "c": args.c,
            "k": args.k,
            "H": args.H,
            "L": args.L,
            "delta": args.delta,
            "eps": args.eps,
        },
        "checks": [c.to_dict() for c in res.checks],
        "soundness": {
            str(psp): {k: float(v) for k, v in vals.items()}
            for psp, vals in res.soundness.items()
        },
        "pass": res.all_pass(),
    }
    write_json(os.path.join(out, "typicality_build.json"), payload)
    failed = [c for c in res.checks if not c.passed]
    print(f"typicality-build: {len(res.checks) - len(failed)}/{len(res.checks)} checks passed")
    if failed:
        print(f"first failure: {failed[0].describe()}", file=sys.stderr)
        return 1
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="oneshot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_dh = sub.add_parser("dh", help="solve one hypothesis-testing entropy instance")
    p_dh.add_argument("input", help="key-value input file (see README)")
    p_dh.add_argument("--out", default=None, help="output directory")
    p_dh.set_defaults(func="cmd_dh")

    p_audit = sub.add_parser("audit", help="run a randomized inequality suite")
    p_audit.add_argument("which", choices=["tilting", "typicality", "gao", "hn", "dh"])
    p_audit.add_argument("--trials", type=int, default=None)
    p_audit.add_argument("--seed", type=int, default=0)
    p_audit.add_argument("--out", default=None)
    p_audit.add_argument("--k", type=int, default=2)
    p_audit.add_argument("--c", type=int, default=0)
    p_audit.add_argument("--H", type=int, default=2)
    p_audit.add_argument("--L", type=int, default=4)
    p_audit.add_argument("--eps", type=float, default=0.2)
    p_audit.add_argument("--delta", type=float, nargs="*", default=None)
    p_audit.set_defaults(func="cmd_audit")

    p_mac = sub.add_parser("mac", help="run a channel experiment from a config file")
    p_mac.add_argument("mode", choices=["classical", "cq"])
    p_mac.add_argument("config")
    p_mac.add_argument("--out", default=None)
    p_mac.add_argument("--seed", type=int, default=None)
    p_mac.add_argument("--trials", type=int, default=None)
    p_mac.add_argument("--expect-fail", action="store_true")
    p_mac.set_defaults(func="cmd_mac")

    p_tb = sub.add_parser("typicality-build", help="build and audit one construction")
    p_tb.add_argument("--k", type=int, default=2)
    p_tb.add_argument("--c", type=int, default=0)
    p_tb.add_argument("--H", type=int, default=2)
    p_tb.add_argument("--L", type=int, default=4)
    p_tb.add_argument("--delta", type=float, default=0.3)
    p_tb.add_argument("--eps", type=float, default=0.2)
    p_tb.add_argument("--seed", type=int, default=0)
    p_tb.add_argument("--out", default=None)
    p_tb.set_defaults(func="cmd_typicality_build")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the handler is looked up by name at each call, so a patched module
    # attribute is the one that runs even though the parser is cached
    return globals()[args.func](args)


if __name__ == "__main__":
    sys.exit(main())
