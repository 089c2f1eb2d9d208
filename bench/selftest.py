"""Self-test of the benchmark's checkers: each must reject a perturbed input.

    python3 bench/selftest.py

Every checker first gets a correct input, which it must pass, and then one or
more perturbed inputs (a shifted error, a non-positive state, a wrong LP
value, ...), each of which it must report as failed.  It exits with code 0
when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import os
import sys

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
from workloads import Outcome  # noqa: E402


def random_psd(rng, d, rank=None, trace=None):
    g = rng.standard_normal((d, rank or d)) + 1j * rng.standard_normal((d, rank or d))
    a = g @ g.conj().T
    return a / np.trace(a).real * (trace if trace is not None else 1.0)


def dense_pgm_error(povms, states):
    """The PGM error with numpy's eigh, as the program computes it."""
    w, v = np.linalg.eigh(sum(povms))
    inv = np.where(w > 1e-12 * max(w[-1], 1.0), 1.0 / np.sqrt(np.where(w > 0, w, 1.0)), 0.0)
    s = (v * inv) @ v.conj().T
    return 1.0 - np.mean([np.trace(s @ p @ s @ r).real for p, r in zip(povms, states)])


def cases(rng):
    """(description, messages, expect failure) triples."""
    d = 6
    povms = [random_psd(rng, d, rank=2, trace=1.5) for _ in range(4)]
    states = [random_psd(rng, d) for _ in range(4)]
    err = dense_pgm_error(povms, states)
    exact = checks.pgm_free_error(povms, states)
    hn = checks.hn_expansion(povms, states)
    yield "codebook, correct", checks.check_codebook(err, hn, exact), False
    yield "codebook, shifted error", checks.check_codebook(err + 1e-6, hn, exact), True
    yield "codebook, error above 1", checks.check_codebook(1.5, 10.0), True
    yield "codebook, error below 0", checks.check_codebook(-0.1, 10.0), True
    yield "codebook, error above HN", checks.check_codebook(err, err - 0.1), True
    yield "replay, same bytes", checks.check_identical("f", b"a,1\n", b"a,1\n"), False
    yield "replay, changed bytes", checks.check_identical("f", b"a,1\n", b"a,2\n"), True

    records = [("claim1", 0.5, 1.0, 1e-9), ("claim2", 1.0, 1.0, 1e-9)]
    yield "audit records, passing", checks.check_audit_records(records, ("claim1",)), False
    bad = records + [("claim3", 1.0 + 1e-6, 1.0, 1e-9)]
    yield "audit records, one violated", checks.check_audit_records(bad), True
    yield "audit records, name missing", checks.check_audit_records(records, ("claim9",)), True

    dims = (3, 4)
    factor = np.linalg.qr(rng.standard_normal((12, 5)) + 1j * rng.standard_normal((12, 5)))[0]
    core = random_psd(rng, 5)
    yield "state, valid", checks.check_factored_state(factor, core), False
    w, v = np.linalg.eigh(core)
    shifted = np.concatenate([[-1e-6], w[1:-1], [w[-1] + w[0] + 1e-6]])  # same trace
    negative = (v * shifted) @ v.conj().T
    yield "state, non-positive", checks.check_factored_state(factor, negative), True
    yield "state, trace 2", checks.check_factored_state(factor, 2.0 * core), True

    dense = factor @ core @ factor.conj().T
    b = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
    want = np.trace(b @ b.conj().T @ dense).real
    got = checks.povm_trace(b, factor, core)
    yield "povm trace, equal", checks.check_close("tr", got, want, 1e-10), False
    yield "povm trace, shifted", checks.check_close("tr", got + 1e-8, want, 1e-10), True
    t = dense.reshape(dims + dims)
    for keep, ref in ((0, np.einsum("ajbj->ab", t)), (1, np.einsum("jajb->ab", t))):
        pt = checks.site_partial_trace(factor, core, dims, keep)
        yield f"partial trace site {keep}, equal", checks.check_matrix_close("pt", pt, ref, 1e-12), False
        off = ref + 1e-8 * np.eye(dims[keep])
        yield f"partial trace site {keep}, perturbed", checks.check_matrix_close("pt", pt, off, 1e-10), True

    p = np.array([0.5, 0.3, 0.2])
    q = np.array([0.1, 0.3, 0.6])
    eps = 0.25
    test = np.array([1.0, 0.25 / 0.3 * 1.0, 0.0])
    lp = checks.lp_min_rejection(p, q, eps)
    reject = float(q @ test)
    yield "classical test, optimal", checks.check_classical_test(test, reject, p, q, eps, lp), False
    yield "classical test, wrong LP value", checks.check_classical_test(
        test, reject, p, q, eps, lp + 1e-6), True
    short = np.array([1.0, 0.0, 0.0])
    yield "classical test, acceptance short", checks.check_classical_test(
        short, float(q @ short), p, q, eps, lp), True

    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    sigma = np.diag([0.0, 0.0, 1.0]).astype(complex)
    kernel = np.diag([1.0, 1.0, 0.0]).astype(complex)
    yield "zero-rejection test, kernel projector", checks.check_zero_rejection_test(kernel, rho, sigma, 0.3), False
    yield "zero-rejection test, rejects sigma", checks.check_zero_rejection_test(
        np.eye(3, dtype=complex), rho, sigma, 0.3), True
    yield "zero-rejection test, accepts too little", checks.check_zero_rejection_test(
        np.zeros((3, 3), dtype=complex), rho, sigma, 0.3), True
    yield "zero-rejection test, not a POVM element", checks.check_zero_rejection_test(
        2.0 * kernel, rho, sigma, 0.3), True


def main() -> int:
    bad = []
    for name, msgs, expect_fail in cases(np.random.default_rng(7)):
        if bool(msgs) != expect_fail:
            bad.append(f"{name}: expected {'failure' if expect_fail else 'pass'}, got {msgs}")
    outcome = Outcome()
    outcome.add([])
    outcome.add(["known fault"], known_fault=True)
    outcome.add(["unexpected"])
    if (outcome.attempted, outcome.failed, outcome.known_fault_failed, outcome.unexpected) != (
        3, 2, 1, ["unexpected"]
    ):
        bad.append(f"Outcome accounting is off: {outcome}")
    for line in bad:
        print(f"FAIL {line}")
    print(f"selftest: {'ok' if not bad else f'{len(bad)} failure(s)'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
