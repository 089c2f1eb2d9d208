"""Checks of the program's outputs, computed apart from the program.

Each checker takes plain arrays or numbers (the program's output and what it
is compared against) and returns a list of failure messages; an empty list
means the operation passed.  The references are computed here with numpy and
scipy, not with the package's own solvers, and nothing here is timed.
"""

from __future__ import annotations

import numpy as np

SUPPORT_TOL = 1e-10


def check_close(name: str, got: float, want: float, tol: float) -> list[str]:
    got, want = float(got), float(want)
    if not abs(got - want) <= tol:
        return [f"{name}: {got!r} differs from {want!r} by more than {tol:g}"]
    return []


# ---------------------------------------------------------------------------
# cq MAC


def pgm_free_error(povms: list, states: list) -> float:
    """1 - mean_m Tr[Lambda_m rho_m], Lambda_m = S^(-1/2) Pi_m S^(-1/2), S = sum Pi_m.

    S^(-1/2) is taken on the support of S from a scipy eigendecomposition;
    the traces are evaluated in the eigenbasis of that support.
    """
    import scipy.linalg

    total = sum(povms)
    w, u = scipy.linalg.eigh((total + total.conj().T) / 2.0)
    keep = w > SUPPORT_TOL * max(float(w[-1]), 1.0)
    us = u[:, keep]
    d = 1.0 / np.sqrt(w[keep])
    success = 0.0
    for pi, rho in zip(povms, states):
        a = d[:, None] * (us.conj().T @ pi @ us) * d[None, :]
        b = us.conj().T @ rho @ us
        success += float(np.trace(a @ b).real)
    return 1.0 - success / len(povms)


def hn_expansion(povms: list, states: list) -> float:
    """Message average of 2 Tr[(1 - Pi_m) rho_m] + 4 sum_{m' != m} Tr[Pi_m' rho_m]."""
    n = len(povms)
    # Tr[P R] = sum_ij P_ij R_ji
    overlap = np.array([[float(np.sum(p * r.T).real) for r in states] for p in povms])
    miss = 1.0 - np.diag(overlap)
    cross = overlap.sum(axis=0) - np.diag(overlap)
    return float(np.mean(2.0 * miss + 4.0 * cross)) if n else 0.0


def check_codebook(reported: float, hn_bound: float, exact: float | None = None) -> list[str]:
    """One codebook's reported error: in [0, 1], under its HN expansion, equal to exact."""
    out = []
    reported, hn_bound = float(reported), float(hn_bound)
    if not 0.0 <= reported <= 1.0:
        out.append(f"error {reported!r} outside [0, 1]")
    if not reported <= hn_bound + 1e-9:
        out.append(f"error {reported!r} exceeds its Hayashi-Nagaoka expansion {hn_bound!r}")
    if exact is not None:
        out += check_close("exact error without the PGM", reported, exact, 1e-9)
    return out


def check_identical(name: str, first: bytes, second: bytes) -> list[str]:
    if first != second:
        return [f"{name} differs between two runs with the same seed"]
    return []


# ---------------------------------------------------------------------------
# typicality


def check_audit_records(records, required=()) -> list[str]:
    """Every (name, lhs, rhs, tol) record satisfies lhs <= rhs + tol; required names occur."""
    out = []
    names = set()
    for name, lhs, rhs, tol in records:
        names.add(name)
        if not float(rhs) - float(lhs) >= -float(tol):
            out.append(f"check {name} fails: lhs {lhs!r} > rhs {rhs!r} + {tol:g}")
    out += [f"required check {n} missing" for n in required if n not in names]
    return out


def check_factored_state(factor: np.ndarray, core: np.ndarray) -> list[str]:
    """factor @ core @ factor† has trace 1 and no eigenvalue below -1e-10.

    The nonzero spectrum of the dense operator equals that of R core R†, with
    factor = Q R a thin QR factorization, so the dense matrix is not formed.
    """
    import scipy.linalg

    _, r = scipy.linalg.qr(factor, mode="economic")
    small = r @ core @ r.conj().T
    small = (small + small.conj().T) / 2.0
    out = check_close("state trace", float(np.trace(small).real), 1.0, 1e-10)
    low = float(scipy.linalg.eigvalsh(small)[0]) if small.size else 0.0
    if low < -1e-10:
        out.append(f"state has eigenvalue {low!r} below -1e-10")
    return out


def povm_trace(b: np.ndarray, factor: np.ndarray, core: np.ndarray) -> float:
    """Tr[B B† (factor core factor†)] by cyclicity: Tr[(B† factor) core (factor† B)]."""
    m = b.conj().T @ factor
    return float(np.trace(m @ core @ m.conj().T).real)


def site_partial_trace(factor: np.ndarray, core: np.ndarray, dims, keep: int) -> np.ndarray:
    """Partial trace of factor @ core @ factor† onto site keep (0-based).

    Sums the diagonal blocks (1 x <j|) rho (1 x |j>) over the basis states j of
    the other sites, one block at a time, so the full operator is never held.
    """
    r = factor.shape[1]
    t = np.moveaxis(factor.reshape(tuple(dims) + (r,)), keep, 0)
    t = t.reshape(dims[keep], -1, r)
    out = np.zeros((dims[keep], dims[keep]), dtype=complex)
    for j in range(t.shape[1]):
        rows = t[:, j, :]
        out += rows @ core @ rows.conj().T
    return out


def check_matrix_close(name: str, got: np.ndarray, want: np.ndarray, tol: float) -> list[str]:
    got = np.asarray(got)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} differs from {want.shape}"]
    dev = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not dev <= tol:
        return [f"{name}: entries differ by {dev:.3g} > {tol:g}"]
    return []


# ---------------------------------------------------------------------------
# hypothesis testing


def lp_min_rejection(p: np.ndarray, q: np.ndarray, eps: float) -> float:
    """min q.t subject to p.t >= 1 - eps, 0 <= t <= 1, by scipy's HiGHS solver."""
    from scipy.optimize import linprog

    res = linprog(
        c=q,
        A_ub=-p[None, :],
        b_ub=[-(1.0 - eps)],
        bounds=(0.0, 1.0),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        raise RuntimeError(f"linprog failed: {res.message}")
    return float(res.fun)


def check_classical_test(
    test: np.ndarray, reject_mass: float, p: np.ndarray, q: np.ndarray, eps: float, lp_value: float
) -> list[str]:
    """A classical test is feasible and its rejection equals the LP optimum to 1e-8."""
    out = []
    if np.any(test < -1e-12) or np.any(test > 1 + 1e-12):
        out.append("classical test leaves [0, 1]")
    if float(np.dot(p, test)) < 1.0 - eps - 1e-9:
        out.append(f"classical test accepts {float(np.dot(p, test))!r} < 1 - eps")
    out += check_close("classical rejection vs LP optimum", reject_mass, lp_value, 1e-8)
    out += check_close("classical rejection vs q.t", reject_mass, float(np.dot(q, test)), 1e-9)
    return out


def check_zero_rejection_test(
    test: np.ndarray, rho: np.ndarray, sigma: np.ndarray, eps: float
) -> list[str]:
    """0 <= test <= 1, Tr[test rho] >= 1 - eps and Tr[test sigma] <= 1e-9.

    Used where the kernel of sigma carries at least 1 - eps of rho, so the
    optimal test rejects nothing.
    """
    out = []
    w = np.linalg.eigvalsh((test + test.conj().T) / 2.0)
    if w[0] < -1e-9 or w[-1] > 1 + 1e-9:
        out.append(f"test spectrum [{w[0]:.3g}, {w[-1]:.3g}] leaves [0, 1]")
    accept = float(np.trace(test @ rho).real)
    if accept < 1.0 - eps - 1e-9:
        out.append(f"test accepts {accept!r} < 1 - eps = {1.0 - eps!r}")
    reject = float(np.trace(test @ sigma).real)
    if reject > 1e-9:
        out.append(f"test rejects {reject!r} of sigma where the optimum rejects 0")
    return out


def kernel_mass(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Tr[P_ker(sigma) rho]."""
    w, v = np.linalg.eigh(sigma)
    ker = v[:, w <= 1e-12 * max(float(w[-1]), 1.0)]
    return float(np.trace(ker.conj().T @ rho @ ker).real)
