"""Dense complex linear algebra for finite-dimensional quantum operators.

Operators are plain complex ndarrays.  The constructors below symmetrize
and validate role-specific invariants (unit trace, PSD, idempotence, ...)
and raise ValueError on violation instead of silently repairing.  All
functions are pure; nothing here holds mutable state.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

HERM_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
PROJ_TOL = 1e-10
RANK_TRACE_TOL = 1e-8
ISOMETRY_TOL = 1e-10


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A†)/2, one per matrix of a (..., d, d) stack."""
    a = np.asarray(a, dtype=complex)
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def hermitian(entries: np.ndarray) -> np.ndarray:
    """Validated Hermitian operator: finite entries, symmetrized on construction."""
    a = np.asarray(entries, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("non-finite entries")
    dev = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    if dev > 1e-8:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    return hermitian_part(a)


def positive(entries: np.ndarray) -> np.ndarray:
    """Validated positive semidefinite operator of any trace: Hermitian, eigmin >= -1e-10.

    Raises on negative eigenvalues instead of clipping.
    """
    a = hermitian(entries)
    wmin = float(np.linalg.eigvalsh(a)[0])
    if wmin < -PSD_TOL:
        raise ValueError(f"minimum eigenvalue {wmin:.3e} below -{PSD_TOL}")
    return a


def density_matrix(entries: np.ndarray) -> np.ndarray:
    """Validated density matrix: positive, trace 1 within 1e-10."""
    a = positive(entries)
    tr = float(np.trace(a).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"trace {tr} is not 1 within {TRACE_TOL}")
    return a


def povm_element(entries: np.ndarray) -> np.ndarray:
    """Validated POVM element: Hermitian with spectrum in [-1e-10, 1+1e-10]."""
    a = hermitian(entries)
    w = np.linalg.eigvalsh(a)
    if w[0] < -PSD_TOL or w[-1] > 1.0 + PSD_TOL:
        raise ValueError(f"eigenvalues [{w[0]:.3e}, {w[-1]:.3e}] outside [0, 1]")
    return a


def projector(entries: np.ndarray) -> np.ndarray:
    """Validated orthogonal projector: POVM element with ||P^2 - P||_inf <= 1e-10."""
    a = povm_element(entries)
    resid = float(np.max(np.abs(a @ a - a))) if a.size else 0.0
    if resid > PROJ_TOL:
        raise ValueError(f"idempotence residual {resid:.3e} above {PROJ_TOL}")
    rank = projector_rank(a)
    tr = float(np.trace(a).real)
    if abs(tr - rank) > RANK_TRACE_TOL:
        raise ValueError(f"trace {tr} is not within {RANK_TRACE_TOL} of rank {rank}")
    return a


def projector_rank(p: np.ndarray) -> int:
    return int(round(float(np.trace(np.asarray(p)).real)))


def isometry(entries: np.ndarray) -> np.ndarray:
    """Validated isometry V (rows >= cols, V†V = I within 1e-10)."""
    v = np.asarray(entries, dtype=complex)
    if v.ndim != 2 or v.shape[0] < v.shape[1]:
        raise ValueError(f"expected rows >= cols, got shape {v.shape}")
    resid = float(np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1]))))
    if resid > ISOMETRY_TOL:
        raise ValueError(f"V†V deviates from identity by {resid:.3e}")
    return v


def tensor_all(ops: Sequence[np.ndarray]) -> np.ndarray:
    out = np.asarray(ops[0])
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op))
    return out


def partial_trace(op: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out the tensor factors not listed in keep.

    dims are the factor dimensions of a pure tensor layout; keep holds factor
    slots (0-based) and must be non-empty.  Trace-preserving by construction.
    """
    op = np.asarray(op, dtype=complex)
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    keep = sorted(set(int(s) for s in keep))
    if not keep:
        raise ValueError("keep must be non-empty")
    if any(s < 0 or s >= n for s in keep):
        raise ValueError(f"slot out of range for {n} factors: {keep}")
    if op.shape != (int(np.prod(dims)), int(np.prod(dims))):
        raise ValueError("operator shape does not match dims")
    t = op.reshape(dims + dims)
    # contract each discarded factor: row axis i pairs with column axis n+i
    for slot in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=slot, axis2=t.ndim // 2 + slot)
    d_keep = int(np.prod([dims[s] for s in keep]))
    return t.reshape(d_keep, d_keep)


def trace_norm_herm(a: np.ndarray) -> float:
    """||A||_1 for Hermitian A via eigenvalues (cheaper than an SVD)."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(hermitian_part(a)))))


def op_norm_herm(a: np.ndarray) -> float:
    """||A||_inf for Hermitian A via eigenvalues (cheaper than an SVD)."""
    return float(np.max(np.abs(np.linalg.eigvalsh(hermitian_part(a)))))


def support_mask(w: np.ndarray) -> np.ndarray:
    """Which eigenvalues w of a PSD operator A count as its support: those above 1e-12 * max(||A||_inf, 1).

    w may hold the spectra of a stack of operators along its last axis; each
    is cut at its own maximum.
    """
    return w > 1e-12 * np.maximum(np.max(w, axis=-1, keepdims=True), 1.0)


def inv_sqrt_on_support(a: np.ndarray) -> np.ndarray:
    """A^(-1/2) for PSD A, taken on its support (support_mask) and zero on its kernel.

    One per matrix of a (..., d, d) stack.
    """
    w, v = np.linalg.eigh(hermitian_part(a))
    support = support_mask(w)
    inv_sqrt = np.where(support, 1.0 / np.sqrt(np.where(w > 0, w, 1.0)), 0.0)
    return (v * inv_sqrt[..., None, :]) @ v.conj().swapaxes(-1, -2)
