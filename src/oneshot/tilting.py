"""Tilted spans of subspaces and the bounds they obey.

A family of subspaces of H is "tilted" by rotating each toward a private
orthogonal copy of H inside H~ = H (+) H_1 (+) ... (+) H_l.  Tilting
increases the mutual angles, which turns the span into a well-behaved
union with acceptance close to the sum of the individual acceptances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import qla


@dataclass(frozen=True)
class TiltedLayout:
    """H~ = H (+) H_1 (+) ... (+) H_l with every summand a copy of H.

    Summand j occupies coordinates [j*base_dim, (j+1)*base_dim), j = 0 being
    the untilted base copy.
    """

    base_dim: int
    directions: int
    total_dim: int = field(init=False)

    def __post_init__(self):
        if self.base_dim <= 0 or self.directions < 0:
            raise ValueError("base_dim must be positive and directions non-negative")
        object.__setattr__(self, "total_dim", (self.directions + 1) * self.base_dim)

    def block(self, j: int) -> slice:
        if not 0 <= j <= self.directions:
            raise ValueError(f"summand index {j} out of range")
        return slice(j * self.base_dim, (j + 1) * self.base_dim)


@dataclass(frozen=True)
class TiltingMatrix:
    """Upper triangular, diagonal dominated, substochastic tilt weights.

    alpha[i, j] is the tilt of subspace j along direction i for i <= j;
    validation enforces alpha[i, j] = 0 below the diagonal,
    alpha[i, i] >= alpha[i, j] for i <= j, and column sums <= 1.
    """

    alpha: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("tilting matrix must be square")
        object.__setattr__(self, "alpha", a)
        if np.any(a < -1e-15) or np.any(a > 1 + 1e-12):
            raise ValueError("entries must lie in [0, 1]")
        if np.any(np.abs(np.tril(a, -1)) > 1e-15):
            raise ValueError("matrix is not upper triangular")
        for i in range(a.shape[0]):
            if np.any(a[i, i + 1 :] > a[i, i] + 1e-12):
                raise ValueError(f"row {i} is not dominated by its diagonal entry")
        if np.any(a.sum(axis=0) > 1 + 1e-12):
            raise ValueError("matrix is not substochastic")

    @property
    def size(self) -> int:
        return self.alpha.shape[0]


def tilt_isometry(weights, layout: TiltedLayout) -> np.ndarray:
    """Isometry h -> sqrt(1 - sum_i w_i) h (+) sum_i sqrt(w_i) T_i(h) into the tilted space.

    weights[i - 1] is the tilt along direction i (a column of a tilting
    matrix); with no weights this is the embedding of H into the base summand.
    """
    w = np.asarray(weights, dtype=float)
    d = layout.base_dim
    v = np.zeros((layout.total_dim, d), dtype=complex)
    v[layout.block(0), :] = np.sqrt(max(1.0 - float(w.sum()), 0.0)) * np.eye(d)
    for i, w_i in enumerate(w, start=1):
        v[layout.block(i), :] = np.sqrt(w_i) * np.eye(d)
    return v


def span_basis(proj: np.ndarray, tol: float = 0.5) -> np.ndarray:
    """Orthonormal basis (columns) of the range of a projector."""
    w, v = np.linalg.eigh(qla.hermitian_part(np.asarray(proj, dtype=complex)))
    return v[:, w > tol]


def rejection_basis(dilated: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the rejection space (eigenvalue 0) of a dilated test.

    One per matrix of a (..., d, d) stack, whose rejection spaces must share
    one dimension; eigh sorts the eigenvalues ascending, so that space is
    spanned by the leading columns.  Each basis is stored column-major, as a
    boolean column selection of eigh's output is: the products that read a
    basis round by its layout, and the seeded outputs with them.
    """
    w, v = np.linalg.eigh(dilated)
    dims = np.count_nonzero(w < 0.5, axis=-1)
    r = int(dims.max())
    if dims.min() != r:
        raise ValueError(f"rejection spaces of dimensions {sorted({int(d) for d in dims.flat})} in one stack")
    return v[..., :r].swapaxes(-1, -2).copy().swapaxes(-1, -2)


def orthonormalize(cols: np.ndarray) -> np.ndarray:
    """Rank-revealing orthonormalization of a set of (possibly dependent) columns.

    The SVD reference for tilted_basis, whose stacks have full column rank.
    """
    cols = np.asarray(cols, dtype=complex)
    if cols.size == 0:
        return cols.reshape(cols.shape[0], 0)
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    return u[:, s > 1e-10 * max(1.0, s[0])]


def complement_factor(e: np.ndarray, q: np.ndarray) -> np.ndarray:
    """B = E - Q Q† E: the isometry E cut down to the complement of the orthonormal columns Q.

    B B† is the POVM element that rejects the span of Q; with no columns
    (nothing to reject) E itself is returned.
    """
    if not q.shape[1]:
        return e
    return e - q @ (q.conj().T @ e)


def tilted_basis(
    bases: list[np.ndarray], a: np.ndarray, layout: TiltedLayout, fixed: np.ndarray | None = None
) -> np.ndarray:
    """Orthonormal basis of the A-tilted span of subspaces given by orthonormal bases.

    tilted_images stacks the images block upper triangular with full column
    rank, so one reduced QR orthonormalizes them.
    """
    return np.linalg.qr(tilted_images(bases, a, layout, fixed))[0]


def tilted_images(
    bases: list[np.ndarray], a: np.ndarray, layout: TiltedLayout, fixed: np.ndarray | None = None
) -> np.ndarray:
    """The images whose span tilted_basis orthonormalizes, as the columns of one array.

    Basis j (1-based) is pushed through tilt_isometry(a[:j, j-1]), the j-th
    column of the tilting matrix; the basis fixed, if given, stays untilted in
    the base copy.  The images are written straight into one array: summand i
    of basis j's columns is sqrt(a[i-1, j-1]) times the basis.  Basis j
    reaches only summands 0..j, and summand j at weight a[j-1, j-1], so the
    array is block upper triangular with full column rank; a non-empty basis
    whose diagonal weight is not positive is refused.
    """
    parts = [] if fixed is None else [(fixed, np.zeros(0))]
    for j, b in enumerate(bases, start=1):
        if b.shape[1]:
            if not a[j - 1, j - 1] > 0:
                raise ValueError(f"basis {j} has diagonal tilt weight {a[j - 1, j - 1]} <= 0")
            parts.append((b, a[:j, j - 1]))
    n = sum(b.shape[1] for b, _ in parts)
    images = np.zeros((layout.directions + 1, layout.base_dim, n), dtype=complex)
    start = 0
    for b, w in parts:
        scale = np.zeros(layout.directions + 1)
        scale[0], scale[1 : w.size + 1] = max(1.0 - float(w.sum()), 0.0), w
        images[:, :, start : start + b.shape[1]] = np.sqrt(scale)[:, None, None] * b
        start += b.shape[1]
    return images.reshape(layout.total_dim, n)


def _span_projector(subspaces, a, layout, fixed=None) -> np.ndarray:
    """Projector onto tilted_basis of the ranges of the given projectors."""
    fixed_basis = None if fixed is None else span_basis(fixed)
    q = tilted_basis([span_basis(w) for w in subspaces], a, layout, fixed_basis)
    return qla.hermitian_part(q @ q.conj().T)


def tilted_span(
    subspaces: list[np.ndarray], alphas: list[float], layout: TiltedLayout | None = None
) -> np.ndarray:
    """Projector onto the (alpha_1, ..., alpha_l)-tilted span of the subspaces.

    Each subspace is passed as a projector on H; subspace j is tilted along
    its own direction j at weight alpha_j (the diagonal tilting matrix).
    """
    if len(subspaces) != len(alphas):
        raise ValueError("need one alpha per subspace")
    if not all(0 < alpha < 1 for alpha in alphas):
        raise ValueError("alpha must lie in (0, 1)")
    if layout is None:
        layout = TiltedLayout(int(subspaces[0].shape[0]), len(subspaces))
    return _span_projector(subspaces, np.diag(np.asarray(alphas, dtype=float)), layout)


def tilted_span_with_fixed(
    w0: np.ndarray,
    subspaces: list[np.ndarray],
    alpha: float,
    layout: TiltedLayout | None = None,
) -> np.ndarray:
    """Projector onto W_0 + (alpha-tilted span), W_0 kept untilted in the base copy.

    Requires alpha < 1/3; callers wanting larger tilts must use tilted_span.
    """
    if not 0 < alpha < 1.0 / 3.0:
        raise ValueError("alpha must lie in (0, 1/3)")
    if layout is None:
        layout = TiltedLayout(int(w0.shape[0]), len(subspaces))
    return _span_projector(subspaces, alpha * np.eye(len(subspaces)), layout, fixed=w0)


def a_tilted_span(
    subspaces: list[np.ndarray], a: TiltingMatrix, layout: TiltedLayout | None = None
) -> np.ndarray:
    """Projector onto the A-tilted span: subspace j tilted along directions 1..j."""
    if len(subspaces) != a.size:
        raise ValueError("tilting matrix size must match the number of subspaces")
    if layout is None:
        layout = TiltedLayout(int(subspaces[0].shape[0]), len(subspaces))
    return _span_projector(subspaces, a.alpha, layout)


def prop_tilted_bounds(
    overlaps: np.ndarray, alphas: np.ndarray
) -> tuple[float, float]:
    """Lower/upper bounds on the tilted-span overlap of a unit vector.

    overlaps[j] = ||P_{W_j} h||^2.  Returns
    (max_j (1-alpha_j) eps_j, (1-alpha)/alpha * sum_j eps_j) with
    alpha = min_j alpha_j.
    """
    overlaps = np.asarray(overlaps, dtype=float)
    alphas = np.asarray(alphas, dtype=float)
    if overlaps.size == 0:
        return 0.0, 0.0
    amin = float(alphas.min())
    return (
        float(np.max((1.0 - alphas) * overlaps)),
        (1.0 - amin) / amin * float(overlaps.sum()),
    )


def prop_a_tilted_bounds(overlaps: np.ndarray, a: TiltingMatrix) -> tuple[float, float]:
    """Lower/upper bounds on the A-tilted-span overlap of a unit vector.

    Lower: max_j eps_j (1 - sum_i alpha_ij).
    Upper: (sum_j sqrt(eps_j) sum_{k>=j} 2^(k-j) alpha_kk^(-1/2))^2.
    """
    overlaps = np.asarray(overlaps, dtype=float)
    l = a.size
    if overlaps.shape != (l,):
        raise ValueError("need one overlap per subspace")
    lower = 0.0
    for j in range(l):
        lower = max(lower, overlaps[j] * (1.0 - float(a.alpha[: j + 1, j].sum())))
    diag = np.diag(a.alpha)
    coeff = np.array(
        [sum(2.0 ** (k - j) / np.sqrt(diag[k]) for k in range(j, l)) for j in range(l)]
    )
    upper = float(np.dot(np.sqrt(np.maximum(overlaps, 0.0)), coeff)) ** 2
    return lower, upper


def gao_slack(projectors: list[np.ndarray], rho: np.ndarray) -> float | np.ndarray:
    """Slack in the noncommutative union bound.

    Returns Tr[P_k ... P_1 rho P_1 ... P_k] - (Tr rho - 4 sum_i Tr[rho (1-P_i)]);
    non-negative (within tolerance) for any projectors P_i and PSD rho with
    Tr rho <= 1.  rho and each P_i may be (..., d, d) stacks, one chain per
    matrix, which give an array of slacks.
    """
    rho = np.asarray(rho, dtype=complex)
    sandwiched = rho.copy()
    penalty = 0.0
    for p in projectors:
        penalty += np.trace(rho @ (np.eye(p.shape[-1]) - p), axis1=-2, axis2=-1).real
        sandwiched = p @ sandwiched @ p
    lhs = np.trace(sandwiched, axis1=-2, axis2=-1).real
    rhs = np.trace(rho, axis1=-2, axis2=-1).real - 4.0 * penalty
    return lhs - rhs
