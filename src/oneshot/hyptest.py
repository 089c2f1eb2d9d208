"""Exact optimal hypothesis tests and one-shot entropic quantities.

All entropies are base-2 (rates in bits).  The classical solver is a greedy
likelihood-ratio test with a fractional boundary outcome; the quantum solver
is the Neyman-Pearson construction with a fractional weight on the
zero-crossing eigenvalue cluster, whose trade-off parameter is found by a
bracketed Newton root-find that reads each step from that step's
eigenpairs, about six eigendecompositions per solve.  Every result carries
the SDP dual bound mu (1 - eps) - Tr[(mu rho - sigma)_+] at the solver's
multiplier, which certifies the optimum up to its gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qla

ACCEPT_TOL = 1e-9
# the zero-cluster half-width: CLUSTER_GAP, or GAP_ULPS rounding units of
# ||rho - lam sigma|| if larger; a crossing step lands MARGIN_ULPS rounding
# units (and at least 2^-14 gap) inside it
CLUSTER_GAP = 1e-9
GAP_ULPS = 2**16
MARGIN_ULPS = 64
REL_WIDTH = 1e-12  # the root-find stops at a bracket narrower than REL_WIDTH * lam
ROOT_STEPS = 100  # a cap; the safeguarded steps take at most about twice a bisection's
BRACKET_DOUBLINGS = 64
_ULP = np.finfo(float).eps
ROUND = 8 * _ULP  # an acceptance shortfall at rounding level
DILATION_SNAP = 1e-12  # a POVM eigenvalue this close to 0 or 1 is taken as 0 or 1


@dataclass(frozen=True)
class HypTestResult:
    """Optimal test for one hypothesis-testing relative entropy instance.

    value_bits is -log2 of the acceptance of the alternate hypothesis
    (math.inf when that mass is exactly zero); test is the optimizer, a
    vector over the sample space classically or a POVM element quantumly.
    dual is mu (1 - eps) - Tr[(mu rho - sigma)_+] at the solver's multiplier
    mu, a lower bound on the optimal alternate mass by weak duality, so gap
    certifies how far reject_mass can be from the optimum.
    """

    value_bits: float
    test: np.ndarray
    accept_prob: float
    reject_mass: float
    dual: float

    def __post_init__(self):
        if self.accept_prob < -1e-12 or self.accept_prob > 1 + 1e-9:
            raise ValueError(f"accept_prob {self.accept_prob} outside [0, 1]")
        if self.reject_mass > 0:
            dev = abs(self.value_bits + np.log2(self.reject_mass))
            if dev > ACCEPT_TOL:
                raise ValueError(f"value_bits inconsistent with reject_mass ({dev:.2e})")

    @property
    def gap(self) -> float:
        return self.reject_mass - self.dual


def _result(test: np.ndarray, accept: float, reject: float, dual: float) -> HypTestResult:
    reject = max(float(reject), 0.0)
    value = float("inf") if reject == 0.0 else float(-np.log2(reject))
    return HypTestResult(value, test, float(accept), reject, float(dual))


def dh_classical(p: np.ndarray, q: np.ndarray, eps: float) -> HypTestResult:
    """Exact classical hypothesis testing relative entropy D_H^eps(p || q).

    Outcomes are accepted greedily by likelihood ratio p/q descending (q = 0,
    p > 0 outcomes first); the boundary outcome is accepted fractionally so
    the acceptance of p equals 1 - eps exactly.  The LP dual at the boundary
    ratio mu = q_b / p_b equals the optimum.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError("p and q must be vectors on the same sample space")
    if np.any(p < -1e-12) or np.any(q < -1e-12):
        raise ValueError("negative probabilities")
    if abs(p.sum() - 1.0) > 1e-10 or abs(q.sum() - 1.0) > 1e-10:
        raise ValueError("p and q must each sum to 1")
    if not 0 <= eps < 1:
        raise ValueError("eps must be in [0, 1)")

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(q > 0, p / np.where(q > 0, q, 1.0), np.where(p > 0, np.inf, 0.0))
    order = np.argsort(-ratio, kind="stable")

    f = np.zeros_like(p)
    target = 1.0 - eps
    cum = 0.0
    b = None
    for i in order:
        if p[i] <= 0.0:
            continue
        b = i
        if cum + p[i] < target:
            f[i] = 1.0
            cum += p[i]
        else:
            f[i] = (target - cum) / p[i]
            cum = target
            break
    accept = float(np.dot(f, p))
    reject = float(np.dot(f, q))
    mu = q[b] / p[b] if b is not None and q[b] > 0 else 0.0
    return _result(f, accept, reject, mu * target - np.maximum(mu * p - q, 0.0).sum())


class _Spectrum:
    """The eigenpairs of rho - lam*sigma and what one root-find step reads from them.

    The cluster gap is CLUSTER_GAP or GAP_ULPS rounding units of the norm of
    rho - lam*sigma, whichever is larger: eigh's rounding grows with that
    norm, and near lam ~ 1e8 it passes 1e-9.  accept is
    g(lam) = sum_{w_i > gap} <v_i|rho|v_i>, the acceptance of the
    strictly-positive projector, and cluster the mass of the zero cluster
    |w_i| <= gap.  Each w_i moves with slope -slope_i = -<v_i|sigma|v_i> in
    lam; between crossings g moves with slope
    deriv = -2 lam sum_{i in +, j not in +} |<v_i|sigma|v_j>|^2 / (w_i - w_j).
    """

    def __init__(self, rho: np.ndarray, sigma: np.ndarray, lam: float):
        w, v = np.linalg.eigh(qla.hermitian_part(rho - lam * sigma))
        self.lam, self.w, self.v = lam, w, v
        norm = max(-w[0], w[-1])
        self.gap = max(CLUSTER_GAP, GAP_ULPS * _ULP * norm)
        self.edge = self.gap - max(self.gap * 2.0**-14, MARGIN_ULPS * _ULP * norm)
        self.pos = w > self.gap
        self.zero = np.abs(w) <= self.gap
        self.acc = (v.conj() * (rho @ v)).sum(axis=0).real
        self.accept = float(self.acc[self.pos].sum())
        self.cluster = float(self.acc[self.zero].sum())
        s = v.conj().T @ sigma @ v
        self.slope = s.diagonal().real
        out = ~self.pos
        spread = w[self.pos][:, None] - w[out][None, :]
        cross = np.abs(s[self.pos][:, out]) ** 2
        self.deriv = -2.0 * lam * float((cross / spread).sum()) if spread.size else 0.0

    def settled(self, target: float, width: float) -> bool:
        """On the rejecting side and next to the multiplier.

        Either g is within width of its smooth root, or a fraction of the
        zero cluster closes the target and the latest crossing sits within
        one margin of the edge, where a bisection on the gap would stop.
        """
        tol = max(-self.deriv * width, ROUND)
        if target - self.accept <= tol:
            return True
        moving = self.zero & (self.slope > 0)
        return (
            target - self.accept - self.cluster <= tol
            and self.w[moving].max(initial=-np.inf) >= 2.0 * self.edge - self.gap
        )


def _newton_offset(sp: _Spectrum, target: float, width: float) -> float | None:
    """Offset from sp.lam to the multiplier the first-order model of sp predicts.

    The multiplier is the crossing of the bracket's predicate g(lam) >= 1 - eps
    from above.  The model moves every eigenvalue along its slope and g along
    deriv, and drops (or, walking left, regains) <v_i|rho|v_i> where w_i
    crosses the gap.  Walk those crossings from sp toward the multiplier: if
    the target falls in the jump of crossing i, land where w_i sits just
    inside the gap; if it falls in a smooth piece, land on the Newton root of
    that piece, width/2 to its right.  Both landings are on the rejecting
    side, next to the crossing.  None when the model has no root.
    """
    right = sp.accept >= target
    moving = (sp.pos if right else ~sp.pos) & (sp.slope > 0)
    dist = sp.w[moving] - sp.edge if right else sp.edge - sp.w[moving]
    times = np.maximum(dist / sp.slope[moving], 0.0)
    jumps = sp.acc[moving]
    # excess: how far g is on the near side of the target, shrinking along the walk
    excess, at = abs(sp.accept - target), 0.0
    for k in np.argsort(times):
        before = excess + sp.deriv * (times[k] - at)
        if before <= 0.0:
            break
        excess, at = before - jumps[k], times[k]
        if excess <= 0.0:
            return times[k] if right else -times[k]
    if sp.deriv == 0.0:
        return None
    root = at - excess / sp.deriv
    return (root if right else -root) + width / 2.0


def _dual(target: float, w: np.ndarray, lam: float) -> float:
    """The SDP dual mu target - Tr[(mu rho - sigma)_+] at mu = 1/lam, w the spectrum of rho - lam sigma."""
    return float((target - w[w > 0].sum()) / lam)


def quantum_optimal_test(rho: np.ndarray, sigma: np.ndarray, eps: float) -> HypTestResult:
    """Exact quantum D_H^eps(rho || sigma) via the Neyman-Pearson family.

    Pi(lam) is the projector onto the strictly-positive eigenspace of
    rho - lam*sigma plus a fractional multiple of the zero-crossing cluster;
    lam is the point where the acceptance g(lam) of the strictly-positive
    part falls below 1 - eps, so Tr[Pi rho] = 1 - eps within 1e-9.  Optimal
    among all operators 0 <= Pi <= 1.  When the kernel of sigma alone carries
    1 - eps of rho, the optimum rejects nothing and is a multiple of the
    kernel projector.

    lam is found by a bracketed, safeguarded Newton iteration that reads each
    step from that step's eigenpairs (_newton_offset): on an eigenvalue
    crossing the cluster gap when the target lies in a jump of g, on g
    itself when it lies in a smooth piece.  A step that leaves the bracket,
    or is not half the step before last, is replaced by a bisection
    (geometric when the bracket spans more than a factor 4).  The iteration
    stops on the rejecting side once it is settled (_Spectrum.settled), or
    when the bracket is narrower than REL_WIDTH*lam, and the test is built
    from the eigendecomposition taken there.

    The dual is evaluated at mu = 1/lam and at the first-order zero crossing
    of each zero-cluster eigenvalue, which lands on the kink the root-find
    stops short of, with one spectrum per distinct kink (_kink_dual).  sigma
    is solved at the power-of-two scale nearest unit trace, which is exact.
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise ValueError("rho and sigma must have the same dimension")
    if not 0 <= eps < 1:
        raise ValueError("eps must be in [0, 1)")
    target = 1.0 - eps
    tr_sigma = float(np.trace(sigma).real)
    scale = 2.0 ** round(np.log2(tr_sigma)) if tr_sigma > 0 else 1.0
    sigma = sigma / scale

    sw = np.linalg.eigvalsh(qla.hermitian_part(sigma))
    cutoff = max(1e-12, 1e-12 * max(sw[-1], 0.0))
    sig_supp = sw[sw > cutoff]
    if sig_supp.size < sw.size:
        w, v = np.linalg.eigh(qla.hermitian_part(sigma))
        ker = v[:, w <= cutoff]
        a_ker = float(np.trace(ker.conj().T @ rho @ ker).real)
        if a_ker >= target:
            # supported on the kernel up to the cutoff: rejects nothing, dual 0
            pi = qla.hermitian_part((target / a_ker) * (ker @ ker.conj().T))
            return _result(pi, float(np.trace(pi @ rho).real), 0.0, 0.0)
    sig_min = float(sig_supp[0]) if sig_supp.size else 1.0
    rho_inf = float(np.linalg.eigvalsh(qla.hermitian_part(rho))[-1])
    lam_max = rho_inf / sig_min + 1.0

    # lam_max brackets the multiplier when sigma has full support; otherwise
    # the kernel keeps part of rho accepted at every lam, so widen until the
    # acceptance drops below the target
    lo, hi = 0.0, lam_max
    for _ in range(BRACKET_DOUBLINGS):
        sp = _Spectrum(rho, sigma, hi)
        if sp.accept < target:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise ValueError("no multiplier brings the acceptance below 1 - eps (degenerate inputs)")
    at_hi = sp
    prev = older = np.inf  # the last two steps taken
    for _ in range(ROOT_STEPS):
        if hi - lo <= REL_WIDTH * hi:
            break
        d = _newton_offset(sp, target, REL_WIDTH * sp.lam)
        if d is not None and lo < sp.lam + d < hi and abs(d) <= abs(older) / 2.0:
            lam = sp.lam + d
        elif lo > 0.0 and hi > 4.0 * lo:
            lam = float(np.sqrt(lo * hi))
        else:
            lam = (lo + hi) / 2.0
        older, prev = prev, lam - sp.lam
        sp = _Spectrum(rho, sigma, lam)
        if sp.accept >= target:
            lo = lam
            continue
        hi, at_hi = lam, sp
        if sp.settled(target, REL_WIDTH * lam):
            break

    v, z = at_hi.v, at_hi.zero
    a_pos, a_zero = at_hi.accept, at_hi.cluster
    if a_zero > 1e-15:
        t = min(max((target - a_pos) / a_zero, 0.0), 1.0)
    else:
        t = 0.0
    vp, vz = v[:, at_hi.pos], v[:, z]
    pi = qla.hermitian_part(vp @ vp.conj().T + t * (vz @ vz.conj().T))
    accept = float(np.trace(pi @ rho).real)
    if accept < target - ACCEPT_TOL:
        raise ValueError(f"acceptance {accept} fell short of {target} (degenerate inputs)")
    reject = float(np.trace(pi @ sigma).real)
    return _result(pi, accept, scale * reject, scale * _kink_dual(rho, sigma, target, at_hi))


def _kink_dual(rho: np.ndarray, sigma: np.ndarray, target: float, sp: _Spectrum) -> float:
    """The largest dual at mu = 1/sp.lam and at the kinks of the zero cluster of sp.

    Each zero-cluster eigenvalue w_i moves with slope -<v_i|sigma|v_i> in
    lam; the dual peaks at the kink where one of them crosses zero.  Kinks
    equal as floats share one spectrum, taken one kink at a time.
    """
    z, lam = sp.zero, sp.lam
    kinks = dict.fromkeys(
        lam + wi / s for wi, s in zip(sp.w[z], sp.slope[z]) if s > 0 and wi > -lam * s
    )
    duals = [_dual(target, np.linalg.eigvalsh(qla.hermitian_part(rho - x * sigma)), x) for x in kinks]
    return max([_dual(target, sp.w, lam)] + duals)


def cq_optimal_test(
    weights, rhos, sigmas, eps: float
) -> tuple[HypTestResult, list[np.ndarray]]:
    """D_H^eps between sum_x w_x |x><x| (x) rho_x and sum_x w_x |x><x| (x) sigma_x.

    Solved once on the block-diagonal pair.  Returns the result and each
    letter's Hermitian block T_x of the test: by the Neyman-Pearson form, T_x
    is itself optimal for D_H(rho_x || sigma_x) at eps_x = 1 - Tr[T_x rho_x]
    (Wang-Renner 2012, PRL 108, 200501).
    """
    d = rhos[0].shape[0]
    n = len(weights) * d
    slices = [slice(i * d, (i + 1) * d) for i in range(len(weights))]
    rho = np.zeros((n, n), dtype=complex)
    sigma = np.zeros((n, n), dtype=complex)
    for sl, w, r, s in zip(slices, weights, rhos, sigmas):
        rho[sl, sl] = w * r
        sigma[sl, sl] = w * s
    res = quantum_optimal_test(rho, sigma, eps)
    return res, [qla.hermitian_part(res.test[sl, sl]) for sl in slices]


def ih_mutual(rho_ab: np.ndarray, dims: tuple[int, int], eps: float) -> float:
    """Hypothesis testing mutual information D_H^eps(rho_AB || rho_A x rho_B)."""
    da, db = int(dims[0]), int(dims[1])
    rho_a = qla.partial_trace(rho_ab, (da, db), keep=[0])
    rho_b = qla.partial_trace(rho_ab, (da, db), keep=[1])
    return quantum_optimal_test(rho_ab, np.kron(rho_a, rho_b), eps).value_bits


def ih_mutual_bound(da: int, db: int, eps: float) -> float:
    """Dimension bound on the hypothesis testing mutual information."""
    return (
        2.0 * np.log2(min(da, db))
        + 3.0 * np.log2(1.0 / (1.0 - eps))
        + 6.0 * np.log2(3.0)
        - 4.0
    )


def intersect_tests(fs: list[np.ndarray]) -> np.ndarray:
    """Pointwise minimum of classical tests on a common sample space."""
    fs = [np.asarray(f, dtype=float) for f in fs]
    if len({f.shape for f in fs}) != 1:
        raise ValueError("tests live on different sample spaces")
    return np.minimum.reduce(fs)


def union_tests(fs: list[np.ndarray]) -> np.ndarray:
    """Pointwise maximum of classical tests on a common sample space."""
    fs = [np.asarray(f, dtype=float) for f in fs]
    if len({f.shape for f in fs}) != 1:
        raise ValueError("tests live on different sample spaces")
    return np.maximum.reduce(fs)


def classical_jtl(
    ps: list[np.ndarray], qs: list[np.ndarray], eps: np.ndarray
) -> np.ndarray:
    """Classical joint typicality test: union over i of intersections over j.

    The returned test f satisfies sum_x p_i(x) f(x) >= 1 - sum_j eps[i, j] and
    sum_x q_j(x) f(x) <= sum_i 2^(-D_H^{eps[i,j]}(p_i || q_j)).
    """
    eps = np.asarray(eps, dtype=float)
    if eps.shape != (len(ps), len(qs)):
        raise ValueError("eps must be a t x l matrix")
    rows = []
    for i, p in enumerate(ps):
        tests = [dh_classical(p, q, eps[i, j]).test for j, q in enumerate(qs)]
        rows.append(intersect_tests(tests))
    return union_tests(rows)


def dilation_basis(pi: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the range of the Gelfand-Naimark dilation of a POVM element.

    For each eigenpair (mu, v) of pi the range gains
    sqrt(mu) v|0> + sqrt(1-mu) v|1>, so Tr[Pi' (A x |0><0|)] = Tr[pi A]
    exactly for every operator A.  Eigenvalues within DILATION_SNAP of 0 or 1
    are snapped there first: the square root would turn a rounding error e
    into a component of size sqrt(e) of the range.  One per matrix of a
    (..., d, d) stack, which is refused if any matrix is not a POVM element.
    """
    pi = np.asarray(pi, dtype=complex)
    w, v = np.linalg.eigh(qla.hermitian_part(pi))
    if w.min() < -qla.PSD_TOL or w.max() > 1 + qla.PSD_TOL:
        raise ValueError("input is not a POVM element")
    w = np.where(w < DILATION_SNAP, 0.0, np.where(w > 1.0 - DILATION_SNAP, 1.0, w))
    d = pi.shape[-1]
    basis = np.zeros(pi.shape[:-2] + (2 * d, d), dtype=complex)
    # coordinates ordered (h, ancilla) row-major: index 2*i is v_i|0>, 2*i+1 is v_i|1>
    basis[..., 0::2, :] = np.sqrt(w)[..., None, :] * v
    basis[..., 1::2, :] = np.sqrt(1.0 - w)[..., None, :] * v
    return basis


def dilate_povm(pi: np.ndarray) -> np.ndarray:
    """Gelfand-Naimark dilation of a POVM element to a projector on H x C^2.

    One per matrix of a (..., d, d) stack.
    """
    basis = dilation_basis(pi)
    return qla.hermitian_part(basis @ basis.conj().swapaxes(-1, -2))
