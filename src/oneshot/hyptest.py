"""Exact optimal hypothesis tests and one-shot entropic quantities.

All entropies are base-2 (rates in bits).  The classical solver is a greedy
likelihood-ratio test with a fractional boundary outcome; the quantum solver
is the Neyman-Pearson construction with a fractional weight on the
zero-crossing eigenvalue cluster, whose trade-off parameter is found by a
bracketed Newton root-find that reads each step from that step's
eigenpairs.  It solves stacks of block-diagonal pairs (optimal_tests): a
cq pair on its letter blocks, and many pairs in lockstep, one stacked eigh
per step over the blocks of every pair not yet settled.  Every result
carries the SDP dual bound mu (1 - eps) - Tr[(mu rho - sigma)_+] at the
solver's multiplier, which certifies the optimum up to its gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    certifies how far reject_mass can be from the optimum.  steps counts the
    eigendecompositions of rho - lam sigma the quantum root-find took (0 when
    the kernel of sigma carries the target, and classically).
    """

    value_bits: float
    test: np.ndarray
    accept_prob: float
    reject_mass: float
    dual: float
    steps: int = 0

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


def _result(test: np.ndarray, accept: float, reject: float, dual: float, steps: int = 0) -> HypTestResult:
    reject = max(float(reject), 0.0)
    value = float("inf") if reject == 0.0 else float(-np.log2(reject))
    return HypTestResult(value, test, float(accept), reject, float(dual), steps)


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


def _total(x: np.ndarray) -> np.ndarray:
    """Each pair's sum of x over all its blocks; x is an (n, ...) stack."""
    return x.reshape(len(x), -1).sum(axis=-1) if x.size else np.zeros(len(x))


def _test(v: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The blocks v diag(f) v† of each pair's test, from eigenvectors v and weights f."""
    return qla.hermitian_part((v * f[..., None, :]) @ v.conj().swapaxes(-1, -2))


def _trace(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each pair's Re Tr[a b], summed over its blocks."""
    return _total((a * b.swapaxes(-1, -2)).real)


class _Spectra:
    """The eigenpairs of rho - lam sigma for each pair of an (n, m, b, b) stack, and what a step reads.

    A pair's eigenpairs are those of its m diagonal blocks, and each per-pair
    quantity sums over all of them: <v_i|sigma|v_j> is 0 between blocks.
    The cluster gap is CLUSTER_GAP or GAP_ULPS rounding units of the norm of
    rho - lam*sigma, whichever is larger: eigh's rounding grows with that
    norm, and near lam ~ 1e8 it passes 1e-9.  accept is
    g(lam) = sum_{w_i > gap} <v_i|rho|v_i>, the acceptance of the
    strictly-positive projector, and cluster the mass of the zero cluster
    |w_i| <= gap.  Each w_i moves with slope -slope_i = -<v_i|sigma|v_i> in
    lam; between crossings g moves with slope
    deriv = -2 lam sum_{i in +, j not in +} |<v_i|sigma|v_j>|^2 / (w_i - w_j).
    eigh reads the lower triangle of each block of rho - lam sigma.
    """

    HELD = ("lam", "w", "v", "pos", "zero", "acc", "accept", "slope")

    def __init__(self, rho: np.ndarray, sigma: np.ndarray, lam: np.ndarray):
        w, v = np.linalg.eigh(rho - lam[:, None, None, None] * sigma)
        mag = np.abs(w)
        norm = _max(mag)
        gap = np.maximum(GAP_ULPS * _ULP * norm, CLUSTER_GAP)
        self.lam, self.w, self.v, self.gap = lam, w, v, gap
        self.edge = gap - np.maximum(gap * 2.0**-14, MARGIN_ULPS * _ULP * norm)
        gap = gap[:, None, None]
        self.pos, self.zero = w > gap, mag <= gap
        vc = v.conj()
        self.acc = (vc * (rho @ v)).sum(axis=-2).real
        self.accept = _total(self.acc * self.pos)
        s = vc.swapaxes(-1, -2) @ sigma @ v
        self.slope = s.diagonal(0, -2, -1).real
        # i in +, j not in +
        cross = self.pos[..., :, None] > self.pos[..., None, :]
        spread = w[..., :, None] - w[..., None, :]
        ratio = np.divide(np.abs(s) ** 2, spread, out=np.zeros(s.shape), where=cross)
        self.deriv = (-2.0 * lam) * _total(ratio)

    @property
    def cluster(self) -> np.ndarray:
        return _total(self.acc * self.zero)

    def take(self, rows: np.ndarray) -> "_Spectra":
        """The fields the final tests and duals read, of the pairs at rows."""
        out = object.__new__(_Spectra)
        for name in self.HELD:
            setattr(out, name, getattr(self, name)[rows])
        return out

    def put(self, rows: np.ndarray, other: "_Spectra", at: np.ndarray) -> None:
        """Overwrite the taken fields of the pairs at rows with other's pairs at at."""
        for name in self.HELD:
            getattr(self, name)[rows] = getattr(other, name)[at]

    def settled(self, target: np.ndarray) -> np.ndarray:
        """Each pair on the rejecting side and next to its multiplier.

        Either g is within REL_WIDTH * lam of its smooth root, or a fraction
        of the zero cluster closes the target and the latest crossing sits
        within one margin of the edge, where a bisection on the gap would stop.
        """
        short = target - self.accept
        tol = np.maximum(self.deriv * (-REL_WIDTH * self.lam), ROUND)
        done = short <= tol
        closed = ~done & (short - self.cluster <= tol)
        if closed.any():
            top = _max(np.where(self.zero & (self.slope > 0), self.w, -np.inf))
            done |= closed & (top >= 2.0 * self.edge - self.gap)
        return done


def _max(x: np.ndarray) -> np.ndarray:
    """Each pair's largest entry of x over all its blocks."""
    return x.reshape(len(x), -1).max(axis=-1)


def _newton_offsets(sp: _Spectra, target: np.ndarray) -> np.ndarray:
    """Each pair's offset from sp.lam to the multiplier its first-order model predicts.

    The multiplier is the crossing of the bracket's predicate g(lam) >= 1 - eps
    from above.  The model moves every eigenvalue along its slope and g along
    deriv, and drops (or, walking left, regains) <v_i|rho|v_i> where w_i
    crosses the gap.  Walk those crossings from sp toward the multiplier: if
    the target falls in the jump of crossing i, land where w_i sits just
    inside the gap; if it falls in a smooth piece, land on the Newton root of
    that piece, REL_WIDTH * lam / 2 to its right.  Both landings are on the
    rejecting side, next to the crossing.  nan where the model has no root.
    The crossing times are one array over the stack; each pair's walk to
    its first crossing is then a few floats, and a pair that passes it
    reads the full walk (_walk), taken once for the stack.
    """
    n = len(sp.lam)
    right = sp.accept >= target
    sign = np.where(right, 1.0, -1.0)
    moving = (sp.pos == right[:, None, None]) & (sp.slope > 0)
    dist = (sp.w - sp.edge[:, None, None]) * sign[:, None, None]
    times = np.divide(dist, sp.slope, out=np.full(dist.shape, np.inf), where=moving).reshape(n, -1)
    np.maximum(times, 0.0, out=times)
    rows = np.arange(n)
    first = times.argmin(axis=1)
    excess = np.abs(sp.accept - target)
    # most walks stop at or before their first crossing: the smooth piece to
    # it, or its jump, passes the target
    firsts = zip(excess.tolist(), times[rows, first].tolist(), sp.acc.reshape(n, -1)[rows, first].tolist())
    deriv, lam, signs, walked, out = sp.deriv.tolist(), sp.lam.tolist(), sign.tolist(), None, []
    for i, (e, t, jump) in enumerate(firsts):
        before = e + deriv[i] * t  # nan for a pair with no crossing and deriv 0
        if before > 0.0 and before - jump > 0.0:
            if walked is None:
                walked = [x.tolist() for x in _walk(sp, times, excess)]
            e, t, smooth = walked[0][i], walked[1][i], walked[2][i]
        elif before > 0.0:
            smooth = False
        else:
            t, smooth = 0.0, True
        if not smooth:
            out.append(signs[i] * t)
        elif deriv[i] == 0.0:
            out.append(math.nan)
        else:
            out.append(signs[i] * (t - e / deriv[i]) + REL_WIDTH * lam[i] / 2.0)
    return np.array(out)


def _walk(sp: _Spectra, times: np.ndarray, excess: np.ndarray) -> tuple:
    """Walk every crossing in time order: (excess, t, smooth) where each pair's walk stops.

    The walk is one running sum per pair of how far g is on the near side of
    the target, alternating the smooth moves deriv (t_k - t_{k-1}) and the
    jumps, and ending in a move to minus infinity past the last crossing.
    Its first non-positive term is a smooth piece that passes the target
    (smooth: a Newton root from the crossing at time t, with excess left) or
    a jump that does (a landing on the crossing at time t).
    """
    n = len(times)
    order = times.argsort(axis=1, kind="stable")
    rows = np.arange(n)
    # t_0 = 0, the crossings in time order (infinite where none), and one more at infinity
    t = np.zeros((n, times.shape[1] + 2))
    t[:, 1:-1] = times[rows[:, None], order]
    t[:, -1] = np.inf
    walk = np.empty((n, 2 * t.shape[1] - 1))
    walk[:, 0] = excess
    # past the last crossing the moves are infinite or nan, and the walk stops there
    with np.errstate(invalid="ignore"):
        walk[:, 1::2] = sp.deriv[:, None] * np.diff(t, axis=1)
    walk[:, 2:-1:2] = -sp.acc.reshape(n, -1)[rows[:, None], order]
    walk[:, -1] = 0.0
    np.cumsum(walk, axis=1, out=walk)
    # hit = 2k: the jump of crossing k closes the target; 2k - 1: the smooth piece before it
    hit = (~(walk[:, 1:] > 0.0)).argmax(axis=1) + 1
    return walk[rows, hit - 1], t[rows, hit // 2], hit % 2 == 1


def _dual(target, w: np.ndarray, lam) -> np.ndarray:
    """The SDP dual mu target - Tr[(mu rho - sigma)_+] at mu = 1/lam.

    w holds the (n, m, b) spectra of rho - lam sigma, one row per pair.
    """
    return (target - _total(np.where(w > 0, w, 0.0))) / lam


def _kink_dual(rho: np.ndarray, sigma: np.ndarray, target: np.ndarray, sp: _Spectra) -> np.ndarray:
    """Each pair's largest dual at mu = 1/sp.lam and at the kinks of its zero cluster.

    Each zero-cluster eigenvalue w_i moves with slope -<v_i|sigma|v_i> in
    lam; the dual peaks at the kink where one of them crosses zero.  A pair's
    kinks equal as floats share one spectrum, and the spectra of every
    pair's distinct kinks are taken as one stack.
    """
    lam = sp.lam[:, None, None]
    at = sp.zero & (sp.slope > 0) & (sp.w > -lam * sp.slope)
    pair = np.nonzero(at)[0]
    kink = (lam + sp.w / np.where(at, sp.slope, 1.0))[at]
    order = np.lexsort((kink, pair))
    pair, kink = pair[order], kink[order]
    new = np.ones(len(kink), dtype=bool)
    new[1:] = (pair[1:] != pair[:-1]) | (kink[1:] != kink[:-1])
    pair, kink = pair[new], kink[new]
    dual = _dual(target, sp.w, sp.lam)
    if kink.size:
        w = np.linalg.eigvalsh(rho[pair] - kink[:, None, None, None] * sigma[pair])
        np.maximum.at(dual, pair, _dual(target[pair], w, kink))
    return dual


def _solve(rho, sigma, eps) -> tuple:
    """optimal_tests as arrays: each pair's test blocks, acceptance, alternate mass, dual and step count."""
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.ndim != 4 or rho.shape != sigma.shape or rho.shape[-1] != rho.shape[-2]:
        raise ValueError("rho and sigma must be (n, m, b, b) stacks of one shape")
    n = len(rho)
    target = np.ones(n) - eps
    if not ((0.0 < target) & (target <= 1.0)).all():
        raise ValueError("eps must be in [0, 1)")
    tr_sigma = _total(np.diagonal(sigma, axis1=-2, axis2=-1).real)
    scale = 2.0 ** np.round(np.log2(np.where(tr_sigma > 0, tr_sigma, 1.0)))
    sigma = sigma / scale[:, None, None, None]

    sw, sv = np.linalg.eigh(sigma)
    cutoff = np.maximum(1e-12 * _max(sw), 1e-12)[:, None, None]
    inside = sw <= cutoff
    tests, accept, reject, dual = np.zeros_like(rho), np.zeros(n), np.zeros(n), np.zeros(n)
    steps, ker = np.zeros(n, dtype=int), np.zeros(n, dtype=bool)
    if inside.any():
        a_ker = _total((sv.conj() * (rho @ sv)).sum(axis=-2).real * inside)
        # supported on the kernel of sigma up to the cutoff: rejects nothing, dual 0
        ker = a_ker >= target
        tests = _test(sv, np.divide(target, a_ker, out=np.zeros(n), where=ker)[:, None, None] * inside)
        accept = _trace(tests, rho)
        sw = np.where(inside, np.inf, sw)
    live = np.flatnonzero(~ker)
    if live.size:
        r, s, tg, sw, sv = (rho, sigma, target, sw, sv) if live.size == n else (x[live] for x in (rho, sigma, target, sw, sv))
        # the largest eigenvalue of rho against sigma on its support: past it
        # nothing there is accepted
        w = sv / np.sqrt(sw)[..., None, :]
        lam_max = _max(np.linalg.eigvalsh(w.conj().swapaxes(-1, -2) @ r @ w)) * (1.0 + 2.0**-20) + CLUSTER_GAP
        sp, steps[live] = _root_find(r, s, tg, lam_max, live)
        cluster = sp.cluster
        a_zero = np.where(cluster > 1e-15, cluster, 1.0)
        t = np.where(cluster > 1e-15, np.clip((tg - sp.accept) / a_zero, 0.0, 1.0), 0.0)
        pi = _test(sp.v, sp.pos + t[:, None, None] * sp.zero)
        got = _trace(pi, r)
        short = np.flatnonzero(got < tg - ACCEPT_TOL)
        if short.size:
            i = short[0]
            raise ValueError(f"pair {live[i]}: acceptance {got[i]} fell short of {tg[i]} (degenerate inputs)")
        tests[live], accept[live], reject[live] = pi, got, _trace(pi, s)
        dual[live] = _kink_dual(r, s, tg, sp)
    return tests, accept, scale * reject, scale * dual, steps


def _root_find(rho, sigma, target, lam_max, names) -> tuple[_Spectra, np.ndarray]:
    """The spectra at each pair's multiplier and each pair's step count, all pairs in lockstep.

    lam_max brackets the multiplier when sigma has full support; otherwise
    the kernel keeps part of rho accepted at every lam, so a pair doubles its
    bracket (up) until the acceptance drops below the target.  Each step's
    array work is one stack over the pairs not yet stopped (act, in the
    order of the rows of rho and sigma); the bracket, the safeguard and the
    stopping rule then read each pair's few numbers as Python floats.  older
    and prev are half the last two steps' sizes, entered the spectra taken
    when a pair left its bracket, and row and last where its spectra at hi
    are.  names are the pairs' indices in the caller's stack, for the error.
    """
    n = len(rho)
    lo, hi, tg = [0.0] * n, lam_max.tolist(), target.tolist()
    lam, older, prev = list(hi), [math.inf] * n, [math.inf] * n
    up, entered, steps, last, row = [True] * n, [0] * n, [0] * n, [0] * n, [0] * n
    act, taken = list(range(n)), []
    while True:
        sp = _Spectra(rho, sigma, np.array([lam[i] for i in act]))
        taken.append(sp)
        k = len(taken)
        below = (sp.accept < target).tolist()
        settled = sp.settled(target).tolist() if any(b and not up[i] for i, b in zip(act, below)) else None
        stops = []
        for j, i in enumerate(act):
            if below[j]:
                last[i], row[i], hi[i] = k - 1, j, lam[i]
                stop = not up[i] and settled[j]
                up[i], entered[i] = False, entered[i] or k
            else:
                lo[i], stop = lam[i], False
                if up[i]:
                    if k >= BRACKET_DOUBLINGS:
                        raise ValueError(
                            f"pair {names[i]}: no multiplier brings the acceptance below 1 - eps (degenerate inputs)"
                        )
                    hi[i] = 2.0 * lam[i]
            if not up[i] and (hi[i] - lo[i] <= REL_WIDTH * hi[i] or k - entered[i] >= ROOT_STEPS):
                stop = True
            stops.append(stop)
        if all(stops):
            for i in act:
                steps[i] = k
            break
        offsets = _newton_offsets(sp, target).tolist()
        for j, i in enumerate(act):
            if stops[j]:
                steps[i] = k
            elif up[i]:
                lam[i], older[i], prev[i] = hi[i], prev[i], math.inf
            else:
                d = offsets[j]
                step = lam[i] + d
                if not (lo[i] < step < hi[i] and abs(d) <= older[i]):
                    step = math.sqrt(lo[i] * hi[i]) if lo[i] > 0.0 and hi[i] > 4.0 * lo[i] else (lo[i] + hi[i]) / 2.0
                older[i], prev[i], lam[i] = prev[i], abs(step - lam[i]) / 2.0, step
        if any(stops):
            keep = ~np.array(stops)
            rho, sigma, target = rho[keep], sigma[keep], target[keep]
            act = [i for i, stop in zip(act, stops) if not stop]
    # each pair's spectra at its hi
    held = None
    for k in sorted(set(last)):
        pairs = [i for i in range(n) if last[i] == k]
        rows, sp = np.array([row[i] for i in pairs]), taken[k]
        if len(pairs) == n:
            return sp.take(rows), np.array(steps)
        if held is None:
            held = sp.take(np.zeros(n, dtype=int))
        held.put(np.array(pairs), sp, rows)
    return held, np.array(steps)


def optimal_tests(rho: np.ndarray, sigma: np.ndarray, eps) -> list[HypTestResult]:
    """Exact quantum D_H^eps for each pair of an (n, m, b, b) stack of block-diagonal pairs.

    Pair i is the direct sum of the m blocks rho[i, j] against the direct sum
    of sigma[i, j] (a cq pair has one block per letter, a single pair m = 1),
    at its own eps[i] (a scalar eps serves every pair).  Each result's test is
    its (m, b, b) stack of blocks, and steps counts the eigendecompositions of
    rho - lam sigma its root-find took.

    Pi(lam) is the projector onto the strictly-positive eigenspace of
    rho - lam*sigma plus a fractional multiple of the zero-crossing cluster;
    lam is the point where the acceptance g(lam) of the strictly-positive
    part falls below 1 - eps, so Tr[Pi rho] = 1 - eps within 1e-9.  Optimal
    among all operators 0 <= Pi <= 1.  When the kernel of sigma alone carries
    1 - eps of rho, the optimum rejects nothing and is a multiple of the
    kernel projector.

    lam is found by a bracketed, safeguarded Newton iteration that reads each
    step from that step's eigenpairs (_newton_offsets): on an eigenvalue
    crossing the cluster gap when the target lies in a jump of g, on g
    itself when it lies in a smooth piece.  A step that leaves the bracket,
    or is not half the step before last, is replaced by a bisection
    (geometric when the bracket spans more than a factor 4).  The iteration
    stops on the rejecting side once it is settled (_Spectra.settled), or
    when the bracket is narrower than REL_WIDTH*lam, and the test is built
    from the eigendecomposition taken there.  The pairs run in lockstep:
    each step is one stacked eigh over the blocks of every pair not yet
    stopped, and a pair reads only its own blocks, so its result is the same,
    bit for bit, in any stack.

    The dual is evaluated at mu = 1/lam and at the first-order zero crossing
    of each zero-cluster eigenvalue, which lands on the kink the root-find
    stops short of, with one spectrum per distinct kink (_kink_dual).  sigma
    is solved at the power-of-two scale nearest unit trace, which is exact.
    A degenerate pair raises ValueError naming its index in the stack.
    """
    tests, accept, reject, dual, steps = _solve(rho, sigma, eps)
    return [_result(tests[i], accept[i], reject[i], dual[i], int(steps[i])) for i in range(len(tests))]


def quantum_optimal_test(rho: np.ndarray, sigma: np.ndarray, eps: float) -> HypTestResult:
    """Exact quantum D_H^eps(rho || sigma): optimal_tests on a stack of one, its test one matrix."""
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise ValueError("rho and sigma must have the same dimension")
    res = optimal_tests(rho[None, None], sigma[None, None], eps)[0]
    return replace(res, test=res.test[0])


def cq_optimal_tests(weights, rhos, sigma_sets, eps: float) -> list[tuple[HypTestResult, list[np.ndarray]]]:
    """D_H^eps between sum_x w_x |x><x| (x) rho_x and sum_x w_x |x><x| (x) sigma_x, for each set of sigma_x.

    All sets are solved as one stack (optimal_tests) on the letter blocks
    w_x rho_x and w_x sigma_x; no block-diagonal matrix is formed.  Returns,
    per set, the result and each letter's Hermitian block T_x of the test:
    by the Neyman-Pearson form, T_x is itself optimal for
    D_H(rho_x || sigma_x) at eps_x = 1 - Tr[T_x rho_x] (Wang-Renner 2012,
    PRL 108, 200501).
    """
    w = np.asarray(weights, dtype=float)[:, None, None]
    sigma = w * np.asarray(sigma_sets, dtype=complex)
    rho = np.broadcast_to(w * np.asarray(rhos, dtype=complex), sigma.shape)
    return [(res, list(res.test)) for res in optimal_tests(rho, sigma, eps)]


def cq_optimal_test(weights, rhos, sigmas, eps: float) -> tuple[HypTestResult, list[np.ndarray]]:
    """cq_optimal_tests of one set of alternates."""
    return cq_optimal_tests(weights, rhos, [sigmas], eps)[0]


def marginal_product(rho_ab: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """rho_A (x) rho_B, the alternate of the hypothesis testing mutual information."""
    da, db = int(dims[0]), int(dims[1])
    rho_a = qla.partial_trace(rho_ab, (da, db), keep=[0])
    rho_b = qla.partial_trace(rho_ab, (da, db), keep=[1])
    return np.kron(rho_a, rho_b)


def ih_mutual(rho_ab: np.ndarray, dims: tuple[int, int], eps: float) -> float:
    """Hypothesis testing mutual information D_H^eps(rho_AB || rho_A x rho_B)."""
    return quantum_optimal_test(rho_ab, marginal_product(rho_ab, dims), eps).value_bits


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
