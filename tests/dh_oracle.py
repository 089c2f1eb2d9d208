"""Test-only reference for hyptest.quantum_optimal_test, and a near-singular D_H pair.

bisection_test is the bisection solver the package used before its Newton
root-find: it halves the bracket on the Neyman-Pearson multiplier down to an
absolute width of 1e-12 (at most 200 steps) and tests each midpoint with
dense projectors.  Only its cluster gap is the package's relative one, so it
also solves alternates whose smallest eigenvalue is far below the gap.
"""

import numpy as np

from oneshot import hyptest, qla
from oneshot.rand import random_density, rng_from_seed

BISECT_WIDTH = 1e-12
BISECT_ITERS = 200


def _split(rho, sigma, lam):
    """Spectrum of rho - lam*sigma, its gap and its strictly-positive and zero-cluster projectors."""
    w, v = np.linalg.eigh(qla.hermitian_part(rho - lam * sigma))
    gap = max(hyptest.CLUSTER_GAP, hyptest.GAP_ULPS * np.finfo(float).eps * np.abs(w).max())
    vp = v[:, w > gap]
    vz = v[:, np.abs(w) <= gap]
    return w, v, gap, vp @ vp.conj().T, vz @ vz.conj().T


def bisection_test(rho, sigma, eps):
    """D_H^eps(rho || sigma) by bisection on the multiplier, with the same dual certificate."""
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
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
            pi = qla.hermitian_part((target / a_ker) * (ker @ ker.conj().T))
            return hyptest._result(pi, float(np.trace(pi @ rho).real), 0.0, 0.0)
    sig_min = float(sig_supp[0]) if sig_supp.size else 1.0
    rho_inf = float(np.linalg.eigvalsh(qla.hermitian_part(rho))[-1])
    lam_max = rho_inf / sig_min + 1.0

    def accept_strict(lam):
        return float(np.trace(_split(rho, sigma, lam)[3] @ rho).real)

    lo, hi = 0.0, lam_max
    for _ in range(hyptest.BRACKET_DOUBLINGS):
        if accept_strict(hi) < target:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise ValueError("no multiplier brings the acceptance below 1 - eps")
    for _ in range(BISECT_ITERS):
        if hi - lo < BISECT_WIDTH:
            break
        mid = (lo + hi) / 2.0
        if accept_strict(mid) >= target:
            lo = mid
        else:
            hi = mid
    lam = hi

    w, v, gap, pos, zero = _split(rho, sigma, lam)
    a_pos = float(np.trace(pos @ rho).real)
    a_zero = float(np.trace(zero @ rho).real)
    t = min(max((target - a_pos) / a_zero, 0.0), 1.0) if a_zero > 1e-15 else 0.0
    pi = qla.hermitian_part(pos + t * zero)
    accept = float(np.trace(pi @ rho).real)
    if accept < target - hyptest.ACCEPT_TOL:
        raise ValueError(f"acceptance {accept} fell short of {target}")
    reject = float(np.trace(pi @ sigma).real)
    z = np.abs(w) <= gap
    slopes = np.einsum("ij,ik,kj->j", v[:, z].conj(), sigma, v[:, z]).real
    kinks = [lam + wi / s for wi, s in zip(w[z], slopes) if s > 0 and wi > -lam * s]
    spectra = [np.linalg.eigvalsh(qla.hermitian_part(rho - x * sigma)) for x in kinks]
    dual = max((target - wx[wx > 0].sum()) / x for wx, x in zip([w] + spectra, [lam] + kinks))
    return hyptest._result(pi, accept, scale * reject, scale * dual)


def near_singular_pair(s):
    """rho mostly along the eigenvector of sigma with eigenvalue s / trace; eps = 0.05.

    sigma has full rank, but at s = 1e-8 the multiplier is about 3e8, where
    eigh's rounding of rho - lam*sigma is about 1e-8.
    """
    rng = rng_from_seed(3)
    rho_r = random_density(rng, 4)
    u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    sigma = u @ np.diag([s, 1.0, 1.0, 1.0]) @ u.conj().T
    sigma /= np.trace(sigma).real
    rho = 0.97 * np.outer(u[:, 0], u[:, 0].conj()) + 0.03 * rho_r
    return rho, sigma, 0.05


def newton_offset_loop(sp, i: int, target: float) -> float:
    """hyptest._newton_offsets of pair i, as the package took it before its solver took stacks.

    One Python walk over the pair's crossings in time order (ties in index
    order); nan where the model has no root.
    """
    w, slope, pos, acc = sp.w[i].ravel(), sp.slope[i].ravel(), sp.pos[i].ravel(), sp.acc[i].ravel()
    lam, accept, deriv, edge = sp.lam[i], sp.accept[i], sp.deriv[i], sp.edge[i]
    width = hyptest.REL_WIDTH * lam
    right = accept >= target
    moving = (pos if right else ~pos) & (slope > 0)
    dist = w[moving] - edge if right else edge - w[moving]
    times = np.maximum(dist / slope[moving], 0.0)
    jumps = acc[moving]
    excess, at = abs(accept - target), 0.0
    for k in np.argsort(times, kind="stable"):
        before = excess + deriv * (times[k] - at)
        if before <= 0.0:
            break
        excess, at = before - jumps[k], times[k]
        if excess <= 0.0:
            return times[k] if right else -times[k]
    if deriv == 0.0:
        return np.nan
    root = at - excess / deriv
    return (root if right else -root) + width / 2.0
