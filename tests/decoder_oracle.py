"""Test-only oracles for the cq decoder build, one matrix at a time.

dilation_block, dilate_block and rejection_block: the Gelfand-Naimark
dilation and the rejection basis of one POVM element, as the package took
them before its helpers accepted stacks.  per_block_decoding_set: the cq
decoder built letter pair by letter pair, with one dilation and rejection
basis per test block and one tilted basis per letter pair, however many
pairs share their bases.  per_kink_dual: the dual certificate of
hyptest.optimal_tests with one spectrum per kink and pair, equal kinks
included.  The package must equal these bit for bit.
"""

import numpy as np

from oneshot import hyptest, mac, qla, tilting


def dilation_block(pi: np.ndarray) -> np.ndarray:
    """hyptest.dilation_basis of one POVM element."""
    pi = np.asarray(pi, dtype=complex)
    w, v = np.linalg.eigh(qla.hermitian_part(pi))
    if w[0] < -qla.PSD_TOL or w[-1] > 1 + qla.PSD_TOL:
        raise ValueError("input is not a POVM element")
    snap = hyptest.DILATION_SNAP
    w = np.where(w < snap, 0.0, np.where(w > 1.0 - snap, 1.0, w))
    d = pi.shape[0]
    basis = np.zeros((2 * d, d), dtype=complex)
    basis[0::2, :] = np.sqrt(w)[None, :] * v
    basis[1::2, :] = np.sqrt(1.0 - w)[None, :] * v
    return basis


def dilate_block(pi: np.ndarray) -> np.ndarray:
    """hyptest.dilate_povm of one POVM element."""
    basis = dilation_block(pi)
    return qla.hermitian_part(basis @ basis.conj().T)


def rejection_block(dilated: np.ndarray) -> np.ndarray:
    """tilting.rejection_basis of one dilated test: the eigenvectors of eigenvalue below 1/2."""
    w, v = np.linalg.eigh(dilated)
    return v[:, w < 0.5]


def per_block_decoding_set(spec, dim_l: int, delta: float, eps: float) -> dict:
    """mac.build_decoding_povms with every block and letter pair built on its own.

    Returns the DecodingSet fields: i_x_yz, i_y_xz, i_xy_z, w_x, w_y, w_xy
    and local.
    """
    chan = mac.PerturbedChannel(spec, dim_l, delta)
    letters = [(x, y) for x in range(spec.nx) for y in range(spec.ny)]
    weights = [spec.p_x[x] * spec.p_y[y] for x, y in letters]
    states = [spec.states[x, y] for x, y in letters]

    def solve(alternates):
        res, blocks = hyptest.cq_optimal_test(weights, states, alternates, eps)
        return res, {xy: rejection_block(dilate_block(blk)) for xy, blk in zip(letters, blocks)}

    res_x, w_x = solve([spec.avg_x(x) for x, _ in letters])
    res_y, w_y = solve([spec.avg_y(y) for _, y in letters])
    res_xy, w_xy = solve([spec.avg() for _ in letters])
    a = np.eye(2) * delta**2 / (1 + delta**2)
    layout, e = tilting.TiltedLayout(chan.base, 2), chan.local_tilt()
    local = {}
    for xy in letters:
        q = tilting.tilted_basis([w_x[xy], w_y[xy]], a, layout, fixed=w_xy[xy])
        local[xy] = tilting.complement_factor(e, q)
    return {
        "i_x_yz": res_y.value_bits, "i_y_xz": res_x.value_bits, "i_xy_z": res_xy.value_bits,
        "w_x": w_x, "w_y": w_y, "w_xy": w_xy, "local": local,
    }


def per_kink_dual(rho, sigma, target, sp) -> np.ndarray:
    """hyptest._kink_dual with one eigvalsh per pair and kink, repeats included."""
    duals = []
    for i in range(len(sp.lam)):
        lam, w, z, slope = sp.lam[i], sp.w[i], sp.zero[i], sp.slope[i]
        kinks = [lam + wi / s for wi, s in zip(w[z], slope[z]) if s > 0 and wi > -lam * s]
        spectra = [np.linalg.eigvalsh(rho[i] - x * sigma[i]) for x in kinks]
        duals.append(max(
            hyptest._dual(target[i], wx[None], x)[0] for wx, x in zip([w] + spectra, [lam] + kinks)
        ))
    return np.array(duals)
