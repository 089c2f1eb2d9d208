"""Test-only oracles for the smoothing construction.

box_row_construction: the intersection POVM factor formed on every row of the
box.  build_construction orthonormalises the tilted images on the
psp_count(c, k) (2|H|)^k rows of the tilted layout; this reference places
each image on the box of A'' first and orthonormalises there, on
(2|H| (1 + 2^(c+k-1)))^k rows.

The Kronecker forms of the placed embeddings: psp_local as np.kron of the
amplitude column with the identity, placed through tilt_rows, and the
ancilla isometries as qla.tensor_all chains.  typicality scatters the same
entries from its per-shape caches; these are what it must equal bit for bit.

optimal_splitting_tests: one cq-level solve, dilation and rejection basis per
pseudosubpartition and word, with no sharing between splits of equal split
states and no stack of words;
unshared_core: state_core without the instance memo, so every state
computes its own root of rho.
"""

import math

import numpy as np

from oneshot import hyptest, qla, tilting
from oneshot import typicality as tp
from decoder_oracle import rejection_block


def box_row_construction(inst, x, tests: dict):
    """q_tilted and b of the (x, 0) block, formed on the box rows with psp_local."""
    space = inst.space
    box = tp.build_rho_prime(inst, x).box
    e_hat = tp.psp_local(space, box.sites, (), inst.delta)
    images = [
        tp.psp_local(space, box.sites, psp, inst.delta) @ tests[psp].y_basis
        for psp in inst.lattice.linear_ext
    ]
    q = tilting.orthonormalize(np.hstack(images))
    return q, tilting.complement_factor(e_hat, q)


def ancilla_zero(dim_h: int) -> np.ndarray:
    """The per-site isometry H -> H x C^2, h -> h|0>."""
    return np.kron(np.eye(dim_h), np.array([[1.0], [0.0]]))


def psp_local(space, sites, psp, delta: float) -> np.ndarray:
    """T_psp on the sites' box: the amplitude column tensored with the identity, placed through tilt_rows."""
    sites = tuple(sorted(sites))
    norm = float(np.prod([tp.normalization(b, delta) for b in psp])) if psp else 1.0
    psps = tp.layout_psps(tp.classical_coords(space.c) + sites)
    amps = np.array([float(delta) ** len(w) if tp.refines(w, psp) else 0.0 for w in psps])
    n = space.base_dim
    cols = np.kron(amps[:, None], np.eye(n ** len(sites), dtype=complex)) / np.sqrt(norm)
    size = math.prod(len(space.site_labels[s]) * n for s in sites)
    return tp.place(tp.tilt_rows(space, sites, psps), size, cols)


def ancilla_embedding(inst, sites, psp) -> np.ndarray:
    """T_psp (x)_sites |0> on the sites' box."""
    anc = qla.tensor_all([ancilla_zero(inst.dim_h)] * len(sites))
    return psp_local(inst.space, sites, psp, inst.delta) @ anc


def embed_with_ancilla(rho: np.ndarray, n_sites: int, dim_h: int) -> np.ndarray:
    """rho tensored with |0><0| per site, in per-site (h, b) coordinates."""
    emb = qla.tensor_all([ancilla_zero(dim_h)] * n_sites)
    return emb @ np.asarray(rho, dtype=complex) @ emb.conj().T


def dilate_to_sites(pi: np.ndarray, n_sites: int, dim_h: int) -> np.ndarray:
    """The dilation of pi with the last site's ancilla absorbing the rejected weight."""
    f = qla.tensor_all([ancilla_zero(dim_h)] * (n_sites - 1) + [np.eye(2 * dim_h)])
    return f @ hyptest.dilate_povm(pi) @ f.conj().T


def optimal_splitting_tests(inst) -> dict:
    """typicality.optimal_splitting_tests with one solve per pseudosubpartition."""
    words = inst.words()
    eps = inst.eps_total / len(inst.lattice.linear_ext)
    out: dict = {x: {} for x in words}
    for psp in inst.lattice.linear_ext:
        splits = [inst.split_state(x, psp) for x in words]
        _, blocks = hyptest.cq_optimal_test(
            [inst.p_x[x] for x in words], [inst.rhos[x] for x in words], splits, eps
        )
        for x, t, split in zip(words, blocks, splits):
            eps_x = max(1.0 - float(np.trace(t @ inst.rhos[x]).real), 0.0)
            reject = max(float(np.trace(t @ split).real), 0.0)
            dh_bits = math.inf if reject == 0.0 else float(-np.log2(reject))
            y_basis = rejection_block(tp.dilate_to_sites(t, inst.k, inst.dim_h))
            out[x][psp] = tp.SplitTest(psp, eps_x, dh_bits, reject, y_basis)
    return out


def unshared_core(inst, rho):
    """A copy of rho and its root, computed afresh on every call."""
    return rho.copy(), tp.sqrt_factor(rho)
