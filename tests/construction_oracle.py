"""Test-only oracle: the intersection POVM factor formed on every row of the box.

build_construction orthonormalises the tilted images on the psp_count(c, k)
(2|H|)^k rows of the tilted layout; this reference places each image on the
box of A'' first and orthonormalises there, on (2|H| (1 + 2^(c+k-1)))^k rows.
"""

import numpy as np

from oneshot import tilting
from oneshot import typicality as tp


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
