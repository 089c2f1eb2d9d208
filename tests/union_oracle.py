"""Test-only oracle: the union of intersections formed on every row of the box.

union_of_intersections forms the tilted union on W x C^2, W the span of the
intersection factors; this reference forms it on (box of A'') x C^2, where
the row count grows as 2 x box rows x (t + 1).
"""

import numpy as np

from oneshot import hyptest, report, tilting
from oneshot import typicality as tp


def box_row_union(instances: list, alpha: float) -> list:
    """The checks of union_of_intersections, with the union formed on the box rows."""
    first = instances[0]
    n = first.space.box(tp.quantum_sites(first.k), tp.zero_labels(first.space)).size
    constructions = [tp.build_construction(inst, ()) for inst in instances]
    ranges = [hyptest.dilation_basis(c.b @ c.b.conj().T) for c in constructions]
    layout = tilting.TiltedLayout(2 * n, len(instances))
    union = tilting.tilted_basis(ranges, alpha * np.eye(len(instances)), layout)

    def lift(state):
        cols = state.core_sqrt_cols()
        lifted = np.zeros((layout.total_dim, cols.shape[1]), dtype=complex)
        lifted[0 : 2 * n : 2, :] = cols
        return lifted

    def accept(basis, lifted):
        return float(np.linalg.norm(basis.conj().T @ lifted[: basis.shape[0]]) ** 2)

    checks = []
    params = {"t": len(instances), "alpha": alpha}
    for i, constr in enumerate(constructions):
        inner = constr.pi_prime_expectation(constr.rho_prime)
        outer = accept(union, lift(constr.rho_prime))
        checks.append(
            report.AuditCheck(
                "union_completeness_drop", inner - outer, alpha, 1e-9, dict(params, i=i)
            )
        )
        if len(instances) == 1:
            checks.append(
                report.AuditCheck(
                    "union_single_reduces", abs(outer - (1 - alpha) * inner), 0.0, 1e-9, params
                )
            )
    for i, inst in enumerate(instances):
        for psp in inst.lattice.linear_ext:
            lifted = lift(tp.split_embedded(inst, (), psp, constructions[i].box))
            rhs = (1 - alpha) / alpha * sum(accept(r, lifted) for r in ranges)
            checks.append(
                report.AuditCheck(
                    "union_soundness_prefactor",
                    accept(union, lifted),
                    rhs,
                    1e-9,
                    dict(params, i=i, psp=str(psp)),
                )
            )
    return checks
