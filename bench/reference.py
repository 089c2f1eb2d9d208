"""A fixed reference computation, timed next to every unit.

The machine's speed drifts in phases of seconds to minutes (other tenants on
the host); a unit's wall time moves with it.  The reference does the same
kinds of work as the workloads, with numpy and plain Python only: an
interpreter loop, many calls on small matrices, and a dense Hermitian
eigendecomposition.  Its inputs are fixed, so only the machine can change
its time, and the ratio of a unit's time to the adjacent reference time
cancels most of the drift.

Times reported at reference speed are such ratios multiplied by REF_S: the
seconds they would take on a machine that runs the reference in REF_S
seconds, which is close to this machine's typical figure (README.md).
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(20180618)
_SMALL = [_rng.standard_normal((6, 6)) + 1j * _rng.standard_normal((6, 6)) for _ in range(150)]
_SMALL = [(m + m.conj().T) / 2 for m in _SMALL]
_DENSE = _rng.standard_normal((256, 256)) + 1j * _rng.standard_normal((256, 256))
_DENSE = (_DENSE + _DENSE.conj().T) / 2
_EIGH = np.linalg.eigh  # bound at import, before any tracer wraps it
REF_S = 0.04


def reference(reps: int = 1) -> float:
    """Run the reference reps times and return the wall time in seconds."""
    t = time.perf_counter()
    for _ in range(reps):
        x = 0
        for k in range(100_000):
            x += k * k
        for m in _SMALL:
            _EIGH(m)
        _EIGH(_DENSE)
        _DENSE @ _DENSE
    return (time.perf_counter() - t) / reps
