"""Seeded random instance generators shared by the audits and the test suite."""

from __future__ import annotations

import numpy as np

from . import qla


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.default_rng(int(seed))


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    return haar_isometry(rng, d, d)


def haar_isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """The first cols columns of haar_unitary(rng, rows), from the same draws.

    Column j of the QR's Q depends only on the Gaussian's first j + 1
    columns, so only the kept ones are factored.
    """
    z = complex_gaussian(rng, (rows, rows))[:, :cols]
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def random_pure(rng: np.random.Generator, d: int) -> np.ndarray:
    v = complex_gaussian(rng, d)
    return v / np.linalg.norm(v)


def random_density(rng: np.random.Generator, d: int, rank: int | None = None) -> np.ndarray:
    r = d if rank is None else int(rank)
    g = complex_gaussian(rng, (d, r))
    a = g @ g.conj().T
    return qla.hermitian_part(a / np.trace(a).real)


def random_hermitian(rng: np.random.Generator, d: int, scale: float = 1.0) -> np.ndarray:
    return qla.hermitian_part(complex_gaussian(rng, (d, d))) * scale


def random_projector(rng: np.random.Generator, d: int, rank: int) -> np.ndarray:
    v = haar_isometry(rng, d, rank)
    return qla.hermitian_part(v @ v.conj().T)


def random_povm_element(rng: np.random.Generator, d: int) -> np.ndarray:
    """Random Hermitian squashed into [0, 1] spectrum."""
    w, v = np.linalg.eigh(random_hermitian(rng, d))
    lo, hi = w[0], w[-1]
    w = (w - lo) / (hi - lo) if hi > lo else np.full_like(w, 0.5)
    return qla.hermitian_part((v * w) @ v.conj().T)


def random_distribution(rng: np.random.Generator, n: int) -> np.ndarray:
    p = rng.random(n) + 1e-3
    return p / p.sum()
