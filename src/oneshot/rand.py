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
    """The first cols columns of haar_unitary(rng, rows), from the same draws."""
    return haar_columns(haar_gaussian(rng, rows, cols))


def haar_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """The Gaussian columns haar_isometry factors: the first cols of a (rows, rows) draw.

    Column j of the QR's Q depends only on the Gaussian's first j + 1
    columns, so only the kept ones are factored.
    """
    return complex_gaussian(rng, (rows, rows))[:, :cols]


def haar_columns(z: np.ndarray) -> np.ndarray:
    """The phase-fixed QR factor Q of Gaussian columns z, one per matrix of a (..., rows, cols) stack."""
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


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
    return haar_projector(haar_gaussian(rng, d, rank))


def haar_projector(z: np.ndarray) -> np.ndarray:
    """V V† for V = haar_columns(z), one per matrix of a (..., rows, cols) stack."""
    v = haar_columns(z)
    return qla.hermitian_part(v @ v.conj().swapaxes(-1, -2))


def random_povm_element(rng: np.random.Generator, d: int) -> np.ndarray:
    """Random Hermitian squashed into [0, 1] spectrum."""
    return squash_spectrum(random_hermitian(rng, d))


def squash_spectrum(h: np.ndarray) -> np.ndarray:
    """Hermitian h with its spectrum mapped affinely onto [0, 1], one per matrix of a (..., d, d) stack.

    A matrix with a single eigenvalue maps to I / 2.
    """
    w, v = np.linalg.eigh(h)
    lo, hi = w[..., :1], w[..., -1:]
    spread = hi > lo
    w = np.where(spread, (w - lo) / np.where(spread, hi - lo, 1.0), 0.5)
    return qla.hermitian_part((v * w[..., None, :]) @ v.conj().swapaxes(-1, -2))


def random_distribution(rng: np.random.Generator, n: int) -> np.ndarray:
    p = rng.random(n) + 1e-3
    return p / p.sum()
