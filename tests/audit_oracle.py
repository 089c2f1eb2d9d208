"""Test-only oracle: the four small-matrix audit suites, one trial at a time.

oneshot.audits draws every trial first and then runs the linear algebra as
one stacked call per shape; these loops draw and evaluate each trial in
turn, with one call per matrix, and must give the same records bit for bit.
"""

import numpy as np

from oneshot import mac, report, tilting
from oneshot.audits import random_tilting_matrix
from oneshot.rand import (
    haar_isometry,
    random_density,
    random_povm_element,
    random_projector,
    random_pure,
    rng_from_seed,
)


def _sandwich_trials(name, seed_mult, trials, seed, dim_max, l_max, draw) -> list:
    checks = []
    for t in range(trials):
        rng = rng_from_seed(seed * seed_mult + t)
        d = int(rng.integers(2, dim_max + 1))
        l = int(rng.integers(1, l_max + 1))
        a, bounds, extra = draw(rng, l)
        vs = [haar_isometry(rng, d, int(rng.integers(1, d + 1))) for _ in range(l)]
        h = random_pure(rng, d)
        q = tilting.tilted_basis(vs, a, tilting.TiltedLayout(d, l))
        got = float(np.linalg.norm(q[:d].conj().T @ h) ** 2)
        lo, hi = bounds(np.array([float(np.linalg.norm(v.conj().T @ h) ** 2) for v in vs]))
        params = {"seed": seed, "trial": t, "d": d, "l": l, **extra}
        checks.append(report.AuditCheck(f"{name}_lower", lo, got, 1e-9, params))
        checks.append(report.AuditCheck(f"{name}_upper", got, hi, 1e-9, params))
    return checks


def audit_tilting(trials: int = 1000, seed: int = 0, dim_max: int = 8, l_max: int = 4) -> list:
    alphas_pool = (0.1, 0.3, 0.5, 0.9)

    def draw(rng, l):
        alpha = float(alphas_pool[int(rng.integers(len(alphas_pool)))])
        return (
            np.diag(np.full(l, alpha)),
            lambda eps: tilting.prop_tilted_bounds(eps, np.full(l, alpha)),
            {"alpha": alpha},
        )

    return _sandwich_trials("tilted_span", 1_000_003, trials, seed, dim_max, l_max, draw)


def audit_a_tilting(trials: int = 500, seed: int = 0, dim_max: int = 8, l_max: int = 4) -> list:
    def draw(rng, l):
        a = random_tilting_matrix(rng, l)
        return a.alpha, lambda eps: tilting.prop_a_tilted_bounds(eps, a), {}

    return _sandwich_trials("a_tilted_span", 1_000_033, trials, seed, dim_max, l_max, draw)


def audit_gao(trials: int = 200, seed: int = 0, dim_max: int = 6, k_max: int = 4) -> list:
    checks = []
    for t in range(trials):
        rng = rng_from_seed(seed * 1_000_081 + t)
        d = int(rng.integers(2, dim_max + 1))
        k = int(rng.integers(1, k_max + 1))
        projs = [random_projector(rng, d, int(rng.integers(1, d + 1))) for _ in range(k)]
        rho = random_density(rng, d)
        slack = float(tilting.gao_slack(projs, rho))
        params = {"seed": seed, "trial": t, "d": d, "k": k}
        checks.append(report.AuditCheck("gao_union_bound", 0.0, slack, 1e-9, params))
    return checks


def audit_hn(trials: int = 200, seed: int = 0, dim_max: int = 6) -> list:
    checks = []
    for t in range(trials):
        rng = rng_from_seed(seed * 1_000_099 + t)
        d = int(rng.integers(2, dim_max + 1))
        s = random_povm_element(rng, d)
        tt = random_density(rng, d) * float(rng.uniform(0.0, 3.0))
        slack = float(mac.hayashi_nagaoka_slack(s, tt))
        params = {"seed": seed, "trial": t, "d": d}
        checks.append(report.AuditCheck("hayashi_nagaoka", 0.0, slack, 1e-9, params))
    return checks
