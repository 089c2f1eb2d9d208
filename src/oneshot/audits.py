"""Randomized audit suites for the inequality guarantees.

Each suite draws seeded instances, evaluates both sides of the target
inequalities exactly, and returns AuditCheck records whose params name the
instance seed, so any failure message alone reproduces the instance.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import hyptest, mac, report, tilting, typicality
from .rand import (
    haar_columns,
    haar_gaussian,
    haar_projector,
    random_density,
    random_distribution,
    random_hermitian,
    random_pure,
    rng_from_seed,
    squash_spectrum,
)


def random_tilting_matrix(rng, l: int, diag_min=0.05, diag_max=0.9) -> tilting.TiltingMatrix:
    """Random upper triangular, row-dominated, substochastic tilt weights."""
    d = rng.uniform(diag_min, diag_max, size=l)
    a = np.zeros((l, l))
    for j in range(l):
        a[j, j] = d[j]
        if j > 0:
            off = d[:j] * rng.random(j)
            budget = 1.0 - d[j]
            total = off.sum()
            if total > budget:
                off *= budget / max(total, 1e-12) * rng.random()
            a[:j, j] = off
    return tilting.TiltingMatrix(a)


def _stacked(fn, *args: list) -> list:
    """[fn(*item) for item in zip(*args)], with one call of fn per distinct tuple of shapes.

    The items of each shape go through fn as the np.stack of their
    arguments, so fn must act matrix by matrix on (n, ...) stacks; the
    results come back in input order.  Matrices of different shapes are never
    padded to one.
    """
    groups: dict = {}
    for i, item in enumerate(zip(*args)):
        groups.setdefault(tuple(x.shape for x in item), []).append(i)
    out = [None] * len(args[0])
    for idx in groups.values():
        for i, r in zip(idx, fn(*(np.stack([col[i] for i in idx]) for col in args))):
            out[i] = r
    return out


def _sandwich_trials(name, seed_mult, trials, seed, dim_max, l_max, draw) -> list:
    """Lower/upper sandwich checks of a tilted span on random subspaces and probe vectors.

    draw(rng, l) draws the tilt weights and returns (tilting matrix alpha,
    bounds(overlaps), extra params) for one trial.  Each subspace is drawn as
    a Haar isometry V, the draws random_projector makes for V V†, so the
    acceptance ||Q[:d]† h||^2 and the overlaps ||V† h||^2 are read off the
    bases, with no projector formed.  Every trial is drawn first, in seed
    order; then the Haar QRs and the QRs of the tilted images run as one
    stacked call per shape.
    """
    drawn, gaussians = [], []
    for t in range(trials):
        rng = rng_from_seed(seed * seed_mult + t)
        d = int(rng.integers(2, dim_max + 1))
        l = int(rng.integers(1, l_max + 1))
        a, bounds, extra = draw(rng, l)
        gaussians += [haar_gaussian(rng, d, int(rng.integers(1, d + 1))) for _ in range(l)]
        drawn.append((t, d, l, a, bounds, extra, random_pure(rng, d)))
    # every trial's draws are held at once, so each phase drops its inputs
    # when done and only the probe's rows of each Q are kept
    columns = iter(_stacked(haar_columns, gaussians))
    bases = [[next(columns) for _ in range(l)] for _, _, l, *_ in drawn]
    del gaussians, columns
    overlaps = [
        np.array([float(np.linalg.norm(v.conj().T @ h) ** 2) for v in vs])
        for vs, (*_, h) in zip(bases, drawn)
    ]
    images = [
        tilting.tilted_images(vs, a, tilting.TiltedLayout(d, l))
        for vs, (_, d, l, a, *_) in zip(bases, drawn)
    ]
    del bases
    # each trial's tilted_basis, as the QR of its tilted images
    probe_rows = _stacked(
        lambda x, h: np.linalg.qr(x)[0][:, : h.shape[-1]].copy(), images, [h for *_, h in drawn]
    )
    del images
    checks = []
    for (t, d, l, _, bounds, extra, h), overlap, q in zip(drawn, overlaps, probe_rows):
        got = float(np.linalg.norm(q.conj().T @ h) ** 2)
        lo, hi = bounds(overlap)
        params = {"seed": seed, "trial": t, "d": d, "l": l, **extra}
        checks.append(report.AuditCheck(f"{name}_lower", lo, got, 1e-9, params))
        checks.append(report.AuditCheck(f"{name}_upper", got, hi, 1e-9, params))
    return checks


def audit_tilting(trials: int = 1000, seed: int = 0, dim_max: int = 8, l_max: int = 4) -> list:
    """Tilted-span sandwich on random subspace families and probe vectors."""
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
    """Generalized tilted-span sandwich with random valid tilting matrices."""

    def draw(rng, l):
        a = random_tilting_matrix(rng, l)
        return a.alpha, lambda eps: tilting.prop_a_tilted_bounds(eps, a), {}

    return _sandwich_trials("a_tilted_span", 1_000_033, trials, seed, dim_max, l_max, draw)


def audit_gao(trials: int = 200, seed: int = 0, dim_max: int = 6, k_max: int = 4) -> list:
    """Noncommutative union bound slack on random projector chains.

    Every trial is drawn first, in seed order; then the Haar QRs and the
    sandwiches run as one stacked call per shape.
    """
    drawn, gaussians = [], []
    for t in range(trials):
        rng = rng_from_seed(seed * 1_000_081 + t)
        d = int(rng.integers(2, dim_max + 1))
        k = int(rng.integers(1, k_max + 1))
        # random_projector's draws
        gaussians += [haar_gaussian(rng, d, int(rng.integers(1, d + 1))) for _ in range(k)]
        drawn.append((t, d, k, random_density(rng, d)))
    projs = iter(_stacked(haar_projector, gaussians))
    slacks = _stacked(
        lambda p, rho: tilting.gao_slack(list(p.swapaxes(0, 1)), rho),
        [np.stack([next(projs) for _ in range(k)]) for _, _, k, _ in drawn],
        [rho for *_, rho in drawn],
    )
    return [
        report.AuditCheck(
            "gao_union_bound", 0.0, float(slack), 1e-9, {"seed": seed, "trial": t, "d": d, "k": k}
        )
        for (t, d, k, _), slack in zip(drawn, slacks)
    ]


def audit_hn(trials: int = 200, seed: int = 0, dim_max: int = 6) -> list:
    """Hayashi-Nagaoka operator inequality slack on random pairs.

    Every trial is drawn first, in seed order; then the POVM squash and the
    slack run as one stacked call per dimension.
    """
    drawn = []
    for t in range(trials):
        rng = rng_from_seed(seed * 1_000_099 + t)
        d = int(rng.integers(2, dim_max + 1))
        # random_povm_element's draws, squashed below
        herm = random_hermitian(rng, d)
        drawn.append((t, d, herm, random_density(rng, d) * float(rng.uniform(0.0, 3.0))))
    slacks = _stacked(
        lambda h, tt: mac.hayashi_nagaoka_slack(squash_spectrum(h), tt),
        [h for _, _, h, _ in drawn],
        [tt for *_, tt in drawn],
    )
    return [
        report.AuditCheck(
            "hayashi_nagaoka", 0.0, float(slack), 1e-9, {"seed": seed, "trial": t, "d": d}
        )
        for (t, d, _, _), slack in zip(drawn, slacks)
    ]


def audit_dh(
    commuting_pairs: int = 200,
    bipartite_states: int = 100,
    optimality_instances: int = 50,
    seed: int = 0,
) -> list:
    """Hypothesis-testing entropy: classical agreement, self-distance, bounds.

    dh_optimality audits the duality gap: the alternate mass of the returned
    test is at most the dual bound, so it is optimal within the tolerance.
    """
    checks = []
    for t in range(commuting_pairs):
        rng = rng_from_seed(seed * 2_000_003 + t)
        n = int(rng.integers(2, 7))
        p = random_distribution(rng, n)
        q = random_distribution(rng, n)
        eps = float(rng.uniform(0.02, 0.95))
        vq = hyptest.quantum_optimal_test(np.diag(p), np.diag(q), eps).value_bits
        vc = hyptest.dh_classical(p, q, eps).value_bits
        checks.append(
            report.AuditCheck(
                "dh_commuting_agreement",
                abs(vq - vc),
                0.0,
                1e-8,
                {"seed": seed, "trial": t, "n": n, "eps": eps},
            )
        )
    rng = rng_from_seed(seed * 2_000_029)
    rho = random_density(rng, 4)
    for i, eps in enumerate(np.arange(0.1, 0.95, 0.1)):
        v = hyptest.quantum_optimal_test(rho, rho, float(eps)).value_bits
        checks.append(
            report.AuditCheck(
                "dh_self_distance",
                abs(v + np.log2(1 - eps)),
                0.0,
                1e-9,
                {"seed": seed, "eps": round(float(eps), 3)},
            )
        )
    for t in range(bipartite_states):
        rng = rng_from_seed(seed * 2_000_039 + t)
        da = int(rng.integers(2, 4))
        db = int(rng.integers(2, 6))
        rho = random_density(rng, da * db)
        eps = float((0.1, 0.5, 0.9)[t % 3])
        v = hyptest.ih_mutual(rho, (da, db), eps)
        checks.append(
            report.AuditCheck(
                "ih_dimension_bound",
                v,
                hyptest.ih_mutual_bound(da, db, eps),
                1e-9,
                {"seed": seed, "trial": t, "da": da, "db": db, "eps": eps},
            )
        )
    for t in range(optimality_instances):
        rng = rng_from_seed(seed * 2_000_057 + t)
        d = int(rng.integers(2, 5))
        rho = random_density(rng, d)
        sigma = random_density(rng, d)
        eps = float(rng.uniform(0.05, 0.8))
        res = hyptest.quantum_optimal_test(rho, sigma, eps)
        checks.append(
            report.AuditCheck(
                "dh_optimality",
                res.reject_mass,
                res.dual,
                1e-9,
                {"seed": seed, "trial": t, "d": d, "eps": eps},
            )
        )
    return checks


def random_instance(
    seed: int, c: int, k: int, dim_h: int, dim_l: int, delta: float, eps: float
) -> typicality.TypicalityInstance:
    typicality.check_space(c, k, dim_h, dim_l)
    typicality.check_eps(eps, c, k)
    widest = typicality.widest_array(c, k, dim_h, dim_l)
    typicality.check_budget("the widest array of the construction", widest)
    rng = rng_from_seed(seed)
    # the one word () of c = 0 takes no draw for its weight
    words = list(itertools.product(range(2), repeat=c))
    p = rng.random(len(words)) + 0.2 if c else np.ones(1)
    p /= p.sum()
    rhos = {w: random_density(rng, dim_h**k) for w in words}
    p_x = {w: float(v) for w, v in zip(words, p)}
    return typicality.TypicalityInstance(
        c=c, k=k, dim_h=dim_h, dim_l=dim_l, delta=delta, rhos=rhos, p_x=p_x,
        eps_total=eps,
    )


def audit_typicality(
    n_states: int = 20,
    seed: int = 0,
    c: int = 0,
    k: int = 2,
    dim_h: int = 2,
    dim_l: int = 4,
    deltas=(0.2, 0.4),
    eps: float = 0.2,
) -> list:
    """Full smoothing-construction audit over random states and deltas."""
    checks = []
    for t in range(n_states):
        for delta in deltas:
            inst = random_instance(seed * 3_000_017 + t, c, k, dim_h, dim_l, float(delta), eps)
            res = typicality.intersection_lemma(inst)
            for chk in res.checks:
                checks.append(
                    report.AuditCheck(
                        chk.name,
                        chk.lhs,
                        chk.rhs,
                        chk.tol,
                        dict(chk.params, seed=seed, trial=t, delta=float(delta)),
                    )
                )
    return checks


SUITES = {
    "tilting": lambda trials, seed: audit_tilting(trials, seed)
    + audit_a_tilting(max(1, trials // 2), seed),
    "gao": lambda trials, seed: audit_gao(trials, seed),
    "hn": lambda trials, seed: audit_hn(trials, seed),
    "dh": lambda trials, seed: audit_dh(
        commuting_pairs=trials, bipartite_states=max(1, trials // 2), seed=seed
    ),
}
