"""The Newton root-find of quantum_optimal_test: its step count and its agreement with bisection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dh_oracle import bisection_test, near_singular_pair
from oneshot import audits, cli, hyptest, mac, typicality
from oneshot.rand import haar_unitary, random_density, random_distribution, random_pure, rng_from_seed


@pytest.fixture()
def eigh_counts(monkeypatch):
    """The number of np.linalg.eigh calls made inside each quantum_optimal_test call."""
    counts = []
    eigh = np.linalg.eigh
    solve = hyptest.quantum_optimal_test

    def counting_eigh(*args, **kwargs):
        counts[-1] += 1
        return eigh(*args, **kwargs)

    def counting_solve(*args):
        counts.append(0)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        try:
            return solve(*args)
        finally:
            monkeypatch.setattr(np.linalg, "eigh", eigh)

    monkeypatch.setattr(hyptest, "quantum_optimal_test", counting_solve)
    return counts


def assert_few_steps(counts):
    # the bisection took 44-51 eigendecompositions per solve on these pairs
    assert counts
    assert np.median(counts) <= 12, counts
    assert max(counts) <= 20, counts


class TestStepCount:
    def test_cq_mac_decoder(self, eigh_counts):
        with open("configs/cq_mac_small.txt") as fh:
            cfg = cli.parse_kv(fh.read())
        eps = float(cfg["epsilon"])
        mac.build_decoding_povms(cli.load_cq_spec(cfg), int(cfg["l_dim"]), eps**0.25, eps)
        assert len(eigh_counts) == 3
        assert_few_steps(eigh_counts)

    def test_splitting_tests(self, eigh_counts):
        for s in range(3):
            typicality.intersection_lemma(audits.random_instance(s, 0, 2, 2, 4, 0.2, 0.2))
        # one solve per distinct split state: 2 among the 4 splits at (c, k) = (0, 2)
        assert len(eigh_counts) == 3 * 2
        assert_few_steps(eigh_counts)

    def test_near_singular_alternate(self, eigh_counts):
        # the absolute 1e-12 bisection width is below the float spacing at
        # lam ~ 3e4, so the bisection ran all 200 of its steps
        res = hyptest.quantum_optimal_test(*near_singular_pair(1e-4))
        assert eigh_counts[0] <= 20
        assert abs(res.gap) <= 1e-9


def pair(kind, seed, d):
    """A seeded (rho, sigma) of one of the shapes the solver must handle."""
    rng = rng_from_seed(seed)
    if kind == "full_rank":
        return random_density(rng, d), random_density(rng, d)
    if kind == "commuting_ties":
        p = random_distribution(rng, d)
        q = p * rng.choice([0.5, 1.0, 2.0], size=d)
        u = haar_unitary(rng, d)
        return u @ np.diag(p) @ u.conj().T, u @ np.diag(q / q.sum()) @ u.conj().T
    if kind == "rank_deficient":
        return random_density(rng, d), random_density(rng, d, rank=int(rng.integers(1, d)))
    if kind == "pure_null":
        psi = random_pure(rng, d)
        return np.outer(psi, psi.conj()), random_density(rng, d)
    if kind == "cq_blocks":
        # block-diagonal over two letters, as cq_optimal_test assembles it
        h = max(d // 2, 1)
        w = rng.uniform(0.2, 0.8)
        rho = np.zeros((2 * h, 2 * h), dtype=complex)
        sigma = np.zeros_like(rho)
        for i, wx in enumerate((w, 1.0 - w)):
            sl = slice(i * h, (i + 1) * h)
            rho[sl, sl] = wx * random_density(rng, h)
            sigma[sl, sl] = wx * random_density(rng, h)
        return rho, sigma
    if kind == "scaled":
        return random_density(rng, d), 10.0 ** rng.uniform(-3.0, 4.0) * random_density(rng, d)
    raise ValueError(kind)


KINDS = ["full_rank", "commuting_ties", "rank_deficient", "pure_null", "cq_blocks", "scaled"]


class TestAgreesWithBisection:
    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 6),
        eps=st.one_of(st.sampled_from([1e-6, 0.999]), st.floats(0.01, 0.95)),
    )
    def test_matches_oracle(self, kind, seed, d, eps):
        rho, sigma = pair(kind, seed, d)
        res = hyptest.quantum_optimal_test(rho, sigma, eps)
        ref = bisection_test(rho, sigma, eps)
        scale = 2.0 ** round(np.log2(np.trace(sigma).real))
        assert abs(res.reject_mass - ref.reject_mass) <= 1e-10 * max(scale, 1.0)
        assert res.accept_prob >= 1 - eps - 1e-9
        assert abs(res.gap) <= 1e-9 * scale

    @pytest.mark.parametrize("s", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_near_singular_matches_oracle(self, s):
        rho, sigma, eps = near_singular_pair(s)
        res = hyptest.quantum_optimal_test(rho, sigma, eps)
        ref = bisection_test(rho, sigma, eps)
        assert abs(res.reject_mass - ref.reject_mass) <= 1e-10
        assert abs(res.gap) <= 1e-9 and abs(ref.gap) <= 1e-9


class TestAcceptanceSlope:
    """The slope deriv of g(lam) that the smooth Newton steps use."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6), lam=st.floats(0.05, 5.0))
    def test_matches_finite_difference(self, seed, d, lam):
        rng = rng_from_seed(seed)
        rho = random_density(rng, d).astype(complex)
        sigma = random_density(rng, d).astype(complex)
        h = 1e-6 * lam
        sp = hyptest._Spectrum(rho, sigma, lam)
        lo = hyptest._Spectrum(rho, sigma, lam - h)
        hi = hyptest._Spectrum(rho, sigma, lam + h)
        # no eigenvalue crosses the gap within [lam - h, lam + h]
        if not (np.array_equal(lo.pos, sp.pos) and np.array_equal(hi.pos, sp.pos)):
            return
        assert sp.deriv <= 0.0
        fd = (hi.accept - lo.accept) / (2 * h)
        assert sp.deriv == pytest.approx(fd, rel=1e-4, abs=1e-7)
