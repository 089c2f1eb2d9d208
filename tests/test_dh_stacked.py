"""optimal_tests on stacks: pairs in lockstep do not interact, letter blocks match the dense pair."""

import numpy as np
import pytest

from dh_oracle import near_singular_pair, newton_offset_loop
from test_dh_rootfind import pair
from test_hyptest import rank_deficient_case
from test_mac import load_decoder_args
from oneshot import hyptest, mac
from oneshot.rand import random_density, rng_from_seed


def kernel_supported(seed, d):
    """sigma of rank 1 whose kernel carries twice the target: the early exit."""
    rng = rng_from_seed(seed)
    rho, sigma = random_density(rng, d), random_density(rng, d, rank=1)
    w, v = np.linalg.eigh(sigma)
    ker = v[:, w <= 1e-12]
    return rho, sigma, 1.0 - 0.5 * float(np.trace(ker.conj().T @ rho @ ker).real)


def mixed_pairs(d=4):
    """(rho, sigma, eps) of every kind the solver handles, all d x d."""
    out = [(*pair(kind, seed, d), eps) for seed, (kind, eps) in enumerate([
        ("full_rank", 0.1),
        ("commuting_ties", 0.3),
        ("commuting_ties", 0.999),
        ("rank_deficient", 0.2),
        ("pure_null", 1e-6),
        ("pure_null", 0.3),
        ("scaled", 0.25),
        ("cq_blocks", 0.05),
    ])]
    return out + [kernel_supported(7, d), near_singular_pair(1e-8), near_singular_pair(1e-4)]


def solve_stack(items):
    rho = np.stack([r for r, _, _ in items])[:, None]
    sigma = np.stack([s for _, s, _ in items])[:, None]
    return hyptest.optimal_tests(rho, sigma, np.array([e for *_, e in items]))


def assert_same(got, want):
    assert np.array_equal(got.test, want.test)
    for field in ("accept_prob", "reject_mass", "dual", "steps", "value_bits"):
        assert getattr(got, field) == getattr(want, field), field


class TestLockstep:
    def test_mixed_stack_equals_stacks_of_one(self):
        items = mixed_pairs()
        alone = [solve_stack([item])[0] for item in items]
        assert any(res.steps == 0 for res in alone)  # the kernel early exit
        assert len({res.steps for res in alone}) > 2
        for got, want in zip(solve_stack(items), alone):
            assert_same(got, want)

    @pytest.mark.parametrize("seed", range(3))
    def test_order_does_not_matter(self, seed):
        items = mixed_pairs()
        order = rng_from_seed(seed).permutation(len(items))
        alone = [solve_stack([item])[0] for item in items]
        for i, got in zip(order, solve_stack([items[i] for i in order])):
            assert_same(got, alone[i])

    def test_single_pair_wrapper(self):
        # quantum_optimal_test is a stack of one with its test as one matrix
        for rho, sigma, eps in mixed_pairs():
            got, want = hyptest.quantum_optimal_test(rho, sigma, eps), solve_stack([(rho, sigma, eps)])[0]
            assert np.array_equal(got.test, want.test[0])
            assert (got.reject_mass, got.dual, got.steps) == (want.reject_mass, want.dual, want.steps)

    def test_degenerate_pair_named(self, monkeypatch):
        # seed 60's kernel holds 0.27 of rho against 1 - eps = 0.30, so it must
        # widen its bracket; the full-rank pairs bracket at once
        rho, sigma, eps = rank_deficient_case(60)
        items = [(*pair("full_rank", s, len(rho)), 0.2) for s in range(3)]
        items.insert(1, (rho, sigma, eps))
        monkeypatch.setattr(hyptest, "BRACKET_DOUBLINGS", 1)
        with pytest.raises(ValueError, match=r"^pair 1: no multiplier"):
            solve_stack(items)


class TestNewtonOffsets:
    @pytest.mark.parametrize("kind", ["full_rank", "commuting_ties", "rank_deficient", "pure_null", "cq_blocks"])
    def test_match_one_walk_per_pair(self, kind):
        # the offsets of a stack of spectra, on both sides of each multiplier,
        # against one Python walk per pair
        items = [pair(kind, seed, 4) for seed in range(12)]
        rho = np.stack([r for r, _ in items])[:, None].astype(complex)
        sigma = np.stack([s for _, s in items])[:, None].astype(complex)
        sigma /= np.trace(sigma, axis1=-2, axis2=-1).real[..., None, None]
        lam = np.geomspace(0.05, 20.0, len(items))
        for target in (0.05, 0.5, 0.95):
            sp = hyptest._Spectra(rho, sigma, lam)
            want = [newton_offset_loop(sp, i, target) for i in range(len(items))]
            got = hyptest._newton_offsets(sp, np.full(len(items), target))
            assert np.array_equal(got, want, equal_nan=True), (got, want)
            # and each pair alone, where most walks stop at their first crossing
            for i in range(len(items)):
                one = hyptest._Spectra(rho[i : i + 1], sigma[i : i + 1], lam[i : i + 1])
                assert np.array_equal(hyptest._newton_offsets(one, np.array([target])), want[i : i + 1], equal_nan=True)


def dense_pair(weights, rhos, sigmas):
    """The block-diagonal pair sum_x w_x |x><x| (x) rho_x against the same over sigma_x."""
    d = rhos[0].shape[0]
    rho = np.zeros((len(weights) * d,) * 2, dtype=complex)
    sigma = np.zeros_like(rho)
    for i, (w, r, s) in enumerate(zip(weights, rhos, sigmas)):
        sl = slice(i * d, (i + 1) * d)
        rho[sl, sl], sigma[sl, sl] = w * r, w * s
    return rho, sigma


class TestLetterBlocks:
    @pytest.mark.parametrize("seed, letters, d", [(1, 2, 2), (2, 3, 3), (3, 4, 2), (4, 2, 4)])
    def test_matches_dense_assembly(self, seed, letters, d):
        rng = rng_from_seed(seed)
        weights = rng.dirichlet(np.ones(letters))
        rhos = [random_density(rng, d) for _ in range(letters)]
        sets = [
            [random_density(rng, d) for _ in range(letters)],
            [random_density(rng, d, rank=1) for _ in range(letters)],
        ]
        for (res, blocks), sigmas in zip(hyptest.cq_optimal_tests(weights, rhos, sets, 0.1), sets):
            dense = hyptest.quantum_optimal_test(*dense_pair(weights, rhos, sigmas), 0.1)
            assert abs(res.reject_mass - dense.reject_mass) <= 1e-12
            for i, blk in enumerate(blocks):
                sl = slice(i * d, (i + 1) * d)
                assert np.abs(blk - dense.test[sl, sl]).max() <= 1e-12

    def test_adder_decoder_eigenproblems_stay_on_blocks(self, monkeypatch):
        # the dense pairs of configs/cq_adder8.txt were 512 x 512
        widest = [0]
        for name in ("eigh", "eigvalsh"):
            fn = getattr(np.linalg, name)

            def recording(a, *args, fn=fn, **kwargs):
                widest[0] = max(widest[0], np.shape(a)[-1])
                return fn(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        mac.build_decoding_povms(*load_decoder_args("configs/cq_adder8.txt"))
        assert 0 < widest[0] <= 16
