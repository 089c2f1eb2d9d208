import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dh_oracle import near_singular_pair
from oneshot import hyptest, qla
from oneshot.rand import (
    haar_isometry,
    haar_unitary,
    random_density,
    random_distribution,
    random_povm_element,
    random_pure,
    rng_from_seed,
)


def lattice_oracle(p, q, eps, steps=1000):
    """Brute-force D_H over all tests with entries on a 1/steps lattice."""
    grid = np.linspace(0.0, 1.0, steps + 1)
    best = -np.inf
    f0, f1 = np.meshgrid(grid, grid, indexing="ij")
    accept = f0 * p[0] + f1 * p[1]
    reject = f0 * q[0] + f1 * q[1]
    ok = accept >= 1 - eps - 1e-12
    vals = np.where(ok & (reject > 0), -np.log2(np.where(reject > 0, reject, 1.0)), -np.inf)
    best = vals.max()
    return best


class TestDhClassical:
    def test_forced_by_eps_zero(self):
        res = hyptest.dh_classical(np.array([1.0, 0.0]), np.array([0.5, 0.5]), 0.0)
        assert res.value_bits == pytest.approx(1.0, abs=1e-12)
        npt.assert_allclose(res.test, [1.0, 0.0])
        assert res.accept_prob == pytest.approx(1.0)

    @pytest.mark.parametrize("eps", [0.1, 0.25, 0.5, 0.9])
    def test_equal_distributions(self, eps):
        p = np.array([0.3, 0.2, 0.5])
        res = hyptest.dh_classical(p, p, eps)
        assert res.value_bits == pytest.approx(-np.log2(1 - eps), abs=1e-12)
        assert res.accept_prob == pytest.approx(1 - eps, abs=1e-12)

    def test_matches_lattice_oracle(self):
        p = np.array([0.7, 0.3])
        q = np.array([0.2, 0.8])
        res = hyptest.dh_classical(p, q, 0.1)
        # greedy: accept outcome 0 fully, outcome 1 with weight 2/3
        assert res.value_bits == pytest.approx(-np.log2(0.2 + (2 / 3) * 0.8), abs=1e-12)
        oracle = lattice_oracle(p, q, 0.1)
        assert abs(res.value_bits - oracle) < 0.01

    def test_monotone_in_eps(self):
        rng = rng_from_seed(21)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            p = random_distribution(rng, n)
            q = random_distribution(rng, n)
            e1, e2 = sorted(rng.random(2) * 0.95)
            v1 = hyptest.dh_classical(p, q, e1).value_bits
            v2 = hyptest.dh_classical(p, q, e2).value_bits
            assert v1 <= v2 + 1e-12

    def test_orthogonal_supports_inf(self):
        res = hyptest.dh_classical(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.0)
        assert res.value_bits == np.inf
        assert res.reject_mass == 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            hyptest.dh_classical(np.array([0.5, 0.5]), np.array([0.5, 0.5]), 1.0)
        with pytest.raises(ValueError):
            hyptest.dh_classical(np.array([1.5, -0.5]), np.array([0.5, 0.5]), 0.1)


class TestQuantumOptimalTest:
    def test_equal_states(self):
        rng = rng_from_seed(22)
        rho = random_density(rng, 3)
        res = hyptest.quantum_optimal_test(rho, rho, 0.5)
        assert res.value_bits == pytest.approx(1.0, abs=1e-9)
        assert res.accept_prob == pytest.approx(0.5, abs=1e-9)

    def test_commuting_matches_classical(self):
        rng = rng_from_seed(23)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            p = random_distribution(rng, n)
            q = random_distribution(rng, n)
            eps = float(rng.uniform(0.05, 0.9))
            vq = hyptest.quantum_optimal_test(np.diag(p), np.diag(q), eps).value_bits
            vc = hyptest.dh_classical(p, q, eps).value_bits
            assert vq == pytest.approx(vc, abs=1e-8)

    def test_isometric_invariance(self):
        rng = rng_from_seed(24)
        for _ in range(10):
            rho = random_density(rng, 3)
            sigma = random_density(rng, 3)
            eps = float(rng.uniform(0.1, 0.8))
            v = haar_isometry(rng, 5, 3)
            base = hyptest.quantum_optimal_test(rho, sigma, eps).value_bits
            lifted = hyptest.quantum_optimal_test(
                v @ rho @ v.conj().T, v @ sigma @ v.conj().T, eps
            ).value_bits
            assert lifted == pytest.approx(base, abs=1e-9)

    def test_optimal_among_random_candidates(self):
        rng = rng_from_seed(25)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            rho = random_density(rng, d)
            sigma = random_density(rng, d)
            eps = float(rng.uniform(0.1, 0.7))
            res = hyptest.quantum_optimal_test(rho, sigma, eps)
            for _ in range(300):
                cand = random_povm_element(rng, d)
                acc = float(np.trace(cand @ rho).real)
                if acc < 1e-9:
                    continue
                if acc < 1 - eps:
                    scale = (1 - eps) / acc
                    if scale * float(np.linalg.eigvalsh(cand)[-1]) > 1.0:
                        continue
                    cand = cand * scale
                rej = float(np.trace(cand @ sigma).real)
                assert rej >= res.reject_mass - 1e-9

    def test_result_is_povm(self):
        rng = rng_from_seed(26)
        rho = random_density(rng, 4)
        sigma = random_density(rng, 4)
        res = hyptest.quantum_optimal_test(rho, sigma, 0.3)
        qla.povm_element(res.test)
        assert res.accept_prob >= 1 - 0.3 - 1e-9


def rank_deficient_case(seed):
    """Seeded pair with sigma of random rank, so its kernel may carry rho."""
    rng = rng_from_seed(seed)
    d = int(rng.integers(2, 7))
    rho = random_density(rng, d)
    sigma = random_density(rng, d, rank=int(rng.integers(1, d + 1)))
    return rho, sigma, float(rng.uniform(0.01, 0.9))


def np_dual(rho, sigma, eps):
    """max over mu >= 0 of mu (1 - eps) - Tr[(mu rho - sigma)_+], a lower bound on the optimum.

    The objective is concave and negative beyond mu = 1/eps.
    """
    from scipy.optimize import minimize_scalar

    def neg(mu):
        w = np.linalg.eigvalsh(mu * rho - sigma)
        return -(mu * (1 - eps) - w[w > 0].sum())

    res = minimize_scalar(neg, bounds=(0.0, 1.0 / eps), method="bounded", options={"xatol": 1e-12})
    return max(-res.fun, 0.0)


class TestRankDeficientAlternate:
    def test_kernel_carries_target(self):
        # the kernel of sigma holds 0.665 of rho against 1 - eps = 0.338, so
        # the optimal test rejects nothing
        rho, sigma, eps = rank_deficient_case(24)
        res = hyptest.quantum_optimal_test(rho, sigma, eps)
        qla.povm_element(res.test)
        assert res.accept_prob >= 1 - eps - 1e-9
        assert res.reject_mass <= 1e-9

    def test_matches_dual_on_seeded_recipe(self):
        kernel_cases = 0
        for seed in range(200):
            rho, sigma, eps = rank_deficient_case(seed)
            res = hyptest.quantum_optimal_test(rho, sigma, eps)
            w, v = np.linalg.eigh(sigma)
            ker = v[:, w <= 1e-12]
            if float(np.trace(ker.conj().T @ rho @ ker).real) >= 1 - eps:
                kernel_cases += 1
                assert res.value_bits == np.inf, seed
                assert res.reject_mass == res.dual == 0.0, seed
            assert res.accept_prob >= 1 - eps - 1e-9, seed
            assert abs(res.gap) <= 1e-9, seed
            assert res.reject_mass == pytest.approx(np_dual(rho, sigma, eps), abs=1e-7), seed
        assert kernel_cases == 55

    def test_bracket_cap_raises(self, monkeypatch):
        # seed 60: the kernel holds 0.27 of rho against 1 - eps = 0.30, and
        # the acceptance at lam_max is still above the target
        rho, sigma, eps = rank_deficient_case(60)
        monkeypatch.setattr(hyptest, "BRACKET_DOUBLINGS", 1)
        with pytest.raises(ValueError, match="no multiplier"):
            hyptest.quantum_optimal_test(rho, sigma, eps)


def lp_min_rejection(p, q, eps):
    """min q.f over 0 <= f <= 1 with p.f >= 1 - eps, by scipy's LP solver."""
    from scipy.optimize import linprog

    res = linprog(q, A_ub=-p[None, :], b_ub=[-(1.0 - eps)], bounds=[(0.0, 1.0)] * p.size, method="highs")
    assert res.status == 0
    return float(res.fun)


def assert_certified(res, rho, eps, scale=1.0):
    """A POVM element accepting 1 - eps of rho whose duality gap is rounding."""
    qla.povm_element(res.test)
    assert res.accept_prob >= 1 - eps - 1e-9
    assert float(np.trace(res.test @ rho).real) >= 1 - eps - 1e-9
    assert abs(res.gap) <= 1e-9 * scale


def diag_pair_with_ties(rng, n):
    """p and q whose likelihood ratios repeat: q_i is p_i times one of three levels."""
    p = random_distribution(rng, n)
    q = p * rng.choice([0.5, 1.0, 2.0], size=n)
    return p, q / q.sum()


class TestDualCertificate:
    """Every result carries the dual bound mu (1 - eps) - Tr[(mu rho - sigma)_+] and its gap."""

    def test_gap_on_audit_recipes(self):
        # at mu = 1/lam alone these gaps reach 9.4e-9 and 1.2e-9: the bisection
        # stops about 1e-9 short of the kink the dual peaks at
        for t in range(200):
            rng = rng_from_seed(13 * 2_000_003 + t)
            n = int(rng.integers(2, 7))
            p = random_distribution(rng, n)
            q = random_distribution(rng, n)
            eps = float(rng.uniform(0.02, 0.95))
            assert_certified(hyptest.quantum_optimal_test(np.diag(p), np.diag(q), eps), np.diag(p), eps)
            assert abs(hyptest.dh_classical(p, q, eps).gap) <= 1e-12
        rho = random_density(rng_from_seed(13 * 2_000_029), 4)
        for eps in np.arange(0.1, 0.95, 0.1):
            assert_certified(hyptest.quantum_optimal_test(rho, rho, float(eps)), rho, float(eps))

    def test_scaled_alternate_seed_1(self):
        # d = 4, eps = 0.233: bisecting on the unscaled sigma falls short of
        # the target acceptance at 8192 and 1e4
        rng = rng_from_seed(1)
        d = int(rng.integers(2, 7))
        rho = random_density(rng, d)
        sigma = random_density(rng, d)
        eps = float(rng.uniform(0.05, 0.9))
        base = hyptest.quantum_optimal_test(rho, sigma, eps)
        for c in (8192.0, 1e4):
            res = hyptest.quantum_optimal_test(rho, c * sigma, eps)
            assert res.value_bits == pytest.approx(base.value_bits - np.log2(c), abs=1e-8)
            assert_certified(res, rho, eps, scale=8192.0)

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 6),
        eps=st.floats(0.05, 0.9),
        log10_c=st.floats(-3.0, 4.0),
    )
    def test_scaled_alternate(self, seed, d, eps, log10_c):
        rng = rng_from_seed(seed)
        rho = random_density(rng, d)
        sigma = random_density(rng, d)
        c = 10.0**log10_c
        base = hyptest.quantum_optimal_test(rho, sigma, eps)
        res = hyptest.quantum_optimal_test(rho, c * sigma, eps)
        assert res.value_bits == pytest.approx(base.value_bits - np.log2(c), abs=1e-8)
        assert_certified(res, rho, eps, scale=2.0 ** round(np.log2(c)))

    @pytest.mark.parametrize("s", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_near_singular_alternate(self, s):
        # sigma has full rank; at s = 1e-8 the multiplier is about 3e8, where
        # eigh's rounding of rho - lam sigma (about 1e-8) passes an absolute
        # cluster gap of 1e-9 and the crossing eigenvalue left the cluster
        rho, sigma, eps = near_singular_pair(s)
        assert_certified(hyptest.quantum_optimal_test(rho, sigma, eps), rho, eps)

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6), eps=st.sampled_from([1e-6, 0.3, 0.999]))
    def test_pure_null(self, seed, d, eps):
        rng = rng_from_seed(seed)
        psi = random_pure(rng, d)
        rho = np.outer(psi, psi.conj())
        sigma = random_density(rng, d, rank=int(rng.integers(1, d + 1)))
        assert_certified(hyptest.quantum_optimal_test(rho, sigma, eps), rho, eps)

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 6),
        eps=st.one_of(st.sampled_from([1e-6, 0.999]), st.floats(0.01, 0.95)),
        equal=st.booleans(),
    )
    def test_commuting_ties(self, seed, n, eps, equal):
        rng = rng_from_seed(seed)
        p, q = diag_pair_with_ties(rng, n)
        if equal:
            q = p
        c_res = hyptest.dh_classical(p, q, eps)
        assert np.all((c_res.test >= 0) & (c_res.test <= 1))
        assert c_res.accept_prob >= 1 - eps - 1e-9
        lp = lp_min_rejection(p, q, eps)
        assert c_res.dual == pytest.approx(lp, abs=1e-9)
        assert c_res.reject_mass == pytest.approx(lp, abs=1e-9)
        # the same pair in a random common eigenbasis
        u = haar_unitary(rng, n)
        rho = u @ np.diag(p) @ u.conj().T
        q_res = hyptest.quantum_optimal_test(rho, u @ np.diag(q) @ u.conj().T, eps)
        assert_certified(q_res, rho, eps)
        assert q_res.reject_mass == pytest.approx(lp, abs=1e-9)

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), eps=st.floats(0.0, 0.999))
    def test_classical_dual_matches_lp(self, seed, n, eps):
        rng = rng_from_seed(seed)
        p = random_distribution(rng, n)
        q = random_distribution(rng, n)
        q[int(rng.integers(n))] = 0.0  # an outcome of infinite ratio
        q /= q.sum()
        res = hyptest.dh_classical(p, q, eps)
        assert res.dual == pytest.approx(lp_min_rejection(p, q, eps), abs=1e-9)
        assert abs(res.gap) <= 1e-12


class TestCqOptimalTest:
    def test_blocks_are_per_letter_optima(self):
        # the blocks of the one block-diagonal solve carry its acceptance and
        # alternate mass, and each is optimal for its letter at its own budget
        rng = rng_from_seed(140)
        weights = [0.5, 0.3, 0.2]
        rhos = [random_density(rng, 3) for _ in weights]
        sigmas = [random_density(rng, 3) for _ in weights]
        res, blocks = hyptest.cq_optimal_test(weights, rhos, sigmas, 0.1)
        assert len(blocks) == 3
        accepts = [float(np.trace(t @ r).real) for t, r in zip(blocks, rhos)]
        rejects = [float(np.trace(t @ s).real) for t, s in zip(blocks, sigmas)]
        assert np.dot(weights, accepts) == pytest.approx(res.accept_prob, abs=1e-12)
        assert np.dot(weights, rejects) == pytest.approx(res.reject_mass, abs=1e-12)
        for t, r, s, a, b in zip(blocks, rhos, sigmas, accepts, rejects):
            npt.assert_array_equal(t, t.conj().T)
            w = np.linalg.eigvalsh(t)
            assert w[0] >= -1e-12 and w[-1] <= 1 + 1e-12
            oracle = hyptest.quantum_optimal_test(r, s, 1.0 - a)
            assert abs(b - oracle.dual) <= 1e-10


class TestIhMutual:
    def test_product_state(self):
        rng = rng_from_seed(27)
        rho = np.kron(random_density(rng, 2), random_density(rng, 3))
        v = hyptest.ih_mutual(rho, (2, 3), 0.3)
        assert v == pytest.approx(-np.log2(0.7), abs=1e-9)

    def test_bell_bound(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        v = hyptest.ih_mutual(rho, (2, 2), 0.25)
        bound = 2 * np.log2(2) + 3 * np.log2(4 / 3) + 6 * np.log2(3) - 4
        assert v <= bound
        assert hyptest.ih_mutual_bound(2, 2, 0.25) == pytest.approx(bound, abs=1e-12)

    def test_classical_pair_matches_dh(self):
        rng = rng_from_seed(28)
        pxy = random_distribution(rng, 6).reshape(2, 3)
        rho = np.diag(pxy.ravel()).astype(complex)
        v = hyptest.ih_mutual(rho, (2, 3), 0.2)
        prod = np.outer(pxy.sum(axis=1), pxy.sum(axis=0)).ravel()
        vc = hyptest.dh_classical(pxy.ravel(), prod, 0.2).value_bits
        assert v == pytest.approx(vc, abs=1e-8)

    def test_prop2_bound_random(self):
        rng = rng_from_seed(29)
        for _ in range(20):
            da, db = int(rng.integers(2, 4)), int(rng.integers(2, 6))
            rho = random_density(rng, da * db)
            for eps in (0.1, 0.5, 0.9):
                v = hyptest.ih_mutual(rho, (da, db), eps)
                assert v <= hyptest.ih_mutual_bound(da, db, eps) + 1e-9


class TestCombinators:
    def test_intersect_with_ones(self):
        f = np.array([0.2, 0.7, 1.0])
        npt.assert_allclose(hyptest.intersect_tests([f, np.ones(3)]), f)

    def test_union_with_zeros(self):
        f = np.array([0.2, 0.7, 1.0])
        npt.assert_allclose(hyptest.union_tests([f, np.zeros(3)]), f)

    def test_intersection_acceptance_bound(self):
        rng = rng_from_seed(30)
        for _ in range(50):
            fs = [rng.random(5) for _ in range(3)]
            p = random_distribution(rng, 5)
            inter = hyptest.intersect_tests(fs)
            assert np.dot(inter, p) <= min(np.dot(f, p) for f in fs) + 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hyptest.intersect_tests([np.ones(3), np.ones(4)])


class TestClassicalJtl:
    def test_single_pair_reduces(self):
        rng = rng_from_seed(31)
        p = random_distribution(rng, 4)
        q = random_distribution(rng, 4)
        f = hyptest.classical_jtl([p], [q], np.array([[0.2]]))
        npt.assert_allclose(f, hyptest.dh_classical(p, q, 0.2).test, atol=1e-12)

    def test_one_by_three_guarantees(self):
        rng = rng_from_seed(32)
        p = random_distribution(rng, 4)
        qs = [random_distribution(rng, 4) for _ in range(3)]
        eps = np.array([[0.1, 0.2, 0.15]])
        f = hyptest.classical_jtl([p], qs, eps)
        assert np.dot(f, p) >= 1 - eps.sum() - 1e-12
        for j, q in enumerate(qs):
            bound = 2.0 ** (-hyptest.dh_classical(p, q, eps[0, j]).value_bits)
            assert np.dot(f, q) <= bound + 1e-12

    def test_two_by_two_random(self):
        rng = rng_from_seed(33)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            ps = [random_distribution(rng, n) for _ in range(2)]
            qs = [random_distribution(rng, n) for _ in range(2)]
            eps = rng.uniform(0.05, 0.4, size=(2, 2))
            f = hyptest.classical_jtl(ps, qs, eps)
            for i, p in enumerate(ps):
                assert np.dot(f, p) >= 1 - eps[i].sum() - 1e-12
            for j, q in enumerate(qs):
                bound = sum(
                    2.0 ** (-hyptest.dh_classical(ps[i], q, eps[i, j]).value_bits)
                    for i in range(2)
                )
                assert np.dot(f, q) <= bound + 1e-12


class TestDilatePovm:
    def test_projector_input(self):
        rng = rng_from_seed(34)
        v = haar_isometry(rng, 4, 2)
        p = v @ v.conj().T
        dil = hyptest.dilate_povm(p)
        qla.projector(dil)
        a = random_density(rng, 4)
        lhs = np.trace(dil @ np.kron(a, np.diag([1.0, 0.0]))).real
        npt.assert_allclose(lhs, np.trace(p @ a).real, atol=1e-10)

    def test_half_identity(self):
        rng = rng_from_seed(35)
        dil = hyptest.dilate_povm(0.5 * np.eye(2))
        for _ in range(5):
            rho = random_density(rng, 2)
            val = np.trace(dil @ np.kron(rho, np.diag([1.0, 0.0]))).real
            assert val == pytest.approx(0.5, abs=1e-10)

    def test_random_trace_identity(self):
        rng = rng_from_seed(36)
        pi = random_povm_element(rng, 3)
        dil = hyptest.dilate_povm(pi)
        idem = np.max(np.abs(dil @ dil - dil))
        assert idem <= 1e-10
        for _ in range(50):
            a = qla.hermitian_part(
                (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
            )
            lhs = np.trace(dil @ np.kron(a, np.diag([1.0, 0.0]))).real
            rhs = np.trace(pi @ a).real
            assert abs(lhs - rhs) <= 1e-10

    def test_rejects_non_povm(self):
        with pytest.raises(ValueError):
            hyptest.dilate_povm(np.diag([2.0, 0.0]))

    def test_eigenvalues_within_rounding_snap(self):
        # sqrt(1e-15) would put 3e-8 on the |1> (or |0>) coordinate
        mags = np.abs(hyptest.dilation_basis(np.diag([1.0 - 1e-15, 1e-15, 0.5])))
        # eigenvalues ascending: 1e-15 -> e1|1>, 0.5 -> e2 (|0> + |1>) / sqrt 2, 1 -> e0|0>
        want = np.zeros((6, 3))
        want[3, 0] = want[0, 2] = 1.0
        want[4, 1] = want[5, 1] = np.sqrt(0.5)
        npt.assert_array_equal(mags, want)
