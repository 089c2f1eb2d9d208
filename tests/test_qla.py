import numpy as np
import numpy.testing as npt
import pytest

from oneshot import qla
from oneshot.rand import (
    complex_gaussian,
    haar_isometry,
    random_density,
    random_hermitian,
    rng_from_seed,
)


def ketbra(i, d):
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return np.outer(v, v.conj())


class TestTensor:
    def test_identity(self):
        npt.assert_allclose(qla.tensor_all([np.eye(2), np.eye(2)]), np.eye(4))

    def test_basis_bookkeeping(self):
        # left factor is the slow index: |0><0| x |1><1| sits at coordinate 1
        out = qla.tensor_all([ketbra(0, 2), ketbra(1, 2)])
        npt.assert_allclose(out, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_eigenvalues_multiply(self):
        # oracle: eigendecompose both factors independently
        rng = rng_from_seed(11)
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        wa = np.linalg.eigvalsh(a)
        wb = np.linalg.eigvalsh(b)
        expected = np.sort(np.outer(wa, wb).ravel())
        got = np.sort(np.linalg.eigvalsh(qla.tensor_all([a, b])))
        npt.assert_allclose(got, expected, atol=1e-12)


class TestPartialTrace:
    def test_product_state(self):
        rng = rng_from_seed(3)
        rho = random_density(rng, 2)
        sigma = random_density(rng, 3)
        npt.assert_allclose(
            qla.partial_trace(np.kron(rho, sigma), (2, 3), keep=[0]), rho, atol=1e-12
        )
        npt.assert_allclose(
            qla.partial_trace(np.kron(rho, sigma), (2, 3), keep=[1]), sigma, atol=1e-12
        )

    def test_maximally_entangled(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        for keep in ([0], [1]):
            npt.assert_allclose(
                qla.partial_trace(rho, (2, 2), keep=keep), np.eye(2) / 2, atol=1e-12
            )

    def test_trace_preserved_random(self):
        rng = rng_from_seed(4)
        rho = random_density(rng, 6)
        out = qla.partial_trace(rho, (2, 3), keep=[1])
        npt.assert_allclose(np.trace(out), np.trace(rho), atol=1e-12)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_trace_and_positivity_preserved(self, dims):
        rng = rng_from_seed(hash(dims) % 2**32)
        d = dims[0] * dims[1]
        for _ in range(200):
            rho = random_density(rng, d)
            for keep in ([0], [1]):
                red = qla.partial_trace(rho, dims, keep=keep)
                assert abs(np.trace(red).real - 1.0) < 1e-10
                assert np.linalg.eigvalsh(red)[0] > -1e-10

    def test_tensor_then_trace(self):
        rng = rng_from_seed(5)
        a = random_hermitian(rng, 3)
        b = random_hermitian(rng, 4)
        out = qla.partial_trace(np.kron(a, b), (3, 4), keep=[0])
        npt.assert_allclose(out, a * np.trace(b), atol=1e-10)

    def test_three_factors(self):
        rng = rng_from_seed(6)
        ops = [random_density(rng, d) for d in (2, 3, 2)]
        full = qla.tensor_all(ops)
        out = qla.partial_trace(full, (2, 3, 2), keep=[0, 2])
        npt.assert_allclose(out, np.kron(ops[0], ops[2]), atol=1e-12)

    def test_slot_out_of_range(self):
        with pytest.raises(ValueError):
            qla.partial_trace(np.eye(4), (2, 2), keep=[2])
        with pytest.raises(ValueError):
            qla.partial_trace(np.eye(4), (2, 2), keep=[])


class TestSchattenNorm:
    def test_identity(self):
        assert qla.trace_norm_herm(np.eye(5)) == pytest.approx(5.0)
        assert qla.op_norm_herm(np.eye(5)) == pytest.approx(1.0)

    def test_zero(self):
        rng = rng_from_seed(10)
        rho = random_density(rng, 4)
        assert qla.trace_norm_herm(rho - rho) == 0.0

    def test_hoelder(self):
        rng = rng_from_seed(12)
        for _ in range(200):
            a = random_hermitian(rng, 4)
            b = random_hermitian(rng, 4)
            lhs = abs(np.trace(a @ b))
            rhs = min(
                qla.trace_norm_herm(a) * qla.op_norm_herm(b),
                qla.op_norm_herm(a) * qla.trace_norm_herm(b),
            )
            assert lhs <= rhs + 1e-10

    def test_trace_norm_herm_matches(self):
        rng = rng_from_seed(13)
        a = random_hermitian(rng, 6)
        assert qla.trace_norm_herm(a) == pytest.approx(np.linalg.norm(a, "nuc"), abs=1e-10)


class TestConstructors:
    def test_hermitian_symmetrizes(self):
        rng = rng_from_seed(16)
        a = random_hermitian(rng, 3)
        noisy = a + 1e-10 * complex_gaussian(rng, (3, 3))
        out = qla.hermitian(noisy)
        assert np.max(np.abs(out - out.conj().T)) <= 1e-12

    def test_density_accepts_and_rejects(self):
        rng = rng_from_seed(17)
        qla.density_matrix(random_density(rng, 4))
        bad = np.diag([1.2, -0.2, 0.0, 0.0])
        with pytest.raises(ValueError):
            qla.density_matrix(bad)
        with pytest.raises(ValueError):
            qla.density_matrix(np.eye(3))  # trace 3

    def test_povm_and_projector(self):
        rng = rng_from_seed(18)
        v = haar_isometry(rng, 5, 2)
        p = v @ v.conj().T
        out = qla.projector(p)
        assert qla.projector_rank(out) == 2
        with pytest.raises(ValueError):
            qla.povm_element(np.diag([1.5, 0.0]))
        with pytest.raises(ValueError):
            qla.projector(np.diag([0.5, 0.0]))

    def test_isometry(self):
        rng = rng_from_seed(19)
        qla.isometry(haar_isometry(rng, 6, 3))
        with pytest.raises(ValueError):
            qla.isometry(np.ones((3, 2)))
