"""The stacked audit suites against their per-trial oracle, and the stack-aware helpers."""

import audit_oracle
import numpy as np
import pytest

from oneshot import audits, mac, qla, tilting
from oneshot.rand import (
    complex_gaussian,
    haar_columns,
    haar_isometry,
    haar_projector,
    random_density,
    random_hermitian,
    rng_from_seed,
    squash_spectrum,
)


def records(checks):
    return [(c.name, c.lhs, c.rhs, c.tol, c.params) for c in checks]


class TestStackedSuitesMatchOracle:
    """Each record equals the one-trial-at-a-time loop's, by ==, in the same order."""

    SUITES = {
        "tilting": (audits.audit_tilting, audit_oracle.audit_tilting, 200),
        "a_tilting": (audits.audit_a_tilting, audit_oracle.audit_a_tilting, 100),
        "gao": (audits.audit_gao, audit_oracle.audit_gao, 100),
        "hn": (audits.audit_hn, audit_oracle.audit_hn, 100),
    }

    @pytest.mark.parametrize("suite", sorted(SUITES))
    @pytest.mark.parametrize("seed", [0, 3, 11, 12, 14])
    def test_bitwise(self, suite, seed):
        stacked, oracle, trials = self.SUITES[suite]
        got, want = records(stacked(trials, seed)), records(oracle(trials, seed))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g == w
            assert type(g[1]) is type(w[1]) and type(g[2]) is type(w[2])


def psd_with_spectrum(rng, spectrum):
    u = haar_isometry(rng, len(spectrum), len(spectrum))
    return qla.hermitian_part((u * np.asarray(spectrum)) @ u.conj().T)


class TestStackedHelpers:
    """On a stack and on each of its matrices one by one, the helpers agree bit for bit.

    The stacks mix norms about 1e6 apart, and the first matrix of each has
    eigenvalues between 1e-12 and 1e-6 that its own support keeps: a support
    cut at the maximum of the whole stack (1e-12 * 1e6) would drop them.
    """

    def each(self, fn, *stacks):
        return [fn(*(s[i] for s in stacks)) for i in range(len(stacks[0]))]

    def assert_bitwise(self, stacked, each):
        assert len(stacked) == len(each)
        for s, e in zip(stacked, each):
            assert np.shape(s) == np.shape(e)
            assert np.array_equal(s, e)

    def psd_stack(self):
        rng = rng_from_seed(5)
        small = psd_with_spectrum(rng, [1.0, 0.5, 1e-8, 0.0])
        return np.stack([small, 1e6 * random_density(rng, 4), random_density(rng, 4)])

    def test_haar_columns(self):
        rng = rng_from_seed(1)
        z = np.stack([complex_gaussian(rng, (5, 3)) * scale for scale in (1.0, 1e6, 1e-3)])
        self.assert_bitwise(haar_columns(z), self.each(haar_columns, z))
        self.assert_bitwise(haar_projector(z), self.each(haar_projector, z))

    def test_haar_isometry_is_haar_columns_of_its_draws(self):
        rng, clone = rng_from_seed(2), rng_from_seed(2)
        v = haar_isometry(rng, 6, 2)
        assert np.array_equal(v, haar_columns(complex_gaussian(clone, (6, 6))[:, :2]))

    def test_hermitian_part(self):
        rng = rng_from_seed(3)
        a = np.stack([complex_gaussian(rng, (4, 4)) * scale for scale in (1.0, 1e6)])
        self.assert_bitwise(qla.hermitian_part(a), self.each(qla.hermitian_part, a))

    def test_support_mask_is_per_matrix(self):
        w = np.linalg.eigvalsh(self.psd_stack())
        mask = qla.support_mask(w)
        self.assert_bitwise(mask, self.each(qla.support_mask, w))
        assert mask[0].tolist() == [False, True, True, True]

    def test_inv_sqrt_on_support(self):
        a = self.psd_stack()
        self.assert_bitwise(qla.inv_sqrt_on_support(a), self.each(qla.inv_sqrt_on_support, a))

    def test_squash_spectrum(self):
        rng = rng_from_seed(4)
        h = np.stack([random_hermitian(rng, 4, scale) for scale in (1.0, 1e6, 1e-3)])
        h[2] = np.eye(4)  # one eigenvalue: squashed to I / 2
        self.assert_bitwise(squash_spectrum(h), self.each(squash_spectrum, h))
        assert np.array_equal(squash_spectrum(h)[2], np.eye(4) / 2)

    def test_hayashi_nagaoka_slack(self):
        rng = rng_from_seed(6)
        u = haar_isometry(rng, 4, 4)

        def rotated(diag):
            return qla.hermitian_part((u * np.asarray(diag)) @ u.conj().T)

        # S + T = diag(1e-8, 0.6, 0.7, 0): rank-deficient, with a small
        # eigenvalue that only a per-matrix support keeps
        s = np.stack(
            [rotated([1e-8, 0.5, 0.5, 0.0]), squash_spectrum(random_hermitian(rng, 4))]
        )
        t = np.stack([rotated([0.0, 0.1, 0.2, 0.0]), 1e6 * random_density(rng, 4)])
        self.assert_bitwise(
            mac.hayashi_nagaoka_slack(s, t), self.each(mac.hayashi_nagaoka_slack, s, t)
        )

    def test_gao_slack(self):
        rng = rng_from_seed(7)
        projs = np.stack(
            [
                np.stack([haar_projector(complex_gaussian(rng, (4, r))) for r in (1, 3, 2)])
                for _ in range(3)
            ]
        )
        rho = np.stack([random_density(rng, 4), 1e6 * random_density(rng, 4), self.psd_stack()[0]])

        def slack(p, r):
            return tilting.gao_slack(list(np.moveaxis(p, -3, 0)), r)

        self.assert_bitwise(slack(projs, rho), self.each(slack, projs, rho))

    def test_stacked_returns_input_order(self):
        shapes = [(2, 3), (3, 2), (2, 3), (1, 1), (3, 2)]
        arrays = [np.full(s, float(i)) for i, s in enumerate(shapes)]
        calls = []

        def fn(x):
            calls.append(x.shape)
            return x.sum(axis=(1, 2))

        got = audits._stacked(fn, arrays)
        assert got == [a.sum() for a in arrays]
        assert sorted(calls) == [(1, 1, 1), (2, 2, 3), (2, 3, 2)]
