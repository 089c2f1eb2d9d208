import os

import numpy as np
import numpy.testing as npt
import pytest

from oneshot import cli, hyptest, mac, qla, report, tilting, typicality
from oneshot.rand import random_density, random_povm_element, rng_from_seed
import decoder_oracle


def random_classical_spec(seed, nx=2, ny=2, nz=2):
    rng = rng_from_seed(seed)
    kernel = rng.random((nx, ny, nz)) + 0.1
    kernel /= kernel.sum(axis=2, keepdims=True)
    px = rng.random(nx) + 0.3
    py = rng.random(ny) + 0.3
    return mac.ClassicalChannelSpec(kernel, px / px.sum(), py / py.sum())


def random_cq_spec(seed, nx=2, ny=2, dz=2):
    rng = rng_from_seed(seed)
    states = np.array(
        [[random_density(rng, dz) for _ in range(ny)] for _ in range(nx)]
    )
    return mac.CqChannelSpec(states, np.full(nx, 1 / nx), np.full(ny, 1 / ny))


class TestCodebook:
    def test_reproducible_and_order_independent(self):
        spec = random_classical_spec(1)
        a = mac.Codebook.sample(7, 4, 3, spec.p_x, spec.p_y, dim_l=8)
        b = mac.Codebook.sample(7, 4, 3, spec.p_x, spec.p_y, dim_l=8)
        npt.assert_array_equal(a.xs, b.xs)
        npt.assert_array_equal(a.lys, b.lys)
        # message m's letter does not depend on how many messages are drawn
        c = mac.Codebook.sample(7, 2, 3, spec.p_x, spec.p_y, dim_l=8)
        npt.assert_array_equal(a.xs[:2], c.xs)

    def test_message_count(self):
        assert mac.message_count(0.0) == 1
        assert mac.message_count(1.0) == 2
        assert mac.message_count(1.5) == 3
        assert mac.message_count(-2.0) == 1


class TestClassicalDecoder:
    def test_noiseless_identity_zero_error(self):
        ident = np.zeros((2, 1, 2))
        ident[0, 0, 0] = ident[1, 0, 1] = 1.0
        spec = mac.ClassicalChannelSpec(ident, np.array([0.5, 0.5]), np.array([1.0]))
        f = np.zeros((2, 1, 2))
        f[0, 0, 0] = f[1, 0, 1] = 1.0
        cb = mac.Codebook(np.array([0, 1]), np.array([0]), None, None, 0)
        assert mac.classical_decoder_error(spec, cb, f) == 0.0

    def test_all_zero_test_errs(self):
        spec = random_classical_spec(2)
        cb = mac.Codebook.sample(0, 2, 2, spec.p_x, spec.p_y)
        assert mac.classical_decoder_error(spec, cb, np.zeros(spec.shape)) == 1.0

    def test_closed_form_matches_simulation(self):
        spec = random_classical_spec(3)
        info = mac.classical_information_quantities(spec, 0.2)
        f = info["decoder_test"]
        cb = mac.Codebook.sample(5, 3, 3, spec.p_x, spec.p_y)
        exact = mac.classical_decoder_error(spec, cb, f)
        shots = 10**6
        sim = mac.classical_decoder_simulation(spec, cb, f, shots=shots, seed=1)
        sigma = np.sqrt(max(exact * (1 - exact), 1e-6) / shots)
        assert abs(exact - sim) <= 3 * sigma


class TestClassicalExperiment:
    def test_single_message_error_below_3eps(self):
        spec = random_classical_spec(4)
        eps = 0.1
        res = mac.classical_mac_experiment(spec, 0.0, 0.0, eps, trials=40, seed=0)
        assert res.mc_mean <= 3 * eps + 3 * res.mc_sem + 1e-12

    def test_degenerate_channel(self):
        # output independent of inputs: all information quantities collapse
        kernel = np.zeros((2, 2, 2))
        kernel[..., 0] = 0.3
        kernel[..., 1] = 0.7
        spec = mac.ClassicalChannelSpec(
            kernel, np.array([0.5, 0.5]), np.array([0.5, 0.5])
        )
        eps = 0.2
        info = mac.classical_information_quantities(spec, eps)
        for key in ("i_x_yz", "i_y_xz", "i_xy_z"):
            assert info[key] == pytest.approx(-np.log2(1 - eps), abs=1e-9)
        res = mac.classical_mac_experiment(spec, 2.0, 2.0, eps, trials=5, seed=0)
        assert res.mc_mean > 0.7

    def test_corner_bound_holds(self):
        spec = random_classical_spec(6)
        eps = 0.05
        info = mac.classical_information_quantities(spec, eps)
        r1, r2 = mac.classical_corner_rates(info, eps)
        res = mac.classical_mac_experiment(spec, r1, r2, eps, trials=100, seed=3)
        assert res.within_bound("total")
        assert res.bounds["total"] <= 6 * eps + 1e-12


# the operators with dim Z' rows, which only tests and the benchmark may build
DENSE_ORACLES = (
    (mac, "pgm"),
    (mac.DecodingSet, "povm"),
    (mac.DecodingSet, "povm_factor"),
    (mac.PerturbedChannel, "rho_prime"),
    (mac.PerturbedChannel, "tilt"),
    (mac.AveragedState, "dense"),
    (mac.AveragedState, "copies"),
)


class TestPerturbedChannel:
    def test_delta_zero_embeds_exactly(self):
        spec = random_cq_spec(7)
        chan = mac.PerturbedChannel(spec, 4, 0.0)
        emb = chan.tilt()
        expected = emb @ chan.rho_hat(0, 1) @ emb.conj().T
        npt.assert_allclose(chan.rho_prime(0, 3, 1, 2), expected, atol=1e-12)

    def test_tilts_are_isometries(self):
        chan = mac.PerturbedChannel(random_cq_spec(14), 4, 0.3)
        for labels in [(), (1, None), (None, 3), (1, 3)]:
            t = chan.tilt(*labels)
            npt.assert_allclose(t.conj().T @ t, np.eye(chan.base), atol=1e-12)

    def test_unit_trace_blocks(self):
        spec = random_cq_spec(8)
        chan = mac.PerturbedChannel(spec, 4, 0.3)
        for lx, ly in [(0, 0), (1, 3), (2, 2)]:
            tr = np.trace(chan.rho_prime(0, lx, 1, ly)).real
            assert tr == pytest.approx(1.0, abs=1e-12)

    def test_perturbation_first_order_value(self):
        # the exact distance of a tilted block: 2 sqrt(2 d^2 / (1 + 2 d^2))
        spec = random_cq_spec(9)
        delta = 0.3
        chan = mac.PerturbedChannel(spec, 4, delta)
        got = chan.perturbation_l1(0, 0)
        assert got == pytest.approx(2 * np.sqrt(2 * delta**2 / (1 + 2 * delta**2)), abs=1e-9)
        # the distance is first order in delta: it exceeds the quadratic
        # target 4 delta^2 at any delta < 0.93 but meets 2 sqrt(2) delta
        assert got > 4 * delta**2
        assert got <= 2 * np.sqrt(2) * delta + 1e-12

    def test_perturbation_l1_matches_dense(self):
        spec = random_cq_spec(43)
        chan = mac.PerturbedChannel(spec, 8, 0.35)
        emb = chan.tilt()
        for x, y, lx, ly in [(0, 0, 0, 0), (0, 1, 3, 5), (1, 0, 7, 0), (1, 1, 2, 2)]:
            diff = chan.rho_prime(x, lx, y, ly) - emb @ chan.rho_hat(x, y) @ emb.conj().T
            want = qla.trace_norm_herm(diff)
            assert chan.perturbation_l1(x, y) == pytest.approx(want, abs=1e-12)

    def test_averaged_states_match_brute_force(self):
        spec = random_cq_spec(10)
        L, delta = 3, 0.4
        chan = mac.PerturbedChannel(spec, L, delta)
        brute = np.zeros((chan.dim, chan.dim), dtype=complex)
        for y in range(spec.ny):
            for ly in range(L):
                brute += spec.p_y[y] / L * chan.rho_prime(1, 2, y, ly)
        npt.assert_allclose(chan.averaged_over_y(1).dense(l_x=2), brute, atol=1e-12)
        brute = np.zeros((chan.dim, chan.dim), dtype=complex)
        for x in range(spec.nx):
            for lx in range(L):
                brute += spec.p_x[x] / L * chan.rho_prime(x, lx, 0, 1)
        npt.assert_allclose(chan.averaged_over_x(0).dense(l_y=1), brute, atol=1e-12)
        brute_all = np.zeros((chan.dim, chan.dim), dtype=complex)
        for x in range(spec.nx):
            for y in range(spec.ny):
                for lx in range(L):
                    for ly in range(L):
                        w = spec.p_x[x] * spec.p_y[y] / L**2
                        brute_all += w * chan.rho_prime(x, lx, y, ly)
        npt.assert_allclose(chan.averaged_all().dense(), brute_all, atol=1e-12)

    def test_averaged_first_summand_block(self):
        # the fully averaged state keeps exactly weight 1/(1+2 d^2) on the
        # embedded average in its first summand block
        spec = random_cq_spec(11)
        delta = 0.25
        chan = mac.PerturbedChannel(spec, 4, delta)
        base = chan.slices["base"]
        block = chan.averaged_all().dense()[base, base]
        expected = mac.typicality.embed_with_ancilla(spec.avg(), 1, spec.dz) / (
            1 + 2 * delta**2
        )
        npt.assert_allclose(block, expected, atol=1e-12)


def averaged_kinds(chan):
    return {
        "over_y": chan.averaged_over_y(1),
        "over_x": chan.averaged_over_x(0),
        "all": chan.averaged_all(),
    }


class TestAveragedState:
    @pytest.mark.parametrize("L", [2, 5])
    def test_povm_expectation_matches_dense(self, L):
        spec = random_cq_spec(44)
        chan = mac.PerturbedChannel(spec, L, 0.35)
        rng = rng_from_seed(45)
        for lx, ly in [(1, 1), (L - 1, 0)]:
            box = chan.label_box(lx, ly)
            for kind, avg in averaged_kinds(chan).items():
                dense = avg.dense(lx, ly)
                for cols in (1, 3):
                    shape = (3 * chan.base, cols)
                    b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                    full = box.expand(b)
                    want = np.trace(full.conj().T @ dense @ full).real
                    assert avg.povm_expectation(b) == pytest.approx(want, abs=1e-12), kind

    def test_columns_orthonormal_and_spread_orthogonal(self):
        spec = random_cq_spec(46)
        chan = mac.PerturbedChannel(spec, 5, 0.3)
        for avg in averaged_kinds(chan).values():
            cols = avg.copies(2, 3)
            k = cols.shape[1]
            npt.assert_allclose(cols.conj().T @ cols, np.eye(k), atol=1e-12)
            # the spread part has no weight on the span of the columns
            spread = avg.dense(2, 3) - cols @ avg.core @ cols.conj().T
            npt.assert_allclose(spread @ cols, 0.0, atol=1e-12)

    def test_residual_norm_matches_dense(self):
        # with ref_core = core only the spread is left, which the smoothing
        # references never expose (their core difference always dominates)
        spec = random_cq_spec(49)
        chan = mac.PerturbedChannel(spec, 5, 0.4)
        rng = rng_from_seed(50)
        for avg in averaged_kinds(chan).values():
            cols = avg.copies(1, 4)
            k = cols.shape[1]
            noise = qla.hermitian_part(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
            for ref in (avg.core, avg.core + 1e-3 * noise, np.zeros((k, k))):
                want = qla.op_norm_herm(avg.dense(1, 4) - cols @ ref @ cols.conj().T)
                assert avg.residual_norm(ref) == pytest.approx(want, abs=1e-12)


class TestSmoothingResiduals:
    @pytest.mark.parametrize("L, delta", [(2, 0.3), (5, 0.45), (2, 0.0), (5, 0.0)])
    def test_norms_match_dense(self, L, delta):
        spec = random_cq_spec(47)
        chan = mac.PerturbedChannel(spec, L, delta)
        lead = (1 + delta**2) / (1 + 2 * delta**2)

        def embed(rho):
            return mac.typicality.embed_with_ancilla(rho, 1, spec.dz)

        want = []
        for count, marginal, t, averaged in (
            (spec.nx, spec.avg_x, chan.tilt(l_x=0), chan.averaged_over_y),
            (spec.ny, spec.avg_y, chan.tilt(l_y=0), chan.averaged_over_x),
        ):
            for a in range(count):
                ref = lead * t @ embed(marginal(a)) @ t.conj().T
                want.append(qla.op_norm_herm(averaged(a).dense() - ref))
        e = chan.tilt()
        ref = e @ embed(spec.avg()) @ e.conj().T / (1 + 2 * delta**2)
        want.append(qla.op_norm_herm(chan.averaged_all().dense() - ref))
        got = [c.lhs for c in mac.smoothing_residuals(chan)]
        npt.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_delta_zero_residuals_vanish(self):
        spec = random_cq_spec(12)
        chan = mac.PerturbedChannel(spec, 4, 0.0)
        for c in mac.smoothing_residuals(chan):
            assert c.lhs <= 1e-12

    def test_bounds_hold(self):
        spec = random_cq_spec(13)
        chan = mac.PerturbedChannel(spec, 16, 0.2)
        checks = mac.smoothing_residuals(chan)
        assert report.all_pass(checks)
        assert all(c.rhs == pytest.approx(3 * 0.2 / 4.0) for c in checks)


class TestDecodingPipeline:
    def test_pipeline_checks(self):
        spec = random_cq_spec(14)
        eps = 1e-4
        dec = mac.build_decoding_povms(spec, 64, eps**0.25, eps)
        checks = mac.pipeline_checks(dec)
        by_name = {}
        for c in checks:
            by_name.setdefault(c.name, []).append(c)
        # every stated bound except the defective quadratic perturbation holds
        for name, group in by_name.items():
            if name == "perturbation_l1_stated":
                assert not any(c.passed for c in group)
            else:
                assert all(c.passed for c in group), name
        # at this eps the 22 sqrt(eps) type-1 bound is non-vacuous and holds
        t1 = by_name["type1_sqrt_eps"][0]
        assert t1.rhs < 1.0 and t1.passed

    def test_representative_labels(self):
        # pipeline_quantities evaluates on the rows of one label pair only:
        # every quantity is the same, from the dense oracles, at any pair
        spec = random_cq_spec(48)
        dec = mac.build_decoding_povms(spec, 8, 0.3, 0.05)
        chan = dec.chan
        ref = mac.pipeline_quantities(dec)

        def accept(b, dense):
            return np.trace(b.conj().T @ dense @ b).real

        e = chan.tilt()
        for lx, ly in [(0, 0), (3, 5), (7, 1)]:
            got = dict.fromkeys(ref, 0.0)
            avg_all = chan.averaged_all().dense(lx, ly)
            for x in range(spec.nx):
                for y in range(spec.ny):
                    w = spec.p_x[x] * spec.p_y[y]
                    b = dec.povm_factor(x, lx, y, ly)
                    rho = chan.rho_prime(x, lx, y, ly)
                    got["type1"] += w * (1.0 - accept(b, rho))
                    got["t2_keep_x"] += w * accept(b, chan.averaged_over_y(x).dense(lx, ly))
                    got["t2_keep_y"] += w * accept(b, chan.averaged_over_x(y).dense(lx, ly))
                    got["t2_none"] += w * accept(b, avg_all)
                    diff = rho - e @ chan.rho_hat(x, y) @ e.conj().T
                    pert = qla.trace_norm_herm(diff)
                    got["max_perturbation"] = max(got["max_perturbation"], pert)
            for key, value in ref.items():
                assert got[key] == pytest.approx(value, abs=1e-12), (key, lx, ly)

    def test_povm_is_valid(self):
        spec = random_cq_spec(15)
        dec = mac.build_decoding_povms(spec, 8, 0.2, 0.1)
        pi = dec.povm(0, 1, 1, 2)
        qla.povm_element(pi)

    def test_label_covariance(self):
        spec = random_cq_spec(16)
        dec = mac.build_decoding_povms(spec, 6, 0.25, 0.1)
        chan = dec.chan
        vals = []
        for lx, ly in [(0, 0), (3, 1), (2, 2)]:
            pi = dec.povm(1, lx, 0, ly)
            vals.append(np.trace(pi @ chan.rho_prime(1, lx, 0, ly)).real)
        assert max(vals) - min(vals) <= 1e-10

    def test_commuting_channel_matches_classical(self):
        # diagonal output states: the cq information quantities equal the
        # classical ones of the induced kernel
        rng = rng_from_seed(17)
        kernel = rng.random((2, 2, 2)) + 0.2
        kernel /= kernel.sum(axis=2, keepdims=True)
        states = np.zeros((2, 2, 2, 2), dtype=complex)
        for x in range(2):
            for y in range(2):
                states[x, y] = np.diag(kernel[x, y])
        px = np.array([0.5, 0.5])
        py = np.array([0.6, 0.4])
        cspec = mac.ClassicalChannelSpec(kernel, px, py)
        qspec = mac.CqChannelSpec(states, px, py)
        eps = 0.15
        info = mac.classical_information_quantities(cspec, eps)
        dec = mac.build_decoding_povms(qspec, 4, 0.2, eps)
        assert dec.i_x_yz == pytest.approx(info["i_x_yz"], abs=1e-8)
        assert dec.i_y_xz == pytest.approx(info["i_y_xz"], abs=1e-8)
        assert dec.i_xy_z == pytest.approx(info["i_xy_z"], abs=1e-8)


class TestPgm:
    def test_orthogonal_projectors_fixed(self):
        basis = np.eye(4, dtype=complex)
        p1 = np.outer(basis[:, 0], basis[:, 0])
        p2 = np.outer(basis[:, 1], basis[:, 1])
        lambdas, abstain = mac.pgm([p1, p2])
        npt.assert_allclose(lambdas[0], p1, atol=1e-12)
        npt.assert_allclose(lambdas[1], p2, atol=1e-12)
        npt.assert_allclose(abstain, np.eye(4) - p1 - p2, atol=1e-12)

    def test_single_element_support_projector(self):
        rng = rng_from_seed(18)
        pi = random_povm_element(rng, 3)
        lambdas, _ = mac.pgm([pi])
        w = np.linalg.eigvalsh(lambdas[0])
        assert np.all((w < 1e-9) | (np.abs(w - 1) < 1e-9))

    def test_completeness(self):
        rng = rng_from_seed(19)
        povms = [random_povm_element(rng, 6) for _ in range(4)]
        lambdas, abstain = mac.pgm(povms)
        total = sum(lambdas) + abstain
        assert np.max(np.abs(total - np.eye(6))) <= 1e-10


def factored_rho_prime(chan, x, l_x, y, l_y):
    """Oracle: rho' as tilt(l_x, l_y) rho_hat(x, y) tilt(l_x, l_y)† on every row of Z'."""
    return typicality.LowRankState(chan.tilt(l_x, l_y), chan.rho_hat(x, y))


def dense_pgm_success(povms, states):
    lambdas, _ = mac.pgm(povms)
    return np.array([np.trace(lam @ rho).real for lam, rho in zip(lambdas, states)])


class TestPgmSuccess:
    def codebook_terms(self, dec, cb):
        pairs = [
            (cb.xs[i1], cb.lxs[i1], cb.ys[i2], cb.lys[i2])
            for i1 in range(len(cb.xs))
            for i2 in range(len(cb.ys))
        ]
        factors = [dec.povm_factor(*p) for p in pairs]
        states = [factored_rho_prime(dec.chan, *p) for p in pairs]
        povms = [dec.povm(*p) for p in pairs]
        dense_states = [dec.chan.rho_prime(*p) for p in pairs]
        return factors, states, povms, dense_states

    @pytest.mark.parametrize("m1, m2", [(1, 1), (2, 2), (4, 2)])
    def test_matches_dense_pgm(self, m1, m2):
        spec = random_cq_spec(40)
        dec = mac.build_decoding_povms(spec, 16, 0.3, 0.05)
        for seed in range(3):
            cb = mac.Codebook.sample(seed, m1, m2, spec.p_x, spec.p_y, dim_l=16)
            factors, states, povms, dense_states = self.codebook_terms(dec, cb)
            got = mac.pgm_success(factors, states)
            npt.assert_allclose(got, dense_pgm_success(povms, dense_states), atol=1e-12)

    def test_repeated_codeword_rank_deficient(self):
        # two messages share (x, l_x, y, l_y): G = [B_1 ... B_M] loses rank and
        # the support cutoff decides which singular values count
        spec = random_cq_spec(41)
        dec = mac.build_decoding_povms(spec, 16, 0.3, 0.05)
        cb = mac.Codebook(
            np.array([1, 1, 0]), np.array([0]), np.array([5, 5, 2]), np.array([7]), 0
        )
        factors, states, povms, dense_states = self.codebook_terms(dec, cb)
        g = np.hstack(factors)
        assert np.linalg.matrix_rank(g) < g.shape[1]
        got = mac.pgm_success(factors, states)
        npt.assert_allclose(got, dense_pgm_success(povms, dense_states), atol=1e-12)
        assert got[0] == pytest.approx(got[1], abs=1e-12)

    def test_time_sharing_codebook(self):
        rng = rng_from_seed(25)
        states = np.array(
            [[random_density(rng, 2) for _ in range(2)] for _ in range(2)]
        )
        ts = mac.TimeSharingSpec(
            states,
            np.array([0.5, 0.5]),
            np.array([[0.8, 0.2], [0.3, 0.7]]),
            np.array([[0.6, 0.4], [0.1, 0.9]]),
        )
        inst = mac.time_sharing_instance(ts, 2, 0.05 ** (1.0 / 3.0), 0.05)
        constrs = []
        for x, y, lx, ly in [(0, 1, 0, 1), (1, 1, 1, 1), (0, 0, 1, 0)]:
            word = (1, x, y)
            l_assign = {-3: 1, -2: lx, -1: ly, 1: 0}
            constrs.append(mac.typicality.build_construction(inst, word).relabeled(l_assign))
        got = mac.pgm_success([c.b_factor for c in constrs], [c.rho_prime for c in constrs])
        want = dense_pgm_success(
            [c.b_factor @ c.b_factor.conj().T for c in constrs],
            [c.rho_prime.dense() for c in constrs],
        )
        npt.assert_allclose(got, want, atol=1e-12)

    def test_experiment_builds_no_dense_operator(self, monkeypatch):
        spec = random_cq_spec(42)
        dec = mac.build_decoding_povms(spec, 16, 0.3, 0.05)

        def forbidden(*args, **kwargs):
            raise AssertionError("dense operator built in the decoding path")

        for owner, name in DENSE_ORACLES:
            monkeypatch.setattr(owner, name, forbidden)
        res = mac.cq_mac_experiment(spec, 1.0, 1.0, 0.05, 16, 0.3, trials=2, seed=3, dec=dec)
        assert res.errors.shape == (2,)
        mac.pipeline_quantities(dec)
        assert mac.pipeline_checks(dec)


class TestHayashiNagaoka:
    def test_projector_no_interference(self):
        rng = rng_from_seed(20)
        from oneshot.rand import random_projector

        s = random_projector(rng, 4, 2)
        assert mac.hayashi_nagaoka_slack(s, np.zeros((4, 4))) >= -1e-9

    def test_scalar_case(self):
        s = 0.5 * np.eye(3)
        t = 0.25 * np.eye(3)
        # closed form: 1 - s/(s+t) vs 2(1-s) + 4t
        lhs = 1 - 0.5 / 0.75
        rhs = 2 * 0.5 + 4 * 0.25
        assert mac.hayashi_nagaoka_slack(s, t) == pytest.approx(rhs - lhs, abs=1e-12)

    def test_random_instances(self):
        rng = rng_from_seed(21)
        for _ in range(100):
            d = int(rng.integers(2, 7))
            s = random_povm_element(rng, d)
            t = random_density(rng, d) * float(rng.uniform(0, 3))
            assert mac.hayashi_nagaoka_slack(s, t) >= -1e-9


class TestCqExperiment:
    def test_single_message_fallback(self):
        spec = random_cq_spec(22)
        eps = 0.01
        res = mac.cq_mac_experiment(spec, 0.0, 0.0, eps, 16, trials=10, seed=0)
        assert res.mc_mean <= res.bounds["fallback"] + 3 * res.mc_sem + 1e-9

    def test_hn_bound_holds_with_messages(self):
        spec = random_cq_spec(23)
        eps = 0.05
        res = mac.cq_mac_experiment(spec, 1.0, 1.0, eps, 16, trials=20, seed=1)
        assert res.mc_mean <= res.bounds["hn"] + 3 * res.mc_sem + 1e-9

    def test_corner_rates_clamped(self):
        spec = random_cq_spec(24)
        dec = mac.build_decoding_povms(spec, 8, 0.3, 0.01)
        r1, r2 = mac.cq_corner_rates(dec, 0.01)
        assert r1 >= 0 and r2 >= 0
        assert r1 + r2 <= max(0.0, dec.i_xy_z - 1 - np.log2(100)) + 1e-12

    def test_minimal_ancilla_dim(self):
        L = mac.minimal_ancilla_dim(0.2, 2, [1.0, 1.5, 2.0])
        assert 6 * 0.2 * 2 / np.sqrt(L) <= 2.0**-2.0 + 1e-12


def time_sharing_spec():
    rng = rng_from_seed(25)
    states = np.array(
        [[random_density(rng, 2) for _ in range(2)] for _ in range(2)]
    )
    return mac.TimeSharingSpec(
        states,
        np.array([0.5, 0.5]),
        np.array([[0.8, 0.2], [0.3, 0.7]]),
        np.array([[0.6, 0.4], [0.1, 0.9]]),
    )


class TestTimeSharing:
    def test_experiment_runs_and_bounds(self):
        ts = time_sharing_spec()
        res = mac.time_sharing_experiment(ts, 0.0, 0.0, 0.05, dim_l=2, trials=3, seed=1)
        assert res.mc_mean <= res.bounds["fallback"] + 3 * res.mc_sem + 1e-9
        assert res.bounds["i_x_yz_u"] >= 0
        res2 = mac.time_sharing_experiment(ts, 0.5, 0.0, 0.05, dim_l=2, trials=3, seed=2)
        assert res2.mc_mean <= res2.bounds["hn"] + 3 * res2.mc_sem + 1e-9

    def test_solves_only_in_its_lemma(self, monkeypatch):
        # the codebook words reuse the lemma's tests: one cq solve per split
        calls = [0]
        solve = hyptest.optimal_tests

        def counting(rho, *args):
            calls[0] += len(rho)
            return solve(rho, *args)

        monkeypatch.setattr(hyptest, "optimal_tests", counting)
        mac.time_sharing_experiment(time_sharing_spec(), 0.5, 0.0, 0.05, dim_l=2, trials=3, seed=2)
        assert calls[0] == len(typicality.enum_pslattice(3, 1).linear_ext)

    def test_codebooks_relabel_the_lemma(self, monkeypatch):
        # each codeword pair's block is a relabeled copy of its word's
        # construction: no embedding is built after the lemma
        done = [False]
        lemma = typicality.intersection_lemma

        def recording(inst):
            res = lemma(inst)
            done[0] = True
            return res

        def guarded(fn):
            def wrapped(*args, **kwargs):
                assert not done[0], f"{fn.__name__} called after the lemma"
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(typicality, "intersection_lemma", recording)
        monkeypatch.setattr(typicality, "build_construction", guarded(typicality.build_construction))
        monkeypatch.setattr(typicality, "psp_local", guarded(typicality.psp_local))
        res = mac.time_sharing_experiment(time_sharing_spec(), 0.5, 0.5, 0.05, dim_l=2, trials=3, seed=2)
        assert done[0] and res.errors.shape == (3,)

    def test_per_word_budgets_clipped_at_zero(self):
        # several words' blocks accept all of rho_x, where 1 - Tr[T_x rho_x]
        # rounds as low as -4.4e-16; a negative budget would lift the stated
        # completeness floor of claim 4 far above 1
        inst = mac.time_sharing_instance(time_sharing_spec(), 2, 0.05 ** (1 / 3), 0.05)
        tests = typicality.optimal_splitting_tests(inst)
        assert min(t.eps for per_x in tests.values() for t in per_x.values()) == 0.0


def full_row_povm_factor(dec, x, l_x, y, l_y):
    """Oracle: the POVM factor from the tilted images on every row of Z'."""
    chan = dec.chan
    images = [
        chan.tilt(l_x=l_x) @ dec.w_x[x, y],
        chan.tilt(l_y=l_y) @ dec.w_y[x, y],
        chan.tilt() @ dec.w_xy[x, y],
    ]
    q = tilting.orthonormalize(np.hstack(images))
    return tilting.complement_factor(chan.tilt(), q)


def label_embed(chan, summand, label):
    """Oracle: the base copy in a summand of Z' at one label (0 for the base summand)."""
    v = np.zeros((chan.dim, chan.base), dtype=complex)
    h = np.arange(chan.base)
    v[chan.slices[summand]].reshape(chan.base, -1, chan.base)[h, label, h] = 1.0
    return v


def load_config(name):
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    with open(os.path.join(root, name)) as fh:
        cfg = cli.parse_kv(fh.read())
    return cli.load_cq_spec(cfg), float(cfg["epsilon"]), int(cfg["l_dim"])


class TestLabelLocalFactors:
    def test_tilt_is_placed_local_tilt(self):
        chan = mac.PerturbedChannel(random_cq_spec(51), 8, 0.35)
        d = chan.delta
        for lx, ly in [(0, 0), (3, 5), (7, 1)]:
            want = sum(label_embed(chan, s, lab) for s, lab in (("LX", lx), ("LY", ly)))
            want = label_embed(chan, "base", 0) + d * want
            npt.assert_array_equal(chan.tilt(lx, ly), want / np.sqrt(1 + 2 * d * d))
            rows = chan.label_box(lx, ly).rows[0]
            assert len(rows) == 3 * chan.base and np.all(np.diff(rows) > 0)

    @pytest.mark.parametrize("seed", [48, 52])
    def test_placed_factor_matches_full_row_oracle(self, seed):
        spec = random_cq_spec(seed)
        L = 8
        dec = mac.build_decoding_povms(spec, L, 0.3, 0.05)
        for lx, ly in [(0, 0), (3, 5), (L - 1, 1)]:
            for x in range(spec.nx):
                for y in range(spec.ny):
                    npt.assert_allclose(
                        dec.povm_factor(x, lx, y, ly),
                        full_row_povm_factor(dec, x, lx, y, ly),
                        rtol=0, atol=1e-12,
                    )

    @pytest.mark.parametrize("r1, r2", [(1.0, 1.0), (2.0, 1.0)])
    def test_codebook_on_union_of_label_rows(self, r1, r2, monkeypatch):
        spec = random_cq_spec(42)
        dim_l = 16
        dec = mac.build_decoding_povms(spec, dim_l, 0.3, 0.05)
        m1, m2 = mac.message_count(r1), mac.message_count(r2)
        most = (1 + m1 + m2) * dec.chan.base
        success = mac.pgm_success
        seen = []

        def checked(factors, states):
            for b, st in zip(factors, states):
                assert b.shape[0] <= most and st.factor.shape[0] == b.shape[0]
            seen.append(len(factors))
            return success(factors, states)

        monkeypatch.setattr(mac, "pgm_success", checked)
        res = mac.cq_mac_experiment(spec, r1, r2, 0.05, dim_l, 0.3, trials=3, seed=3, dec=dec)
        assert seen == [m1 * m2] * 3
        # the same errors from the factors and states on every row of Z'
        for t, err in enumerate(res.errors):
            cb = mac.Codebook.sample(3 + t, m1, m2, spec.p_x, spec.p_y, dim_l=dim_l)
            pairs = [
                (cb.xs[i1], cb.lxs[i1], cb.ys[i2], cb.lys[i2])
                for i1 in range(m1)
                for i2 in range(m2)
            ]
            full = success(
                [full_row_povm_factor(dec, *p) for p in pairs],
                [factored_rho_prime(dec.chan, *p) for p in pairs],
            )
            assert err == pytest.approx(float(np.mean(1.0 - full)), abs=1e-12)


class TestSizeGates:
    def test_cheap_channel_runs_past_the_dim_cap(self, monkeypatch):
        # |L| = 1024 gives dim Z' = 8196 > 4096 rows, but no array on the
        # decoding path has dim Z' rows
        spec, eps, _ = load_config("configs/cq_mac_small.txt")

        def forbidden(*args, **kwargs):
            raise AssertionError("dense operator built in the decoding path")

        monkeypatch.delenv("ONESHOT_DIM_CAP", raising=False)
        for owner, name in DENSE_ORACLES:
            monkeypatch.setattr(owner, name, forbidden)
        res = mac.cq_mac_experiment(spec, 1.0, 1.0, eps, 1024, trials=2, seed=0)
        assert res.errors.shape == (2,)
        assert mac.PerturbedChannel(spec, 1024, 0.3).dim == 8196 > typicality.site_dim_cap()

    def test_dense_oracles_keep_the_dim_cap(self, monkeypatch):
        # dim Z' = 132 rows: the channel runs under a cap of 100, its dense
        # 132 x 132 operators do not
        monkeypatch.setenv("ONESHOT_DIM_CAP", "100")
        spec = random_cq_spec(53)
        dec = mac.build_decoding_povms(spec, 16, 0.3, 0.05)
        assert dec.chan.dim == 132
        for dense in (
            lambda: dec.chan.rho_prime(0, 1, 1, 2),
            lambda: dec.povm(0, 1, 1, 2),
            lambda: dec.chan.averaged_all().dense(),
        ):
            with pytest.raises(ValueError, match="dense operator of dimension 132"):
                dense()

    def test_wide_channel_runs_under_a_small_cap(self, monkeypatch):
        # 516 rows of Z' under a cap of 64: the decoder, its bounds and the
        # pipeline checks give what they give uncapped
        spec = random_cq_spec(54)

        def run():
            dec = mac.build_decoding_povms(spec, 64, 0.3, 0.05)
            res = mac.cq_mac_experiment(spec, 1.0, 1.0, 0.05, 64, 0.3, trials=2, seed=0, dec=dec)
            return dec, res, [(c.name, c.lhs) for c in mac.pipeline_checks(dec)]

        monkeypatch.delenv("ONESHOT_DIM_CAP", raising=False)
        _, want, want_checks = run()
        monkeypatch.setenv("ONESHOT_DIM_CAP", "64")
        dec, got, got_checks = run()
        assert dec.chan.dim == 516
        npt.assert_array_equal(got.errors, want.errors)
        assert got.bounds == want.bounds
        assert got_checks == want_checks


class TestDilationRounding:
    def test_outputs_stable_under_test_rounding(self, monkeypatch):
        # the dilation's sqrt(1 - w) turned a 1e-15 change of a test block
        # into about 3e-9 of the errors; eigenvalues at 0 and 1 are snapped
        spec, eps, dim_l = load_config("bench/cq_mac.txt")
        base = mac.cq_mac_experiment(spec, 1.0, 1.0, eps, dim_l, trials=3, seed=5)
        solve = hyptest.cq_optimal_tests
        for seed in range(5):
            rng = rng_from_seed(seed)

            def perturbed(*args):
                out = []
                for res, blocks in solve(*args):
                    moved = []
                    for blk in blocks:
                        g = rng.normal(size=blk.shape) + 1j * rng.normal(size=blk.shape)
                        h = g + g.conj().T
                        moved.append(blk + 1e-15 * h / np.linalg.norm(h, 2))
                    out.append((res, moved))
                return out

            monkeypatch.setattr(hyptest, "cq_optimal_tests", perturbed)
            got = mac.cq_mac_experiment(spec, 1.0, 1.0, eps, dim_l, trials=3, seed=5)
            npt.assert_allclose(got.errors, base.errors, rtol=0, atol=1e-12)
            for key, value in base.bounds.items():
                assert got.bounds[key] == pytest.approx(value, rel=0, abs=1e-12), key


class TestTrivialDecodingSet:
    def test_all_trivial_tests_give_slice_projector(self):
        spec = random_cq_spec(30)
        dec = mac.build_decoding_povms(spec, 4, 0.2, 0.1)
        empty = {key: basis[:, :0] for key, basis in dec.w_x.items()}
        trivial = mac.DecodingSet(
            chan=dec.chan, eps=dec.eps, i_x_yz=0.0, i_y_xz=0.0, i_xy_z=0.0,
            w_x=empty, w_y=dict(empty), w_xy=dict(empty),
        )
        e = dec.chan.tilt()
        npt.assert_allclose(trivial.povm(0, 1, 1, 2), e @ e.conj().T, atol=1e-12)


def load_decoder_args(name):
    """(spec, dim_l, delta, eps) of a cq config, delta = eps^(1/4) when auto."""
    spec, eps, dim_l = load_config(name)
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    with open(os.path.join(root, name)) as fh:
        delta = cli.parse_kv(fh.read()).get("delta", "auto")
    return spec, dim_l, eps**0.25 if delta == "auto" else float(delta), eps


def adder_spec(n, noise=0.01):
    """z = x + y mod n with output (1 - noise) |z><z| + noise I/n, uniform inputs."""
    states = np.zeros((n, n, n, n), dtype=complex)
    for x in range(n):
        for y in range(n):
            states[x, y] = noise / n * np.eye(n)
            states[x, y, (x + y) % n, (x + y) % n] += 1.0 - noise
    return mac.CqChannelSpec(states, np.full(n, 1 / n), np.full(n, 1 / n))


def cq_pairs(spec):
    """The three cq pairs of build_decoding_povms: weights, states and each test's alternates."""
    letters = [(x, y) for x in range(spec.nx) for y in range(spec.ny)]
    weights = [spec.p_x[x] * spec.p_y[y] for x, y in letters]
    states = [spec.states[x, y] for x, y in letters]
    alternates = (
        [spec.avg_x(x) for x, _ in letters],
        [spec.avg_y(y) for _, y in letters],
        [spec.avg() for _ in letters],
    )
    return weights, states, alternates


DECODER_CONFIGS = [
    "configs/cq_mac_small.txt", "bench/cq_mac.txt", "configs/cq_mac_wide.txt", "configs/cq_adder8.txt",
]


def psd_with_spectrum(rng, spectrum):
    d = len(spectrum)
    q = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    return qla.hermitian_part((q * np.asarray(spectrum)) @ q.conj().T)


class TestStackedDecoder:
    @pytest.mark.parametrize("name", DECODER_CONFIGS)
    def test_matches_per_block_oracle(self, name):
        # one stacked dilation and rejection basis for all 3 |X||Y| blocks and
        # one tilted basis per distinct triple give the per-block build's bits
        spec, dim_l, delta, eps = load_decoder_args(name)
        dec = mac.build_decoding_povms(spec, dim_l, delta, eps)
        want = decoder_oracle.per_block_decoding_set(spec, dim_l, delta, eps)
        for key in ("i_x_yz", "i_y_xz", "i_xy_z"):
            assert getattr(dec, key) == want[key], key
        for key in ("w_x", "w_y", "w_xy", "local"):
            got = getattr(dec, key)
            assert got.keys() == want[key].keys()
            for xy in got:
                assert np.array_equal(got[xy], want[key][xy]), (key, xy)

    @pytest.mark.parametrize("name", DECODER_CONFIGS)
    def test_solves_match_per_kink_dual(self, name, monkeypatch):
        # the three cq solves of the config as one stack, against one solve
        # per set with one spectrum per kink (64 kinks per set on the adder)
        spec, _, _, eps = load_decoder_args(name)
        weights, states, alternates = cq_pairs(spec)
        got = hyptest.cq_optimal_tests(weights, states, alternates, eps)
        monkeypatch.setattr(hyptest, "_kink_dual", decoder_oracle.per_kink_dual)
        for (res, blocks), alt in zip(got, alternates):
            want, want_blocks = hyptest.cq_optimal_test(weights, states, alt, eps)
            for field in ("value_bits", "accept_prob", "reject_mass", "dual", "steps"):
                assert getattr(res, field) == getattr(want, field), field
            assert np.array_equal(res.test, want.test)
            assert all(np.array_equal(b, w) for b, w in zip(blocks, want_blocks))

    def test_shared_factors_read_only(self):
        spec, dim_l, delta, eps = load_decoder_args("bench/cq_mac.txt")
        dec = mac.build_decoding_povms(spec, dim_l, delta, eps)
        assert len({id(b) for b in dec.local.values()}) < len(dec.local)
        chan = dec.chan
        held = [*dec.w_x.values(), *dec.w_y.values(), *dec.w_xy.values(), *dec.local.values()]
        held += [chan.rho_hat(0, 1), chan.letter_state(0, 1, chan.local_tilt()).root]
        for a in held:
            with pytest.raises(ValueError):
                a[0, 0] = 1.0


class TestStackedHelpers:
    def stack(self, seed, d, n):
        # random POVM elements, most with eigenvalues at or within DILATION_SNAP of 0 and 1
        rng = rng_from_seed(seed)
        snap = hyptest.DILATION_SNAP
        edges = ([], [0.0, 1.0], [snap / 3, 1.0 - snap / 3], [-snap / 3, 1.0 + snap / 3])
        out = []
        for i in range(n):
            spectrum = rng.random(d)
            near = edges[i % 4][:d]
            spectrum[: len(near)] = near
            out.append(psd_with_spectrum(rng, spectrum))
        return np.stack(out)

    @pytest.mark.parametrize("seed, d, n", [(1, 2, 12), (2, 4, 7), (3, 8, 5), (4, 3, 1)])
    def test_equal_per_matrix(self, seed, d, n):
        pis = self.stack(seed, d, n)
        bases, dilated = hyptest.dilation_basis(pis), hyptest.dilate_povm(pis)
        rejected = tilting.rejection_basis(dilated)
        assert rejected.shape == (n, 2 * d, d)
        for i, pi in enumerate(pis):
            assert np.array_equal(bases[i], decoder_oracle.dilation_block(pi))
            assert np.array_equal(dilated[i], decoder_oracle.dilate_block(pi))
            want = decoder_oracle.rejection_block(decoder_oracle.dilate_block(pi))
            assert np.array_equal(rejected[i], want)
            assert np.array_equal(tilting.rejection_basis(dilated[i]), want)
            # the products that read a basis round by its column-major layout
            assert rejected[i].strides == want.strides

    @pytest.mark.parametrize("k, dim_h", [(1, 3), (2, 2)])
    def test_sites_equal_per_matrix(self, k, dim_h):
        pis = self.stack(5, dim_h**k, 4)
        dilated = typicality.dilate_to_sites(pis, k, dim_h)
        rejected = tilting.rejection_basis(dilated)
        for i, pi in enumerate(pis):
            single = typicality.dilate_to_sites(pi, k, dim_h)
            assert np.array_equal(dilated[i], single)
            assert np.array_equal(rejected[i], tilting.rejection_basis(single))

    @pytest.mark.parametrize("bad", [1.0 + 1e-6, -1e-6])
    def test_non_povm_block_refused(self, bad):
        pis = self.stack(6, 3, 4)
        pis[2] = psd_with_spectrum(rng_from_seed(7), [bad, 0.5, 0.2])
        for fn in (hyptest.dilation_basis, hyptest.dilate_povm):
            with pytest.raises(ValueError, match="not a POVM element"):
                fn(pis)

    def test_unequal_rejection_spaces_refused(self):
        dilated = np.stack([np.diag([1.0, 0.0, 0.0]), np.diag([1.0, 1.0, 0.0])]).astype(complex)
        with pytest.raises(ValueError, match="rejection spaces"):
            tilting.rejection_basis(dilated)


def count_calls(monkeypatch, owner, name):
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestDecoderCounts:
    def test_bench_unit(self, monkeypatch, tmp_path):
        # one benchmark unit: the stacked dilation and rejection bases, one
        # tilted basis per distinct triple and one root per letter pair
        spec = load_config("bench/cq_mac.txt")[0]
        eigh = count_calls(monkeypatch, np.linalg, "eigh")
        qr = count_calls(monkeypatch, np.linalg, "qr")
        roots = count_calls(monkeypatch, typicality, "sqrt_factor")
        argv = ["mac", "cq", "bench/cq_mac.txt", "--trials", "2", "--seed", "5", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert len(eigh) <= 25
        assert len(qr) == 2
        assert len(roots) == spec.nx * spec.ny
        assert len({a[0].tobytes() for a in roots}) == len(roots)

    def test_one_spectrum_per_distinct_kink(self, monkeypatch):
        # the three solves as one stack: one stacked eigvalsh over every
        # pair's distinct kinks, each pair with repeated kinks
        spec = adder_spec(4)
        weights, states, alternates = cq_pairs(spec)
        eigvalsh = count_calls(monkeypatch, np.linalg, "eigvalsh")
        dual = hyptest._kink_dual
        seen = []

        def recorded(rho, sigma, target, sp):
            lam = sp.lam[:, None, None]
            at = sp.zero & (sp.slope > 0) & (sp.w > -lam * sp.slope)
            kinks = [(lam + sp.w / np.where(at, sp.slope, 1.0))[i][at[i]].tolist() for i in range(len(at))]
            before = len(eigvalsh)
            out = dual(rho, sigma, target, sp)
            seen.append((kinks, [len(a[0]) for a in eigvalsh[before:]]))
            return out

        monkeypatch.setattr(hyptest, "_kink_dual", recorded)
        hyptest.cq_optimal_tests(weights, states, alternates, 0.02)
        assert len(seen) == 1
        kinks, spectra = seen[0]
        assert len(kinks) == 3
        assert all(len(k) > len(set(k)) for k in kinks)
        assert spectra == [sum(len(set(k)) for k in kinks)]
