import copy

import numpy as np
import numpy.testing as npt
import pytest

from oneshot import audits, cli, mac, qla, tilting, typicality as tp
from oneshot.audits import random_tilting_matrix
from oneshot.rand import (
    haar_isometry,
    haar_unitary,
    random_density,
    random_projector,
    random_pure,
    rng_from_seed,
)


def overlap(proj, h):
    return float(np.linalg.norm(proj @ h) ** 2)


def tilt_stack(bases, a, lay, fixed=None):
    """The images [tilt_isometry(a[:j, j-1]) @ b_j], after the untilted fixed basis."""
    images = [] if fixed is None else [tilting.tilt_isometry([], lay) @ fixed]
    images += [tilting.tilt_isometry(a[:j, j - 1], lay) @ b for j, b in enumerate(bases, start=1)]
    return np.hstack(images)


class TestTiltIsometry:
    def test_columns_unit(self):
        lay = tilting.TiltedLayout(5, 3)
        v = tilting.tilt_isometry([0.0, 0.3], lay)
        npt.assert_allclose(v.conj().T @ v, np.eye(5), atol=1e-12)

    def test_inner_product_with_base(self):
        rng = rng_from_seed(41)
        lay = tilting.TiltedLayout(4, 2)
        h = random_pure(rng, 4)
        tilted = tilting.tilt_isometry([0.3], lay) @ h
        base = tilting.tilt_isometry([], lay) @ h
        assert abs(np.vdot(base, tilted)) == pytest.approx(np.sqrt(0.7), abs=1e-12)

    def test_slice_ranges_orthogonal(self):
        rng = rng_from_seed(42)
        lay = tilting.TiltedLayout(3, 2)
        h1 = tilting.tilt_isometry([0.4], lay) @ random_pure(rng, 3)
        h2 = tilting.tilt_isometry([0.0, 0.4], lay) @ random_pure(rng, 3)
        # the private tilt components occupy disjoint summands
        g = np.vdot(h1[lay.block(1)], h2[lay.block(1)])
        assert abs(g) < 1e-12
        assert np.linalg.norm(h1[lay.block(2)]) == 0.0

    def test_alpha_range(self):
        lay = tilting.TiltedLayout(2, 1)
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                tilting.tilted_span([np.eye(2)], [bad], lay)


class TestTiltedSpan:
    def test_single_direction_exact(self):
        rng = rng_from_seed(43)
        d, alpha = 5, 0.35
        w = random_projector(rng, d, 2)
        h = random_pure(rng, d)
        lay = tilting.TiltedLayout(d, 1)
        span = tilting.tilted_span([w], [alpha], lay)
        got = overlap(span, tilting.tilt_isometry([], lay) @ h)
        assert got == pytest.approx((1 - alpha) * overlap(w, h), abs=1e-10)

    def test_small_angle_pathology(self):
        # two nearly parallel lines: the plain span accepts |1> with certainty,
        # the tilted span at alpha = 1/2 accepts with probability at most eps
        eps = 1e-3
        w1 = np.diag([1.0, 0.0]).astype(complex)
        v2 = np.array([np.sqrt(1 - eps), np.sqrt(eps)], dtype=complex)
        w2 = np.outer(v2, v2.conj())
        h = np.array([0.0, 1.0], dtype=complex)
        q = tilting.orthonormalize(np.hstack([tilting.span_basis(w1), v2[:, None]]))
        plain = q @ q.conj().T
        assert overlap(plain, h) == pytest.approx(1.0, abs=1e-9)
        lay = tilting.TiltedLayout(2, 2)
        span = tilting.tilted_span([w1, w2], [0.5, 0.5], lay)
        tilted_overlap = overlap(span, tilting.tilt_isometry([], lay) @ h)
        assert tilted_overlap <= ((1 - 0.5) / 0.5) * eps + 1e-12

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.9])
    def test_sandwich_random(self, alpha):
        rng = rng_from_seed(44 + int(alpha * 100))
        for _ in range(50):
            d = int(rng.integers(2, 9))
            l = int(rng.integers(1, 5))
            ws = [random_projector(rng, d, int(rng.integers(1, d + 1))) for _ in range(l)]
            alphas = [alpha] * l
            h = random_pure(rng, d)
            lay = tilting.TiltedLayout(d, l)
            span = tilting.tilted_span(ws, alphas, lay)
            got = overlap(span, tilting.tilt_isometry([], lay) @ h)
            eps = np.array([overlap(w, h) for w in ws])
            lo, hi = tilting.prop_tilted_bounds(eps, np.array(alphas))
            assert got >= lo - 1e-9
            assert got <= hi + 1e-9

    def test_monotone_in_subspaces(self):
        rng = rng_from_seed(45)
        for _ in range(200):
            d = int(rng.integers(2, 7))
            l = int(rng.integers(2, 4))
            ws = [random_projector(rng, d, 1) for _ in range(l)]
            alphas = list(rng.uniform(0.1, 0.9, size=l))
            h = random_pure(rng, d)
            lay = tilting.TiltedLayout(d, l)
            small = tilting.tilted_span(ws[:-1], alphas[:-1], lay)
            big = tilting.tilted_span(ws, alphas, lay)
            hb = tilting.tilt_isometry([], lay) @ h
            assert overlap(big, hb) >= overlap(small, hb) - 1e-9


class TestTiltedSpanWithFixed:
    def test_empty_subspaces(self):
        rng = rng_from_seed(46)
        d = 4
        w0 = random_projector(rng, d, 2)
        h = random_pure(rng, d)
        lay = tilting.TiltedLayout(d, 0)
        span = tilting.tilted_span_with_fixed(w0, [], 0.2, lay)
        assert overlap(span, tilting.tilt_isometry([], lay) @ h) == pytest.approx(
            overlap(w0, h), abs=1e-10
        )

    def test_orthogonal_block_structure(self):
        rng = rng_from_seed(47)
        d = 6
        basis = np.eye(d, dtype=complex)
        w0 = np.outer(basis[:, 0], basis[:, 0].conj())
        w1 = np.outer(basis[:, 1], basis[:, 1].conj())
        h = (basis[:, 0] + basis[:, 1] + basis[:, 2]) / np.sqrt(3)
        lay = tilting.TiltedLayout(d, 1)
        alpha = 0.25
        span = tilting.tilted_span_with_fixed(w0, [w1], alpha, lay)
        got = overlap(span, tilting.tilt_isometry([], lay) @ h)
        # w0 orthogonal to the tilted image of w1: overlaps add exactly
        expected = overlap(w0, h) + (1 - alpha) * overlap(w1, h)
        assert got == pytest.approx(expected, abs=1e-10)

    def test_cor4_sandwich(self):
        rng = rng_from_seed(48)
        alpha, l, d = 0.2, 2, 6
        for _ in range(50):
            w0 = random_projector(rng, d, int(rng.integers(1, 3)))
            ws = [random_projector(rng, d, int(rng.integers(1, 3))) for _ in range(l)]
            h = random_pure(rng, d)
            lay = tilting.TiltedLayout(d, l)
            span = tilting.tilted_span_with_fixed(w0, ws, alpha, lay)
            got = overlap(span, tilting.tilt_isometry([], lay) @ h)
            eps0 = overlap(w0, h)
            eps_j = np.array([overlap(w, h) for w in ws])
            eps = (1 - alpha) / alpha * eps_j.sum()
            lower = max(eps0, (1 - alpha) * eps_j.max())
            upper = (3 * l / alpha) * (eps0 + eps)
            assert got >= lower - 1e-9
            assert got <= upper + 1e-9

    def test_alpha_precondition(self):
        with pytest.raises(ValueError):
            tilting.tilted_span_with_fixed(np.eye(2), [np.eye(2)], 0.4)


class TestATiltedSpan:
    def test_diagonal_matches_plain(self):
        rng = rng_from_seed(49)
        d, l, alpha = 5, 3, 0.3
        ws = [random_projector(rng, d, int(rng.integers(1, 3))) for _ in range(l)]
        lay = tilting.TiltedLayout(d, l)
        a = tilting.TiltingMatrix(np.diag([alpha] * l))
        npt.assert_allclose(
            tilting.a_tilted_span(ws, a, lay),
            tilting.tilted_span(ws, [alpha] * l, lay),
            atol=1e-10,
        )

    def test_single_direction(self):
        rng = rng_from_seed(50)
        d, alpha = 4, 0.45
        w = random_projector(rng, d, 2)
        h = random_pure(rng, d)
        lay = tilting.TiltedLayout(d, 1)
        span = tilting.a_tilted_span([w], tilting.TiltingMatrix(np.array([[alpha]])), lay)
        assert overlap(span, tilting.tilt_isometry([], lay) @ h) == pytest.approx(
            (1 - alpha) * overlap(w, h), abs=1e-10
        )

    def test_prop6_sandwich_random(self):
        rng = rng_from_seed(51)
        d, l = 5, 3
        for _ in range(50):
            a = random_tilting_matrix(rng, l)
            ws = [random_projector(rng, d, int(rng.integers(1, 3))) for _ in range(l)]
            h = random_pure(rng, d)
            lay = tilting.TiltedLayout(d, l)
            span = tilting.a_tilted_span(ws, a, lay)
            got = overlap(span, tilting.tilt_isometry([], lay) @ h)
            eps = np.array([overlap(w, h) for w in ws])
            lo, hi = tilting.prop_a_tilted_bounds(eps, a)
            assert got >= lo - 1e-9
            assert got <= hi + 1e-9

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            tilting.TiltingMatrix(np.array([[0.5, 0.0], [0.1, 0.5]]))  # lower entry
        with pytest.raises(ValueError):
            tilting.TiltingMatrix(np.array([[0.2, 0.5], [0.0, 0.6]]))  # row dominance
        with pytest.raises(ValueError):
            tilting.TiltingMatrix(np.array([[0.8, 0.5], [0.0, 0.6]]))  # column sum


def union_projector(projectors, alpha):
    """The robust union of the projectors: their tilted span at one weight alpha."""
    layout = tilting.TiltedLayout(projectors[0].shape[0], len(projectors))
    return tilting.tilted_span(projectors, [alpha] * len(projectors), layout), layout


class TestUnionProjector:
    """The union guarantees of a tilted span at equal weights."""

    def test_single_collapses_to_prop3(self):
        rng = rng_from_seed(52)
        d, alpha = 4, 0.3
        p = random_projector(rng, d, 2)
        rho = random_density(rng, d)
        pi, lay = union_projector([p], alpha)
        emb = tilting.tilt_isometry([], lay)
        got = np.trace(pi @ emb @ rho @ emb.conj().T).real
        assert got == pytest.approx((1 - alpha) * np.trace(p @ rho).real, abs=1e-9)

    def test_orthogonal_rank_one(self):
        d, alpha = 4, 0.5
        p1 = np.diag([1.0, 0, 0, 0]).astype(complex)
        p2 = np.diag([0, 1.0, 0, 0]).astype(complex)
        sigma = np.eye(d) / d
        pi, lay = union_projector([p1, p2], alpha)
        emb = tilting.tilt_isometry([], lay)
        got = np.trace(pi @ emb @ sigma @ emb.conj().T).real
        bound = (1 - alpha) / alpha * (np.trace(p1 @ sigma) + np.trace(p2 @ sigma)).real
        assert got <= bound + 1e-9
        assert bound == pytest.approx(0.5, abs=1e-12)

    def test_guarantees_random(self):
        rng = rng_from_seed(53)
        for _ in range(100):
            d = int(rng.integers(3, 7))
            alpha = float(rng.uniform(0.1, 0.6))
            eps = float(rng.uniform(0.0, 0.3))
            projs, rhos = [], []
            for _ in range(3):
                p = random_projector(rng, d, int(rng.integers(1, d)))
                basis = tilting.span_basis(p)
                # state mostly inside the projector range: acceptance >= 1 - eps
                inside = basis @ random_density(rng, basis.shape[1]) @ basis.conj().T
                rho = (1 - eps) * inside + eps * np.eye(d) / d
                rho = qla.hermitian_part(rho / np.trace(rho).real)
                projs.append(p)
                rhos.append(rho)
            sigma = random_density(rng, d)
            pi, lay = union_projector(projs, alpha)
            emb = tilting.tilt_isometry([], lay)
            for p, rho in zip(projs, rhos):
                acc = np.trace(p @ rho).real
                got = np.trace(pi @ emb @ rho @ emb.conj().T).real
                assert got >= 1 - (1 - acc) - alpha - 1e-9
            got_sigma = np.trace(pi @ emb @ sigma @ emb.conj().T).real
            bound = (1 - alpha) / alpha * sum(
                np.trace(p @ sigma).real for p in projs
            )
            assert got_sigma <= bound + 1e-9


class TestGao:
    def test_slack_nonnegative(self):
        rng = rng_from_seed(54)
        for _ in range(100):
            d = int(rng.integers(2, 7))
            k = int(rng.integers(1, 5))
            projs = [random_projector(rng, d, int(rng.integers(1, d + 1))) for _ in range(k)]
            rho = random_density(rng, d)
            assert tilting.gao_slack(projs, rho) >= -1e-9

    def test_exact_for_commuting(self):
        # all projectors equal: sandwich keeps Tr[P rho], penalty 4 Tr[(1-P) rho]
        rng = rng_from_seed(55)
        p = random_projector(rng, 4, 2)
        rho = random_density(rng, 4)
        miss = np.trace(rho @ (np.eye(4) - p)).real
        expected = np.trace(p @ rho @ p).real - (1 - 4 * 2 * miss)
        assert tilting.gao_slack([p, p], rho) == pytest.approx(expected, abs=1e-12)


class TestComplementFactor:
    """The factor path (SVD reference + complement_factor) against the projector path."""

    def check(self, q, span, lay):
        e = tilting.tilt_isometry([], lay)
        b = tilting.complement_factor(e, q)
        want = e.conj().T @ (np.eye(lay.total_dim) - span) @ e
        npt.assert_allclose(b.conj().T @ b, want, atol=1e-10)

    def test_a_tilted_span(self):
        rng = rng_from_seed(57)
        for _ in range(30):
            d = int(rng.integers(2, 7))
            l = int(rng.integers(1, 5))
            a = random_tilting_matrix(rng, l)
            ws = [random_projector(rng, d, int(rng.integers(1, d + 1))) for _ in range(l)]
            lay = tilting.TiltedLayout(d, l)
            images = [
                tilting.tilt_isometry(a.alpha[:j, j - 1], lay) @ tilting.span_basis(w)
                for j, w in enumerate(ws, start=1)
            ]
            q = tilting.orthonormalize(np.hstack(images))
            self.check(q, tilting.a_tilted_span(ws, a, lay), lay)

    def test_tilted_span_with_fixed(self):
        rng = rng_from_seed(58)
        for _ in range(30):
            d = int(rng.integers(2, 7))
            l = int(rng.integers(0, 4))
            alpha = float(rng.uniform(0.05, 0.3))
            w0 = random_projector(rng, d, int(rng.integers(1, d + 1)))
            ws = [random_projector(rng, d, int(rng.integers(1, d + 1))) for _ in range(l)]
            lay = tilting.TiltedLayout(d, l)
            images = [tilting.tilt_isometry([], lay) @ tilting.span_basis(w0)] + [
                tilting.tilt_isometry(alpha * np.eye(j)[j - 1], lay) @ tilting.span_basis(w)
                for j, w in enumerate(ws, start=1)
            ]
            q = tilting.orthonormalize(np.hstack(images))
            self.check(q, tilting.tilted_span_with_fixed(w0, ws, alpha, lay), lay)

    def test_no_images(self):
        d, l = 4, 2
        lay = tilting.TiltedLayout(d, l)
        zero = np.zeros((d, d), dtype=complex)
        a = tilting.TiltingMatrix(np.diag([0.3, 0.4]))
        q = tilting.tilted_basis([tilting.span_basis(zero)] * l, a.alpha, lay)
        assert q.shape == (lay.total_dim, 0)
        e = tilting.tilt_isometry([], lay)
        assert tilting.complement_factor(e, q) is e
        assert tilting.orthonormalize(np.zeros((lay.total_dim, 0))).shape == (lay.total_dim, 0)
        self.check(q, tilting.a_tilted_span([zero] * l, a, lay), lay)


class TestTiltedBasisPlacement:
    """The image array tilted_basis orthonormalizes against the tilt_isometry stack."""

    def images(self, monkeypatch, bases, a, lay, fixed=None):
        # the array np.linalg.qr receives; with no columns there is no QR
        seen, qr = [np.zeros((lay.total_dim, 0))], np.linalg.qr

        def recording(m, mode="reduced"):
            seen.append(m)
            return qr(m, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", recording)
        tilting.tilted_basis(bases, a, lay, fixed)
        return np.hstack(seen)

    def test_random_tilting_matrices(self, monkeypatch):
        rng = rng_from_seed(59)
        for _ in range(40):
            d = int(rng.integers(2, 7))
            l = int(rng.integers(1, 5))
            a = random_tilting_matrix(rng, l).alpha
            # rank 0 draws empty bases
            bases = [haar_isometry(rng, d, int(rng.integers(0, d + 1))) for _ in range(l)]
            lay = tilting.TiltedLayout(d, l)
            npt.assert_allclose(
                self.images(monkeypatch, bases, a, lay), tilt_stack(bases, a, lay), rtol=0, atol=1e-15
            )

    def test_fixed_basis(self, monkeypatch):
        rng = rng_from_seed(60)
        for l in range(4):
            d = 5
            a = 0.2 * np.eye(l)
            fixed = haar_isometry(rng, d, 2)
            bases = [haar_isometry(rng, d, int(rng.integers(0, 3))) for _ in range(l)]
            lay = tilting.TiltedLayout(d, l)
            npt.assert_allclose(
                self.images(monkeypatch, bases, a, lay, fixed),
                tilt_stack(bases, a, lay, fixed),
                rtol=0,
                atol=1e-15,
            )

    def test_only_empty_bases(self, monkeypatch):
        lay = tilting.TiltedLayout(3, 2)
        empty = np.zeros((3, 0), dtype=complex)
        a = np.diag([0.3, 0.4])
        assert self.images(monkeypatch, [empty, empty], a, lay).shape == (lay.total_dim, 0)
        assert tilting.tilted_basis([empty, empty], a, lay).shape == (lay.total_dim, 0)


class TestTiltedBasisQR:
    """The reduced QR of the full-rank image stack against the rank-revealing SVD."""

    def draw(self, rng, d, l, low):
        # diagonal weights down to low, and ranks 0..d per basis
        hi = float(10 ** rng.uniform(np.log10(low), np.log10(0.9)))
        a = random_tilting_matrix(rng, l, diag_min=low, diag_max=hi).alpha
        bases = [haar_isometry(rng, d, int(rng.integers(0, d + 1))) for _ in range(l)]
        return a, bases

    def check(self, bases, a, lay, fixed=None):
        q = tilting.tilted_basis(bases, a, lay, fixed)
        ref = tilting.orthonormalize(tilt_stack(bases, a, lay, fixed))
        width = sum(b.shape[1] for b in bases) + (0 if fixed is None else fixed.shape[1])
        assert q.shape == (lay.total_dim, width) == ref.shape
        npt.assert_allclose(q.conj().T @ q, np.eye(width), rtol=0, atol=1e-12)
        npt.assert_allclose(q @ q.conj().T, ref @ ref.conj().T, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("low", [1e-6, 1e-3, 0.05])
    def test_matches_svd_span(self, low):
        rng = rng_from_seed(61)
        for _ in range(40):
            d = int(rng.integers(2, 7))
            l = int(rng.integers(1, 5))
            a, bases = self.draw(rng, d, l, low)
            self.check(bases, a, tilting.TiltedLayout(d, l))

    @pytest.mark.parametrize("low", [1e-6, 1e-3, 0.05])
    def test_matches_svd_span_with_fixed(self, low):
        rng = rng_from_seed(62)
        for _ in range(40):
            d = int(rng.integers(2, 7))
            l = int(rng.integers(0, 4))
            a, bases = self.draw(rng, d, l, low)
            fixed = haar_isometry(rng, d, int(rng.integers(1, d + 1)))
            self.check(bases, a, tilting.TiltedLayout(d, l), fixed)

    def test_equal_subspaces_at_the_smallest_weight(self):
        # the fixed basis and every tilted basis span one subspace: only the
        # tilt, at amplitude 1e-3, tells the copies apart
        rng = rng_from_seed(63)
        v = haar_isometry(rng, 5, 3)
        a = 1e-6 * np.eye(3)
        self.check([v, v, v], a, tilting.TiltedLayout(5, 3), fixed=v)

    @pytest.mark.parametrize("weight", [0.0, -1e-3])
    def test_nonpositive_diagonal_weight_refused(self, weight):
        rng = rng_from_seed(64)
        lay = tilting.TiltedLayout(4, 2)
        a = np.array([[0.3, 0.1], [0.0, weight]])
        bases = [haar_isometry(rng, 4, 2), haar_isometry(rng, 4, 1)]
        with pytest.raises(ValueError, match="basis 2 has diagonal tilt weight"):
            tilting.tilted_basis(bases, a, lay)
        # an empty basis reaches no summand, so its weight is never read
        empty = np.zeros((4, 0), dtype=complex)
        assert tilting.tilted_basis([bases[0], empty], a, lay).shape == (lay.total_dim, 2)


class TestNoProductionSVD:
    """Every production tilted span runs without the SVD reference."""

    @pytest.fixture(autouse=True)
    def no_svd(self, monkeypatch):
        def refuse(cols):
            raise AssertionError("orthonormalize called")

        monkeypatch.setattr(tilting, "orthonormalize", refuse)

    def test_intersection_lemma(self):
        for c, k in ((0, 2), (1, 1)):
            assert tp.intersection_lemma(audits.random_instance(0, c, k, 2, 2, 0.3, 0.2)).all_pass()

    def test_union(self):
        inst = audits.random_instance(5, 0, 1, 2, 2, 0.3, 0.2)
        assert tp.union_of_intersections([inst, inst], 0.25).all_pass()

    def test_sandwich_audits(self):
        assert all(c.passed for c in audits.audit_tilting(30) + audits.audit_a_tilting(30))

    def test_cq_decoder(self):
        with open("configs/cq_mac_small.txt") as fh:
            cfg = cli.parse_kv(fh.read())
        eps = float(cfg["epsilon"])
        dec = mac.build_decoding_povms(cli.load_cq_spec(cfg), 8, eps**0.25, eps)
        assert len(dec.local) == 4


class TestHaarIsometry:
    def test_leading_columns_of_the_unitary(self):
        # the same Gaussian is drawn; only its kept columns are factored
        for s in range(20):
            rng = rng_from_seed(s)
            d = int(rng.integers(1, 9))
            r = int(rng.integers(0, d + 1))
            clone = copy.deepcopy(rng)
            npt.assert_allclose(
                haar_isometry(rng, d, r), haar_unitary(clone, d)[:, :r], rtol=0, atol=1e-13
            )
            assert rng.bit_generator.state == clone.bit_generator.state


class TestSandwichAuditOracle:
    """The sandwich audits, run on drawn isometries, against the projector path."""

    def projector_path(self, seed_mult, seed, t, draw):
        rng = rng_from_seed(seed * seed_mult + t)
        d = int(rng.integers(2, 9))
        l = int(rng.integers(1, 5))
        span, bounds = draw(rng, l)
        ws = [random_projector(rng, d, int(rng.integers(1, d + 1))) for _ in range(l)]
        h = random_pure(rng, d)
        lay = tilting.TiltedLayout(d, l)
        got = overlap(span(ws, lay), tilting.tilt_isometry([], lay) @ h)
        lo, hi = bounds(np.array([overlap(w, h) for w in ws]))
        return [lo, got, got, hi]

    def check(self, records, seed_mult, seed, draw):
        got = [v for c in records for v in (c.lhs, c.rhs)]
        want = [
            v for t in range(len(records) // 2) for v in self.projector_path(seed_mult, seed, t, draw)
        ]
        npt.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_tilted_span(self, seed):
        pool = (0.1, 0.3, 0.5, 0.9)

        def draw(rng, l):
            alpha = float(pool[int(rng.integers(len(pool)))])
            return (
                lambda ws, lay: tilting.tilted_span(ws, [alpha] * l, lay),
                lambda eps: tilting.prop_tilted_bounds(eps, np.full(l, alpha)),
            )

        self.check(audits.audit_tilting(60, seed), 1_000_003, seed, draw)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_a_tilted_span(self, seed):
        def draw(rng, l):
            a = random_tilting_matrix(rng, l)
            return (
                lambda ws, lay: tilting.a_tilted_span(ws, a, lay),
                lambda eps: tilting.prop_a_tilted_bounds(eps, a),
            )

        self.check(audits.audit_a_tilting(60, seed), 1_000_033, seed, draw)

    def test_isometry_draws_match_projector_draws(self):
        # haar_isometry takes exactly the draws random_projector takes, so the
        # audit instances are the ones the projector path drew
        for s in range(20):
            rng = rng_from_seed(s)
            d = int(rng.integers(2, 9))
            r = int(rng.integers(1, d + 1))
            clone = copy.deepcopy(rng)
            v = haar_isometry(rng, d, r)
            assert np.array_equal(qla.hermitian_part(v @ v.conj().T), random_projector(clone, d, r))
            assert rng.random() == clone.random()
