import functools
import gc
import itertools
import sys
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from oneshot import audits, hyptest, qla, report, tilting, typicality as tp
from oneshot.rand import random_density, random_povm_element, rng_from_seed
import construction_oracle
from construction_oracle import box_row_construction
from union_oracle import box_row_union


def brute_force_psps(elements):
    """Independent enumeration over all families of valid blocks."""
    elements = sorted(elements)
    blocks = []
    for r in range(1, len(elements) + 1):
        for s in itertools.combinations(elements, r):
            if any(e > 0 for e in s):
                blocks.append(tuple(sorted(s)))
    out = set()
    for r in range(len(blocks) + 1):
        for fam in itertools.combinations(blocks, r):
            ok = True
            for a, b in itertools.combinations(fam, 2):
                if set(x for x in a if x > 0) & set(x for x in b if x > 0):
                    ok = False
                    break
            if ok:
                out.add(tp.canonical_psp(fam))
    return out


def small_instance(seed, c=0, k=1, dim_h=2, dim_l=2, delta=0.4, eps=0.2):
    rng = rng_from_seed(seed)
    if c == 0:
        rhos = {(): random_density(rng, dim_h**k)}
        p_x = {(): 1.0}
    else:
        words = list(itertools.product(range(2), repeat=c))
        p = rng.random(len(words)) + 0.2
        p /= p.sum()
        rhos = {w: random_density(rng, dim_h**k) for w in words}
        p_x = {w: float(pi) for w, pi in zip(words, p)}
    return tp.TypicalityInstance(
        c=c, k=k, dim_h=dim_h, dim_l=dim_l, delta=delta, rhos=rhos, p_x=p_x,
        eps_total=eps,
    )


@functools.cache
def accepted_sizes():
    """The (c, k) that AugmentedSpace accepts at |H| = |L| = 1."""
    sizes = []
    for k in itertools.count(1):
        for c in itertools.count(0):
            try:
                tp.AugmentedSpace(c, k, 1, 1)
            except ValueError:
                break
            sizes.append((c, k))
        if c == 0:
            break
    return sizes


class TestLattice:
    def test_k1_c0(self):
        assert tp.enum_psps((1,)) == ((), ((1,),))

    def test_k2_c0_brute_force(self):
        psps = tp.enum_psps((1, 2))
        assert len(psps) == 5
        assert set(psps) == brute_force_psps((1, 2))

    def test_c1_k1(self):
        psps = tp.enum_psps((-1, 1))
        assert len(psps) == 3
        assert tp.psp_count(1, 1) == 3

    @pytest.mark.parametrize("elements", [(1, 2, 3), (-1, 1, 2), (-1, -2, 1), (-1, 1, 2, 3)])
    def test_brute_force_and_bound(self, elements):
        psps = set(tp.enum_psps(elements))
        assert psps == brute_force_psps(elements)
        c, k = sum(e < 0 for e in elements), sum(e > 0 for e in elements)
        assert len(psps) == tp.psp_count(c, k)

    def test_refinement_partial_order(self):
        lat = tp.enum_pslattice(0, 3)
        n = len(lat.psps)
        mat = lat.refine_matrix
        assert all(mat[i, i] for i in range(n))
        for i in range(n):
            for j in range(n):
                if i != j and mat[i, j] and mat[j, i]:
                    raise AssertionError("antisymmetry violated")
                for k2 in range(n):
                    if mat[i, j] and mat[j, k2]:
                        assert mat[i, k2]

    def test_linear_extension_topological(self):
        lat = tp.enum_pslattice(1, 2)
        pos = {p: i for i, p in enumerate(lat.linear_ext)}
        for p in lat.linear_ext:
            for q in lat.linear_ext:
                if p != q and tp.refines(p, q):
                    assert pos[p] < pos[q]

    def test_requires_quantum_site(self):
        with pytest.raises(ValueError):
            tp.enum_pslattice(1, 1, T=(-1,))


class TestNormalization:
    def test_single_site(self):
        assert tp.normalization((1,), 0.3) == pytest.approx(1 + 0.09, abs=1e-15)

    def test_two_sites(self):
        # three single-block psps at delta^2, one two-block psp at delta^4
        assert tp.normalization((1, 2), 0.5) == pytest.approx(1.8125, abs=1e-15)

    def test_exponential_bound(self):
        for elements in [(1,), (1, 2), (-1, 1), (-1, 1, 2)]:
            for delta in (0.2, 0.5, 0.9):
                n = tp.normalization(elements, delta)
                assert n < np.exp(delta**2 * 2 ** len(elements))

    def test_multiplicative_under_refinement(self):
        delta = 0.6
        full = (1, 2, 3)
        n_full = tp.normalization(full, delta)
        for psp in tp.enum_psps(full):
            prod = np.prod([tp.normalization(b, delta) for b in psp]) if psp else 1.0
            assert prod <= n_full + 1e-12

    def test_classical_only_is_one(self):
        assert tp.normalization((-1,), 0.7) == 1.0


class TestTiltingMatrixFromLattice:
    def test_k1(self):
        lat = tp.enum_pslattice(0, 1)
        a = tp.build_tilting_matrix(lat, 0.3)
        npt.assert_allclose(a.alpha, [[0.09 / 1.09]], atol=1e-15)

    def test_column_sums(self):
        lat = tp.enum_pslattice(0, 2)
        delta = 0.45
        a = tp.build_tilting_matrix(lat, delta)
        for j, q in enumerate(lat.linear_ext):
            denom = np.prod([tp.normalization(b, delta) for b in q])
            expected = (denom - 1.0) / denom
            assert a.alpha[:, j].sum() == pytest.approx(expected, abs=1e-12)
            assert a.alpha[:, j].sum() <= 1 + 1e-12

    def test_row_dominance(self):
        lat = tp.enum_pslattice(1, 2)
        a = tp.build_tilting_matrix(lat, 0.6).alpha
        for i in range(a.shape[0]):
            assert np.all(a[i, i:] <= a[i, i] + 1e-15)


def coord_local(space, box, block, l_assign):
    """The permutation isometry appending the block's labels at its sites, on box."""
    rows = [space.site_rows(s, block, l_assign) for s in box.sites]
    v = np.zeros((box.size, space.base_dim ** len(box.sites)), dtype=complex)
    v[box.index(rows), np.arange(v.shape[1])] = 1.0
    return v


def all_labels(space):
    """Every label assignment of the space's elements."""
    full = tp.full_block(space.c, space.k)
    for labels in itertools.product(range(space.dim_l), repeat=len(full)):
        yield dict(zip(full, labels))


def dense_base(space, sites):
    """The embedding of (H x C^2)^(x sites) into the base summands of A''_sites, dense."""
    box = space.box(sites, {e: 0 for e in tp.full_block(space.c, space.k)})
    return box.expand(tp.psp_local(space, sites, (), 1.0))


class TestEmbeddings:
    def test_coord_embed_permutation(self):
        inst = small_instance(60, k=2, dim_l=3)
        space = inst.space
        l_assign = {1: 2, 2: 1}
        box = space.box((1, 2), l_assign)
        v = coord_local(space, box, (1, 2), l_assign)
        assert v.shape == (box.size, 16)
        col_norms = np.abs(v).sum(axis=0)
        npt.assert_allclose(col_norms, 1.0)  # one unit entry per column
        npt.assert_allclose(v.conj().T @ v, np.eye(16), atol=0)

    def test_distinct_labels_orthogonal(self):
        inst = small_instance(61, k=1, dim_l=3)
        space = inst.space
        box = space.box((1,), {1: 0}).union(space.box((1,), {1: 2}))
        v0 = coord_local(space, box, (1,), {1: 0})
        v1 = coord_local(space, box, (1,), {1: 2})
        assert np.max(np.abs(v0.conj().T @ v1)) == 0.0

    def test_smoothing_embed_delta_zero(self):
        inst = small_instance(62)
        space = inst.space
        v = tp.global_embed(space, {1: 0}, 0.0)
        npt.assert_allclose(v, dense_base(space, [1]), atol=0)

    def test_smoothing_embed_overlap(self):
        inst = small_instance(63, dim_l=2, delta=0.5)
        space = inst.space
        v = tp.global_embed(space, {1: 0}, 0.5)
        e = dense_base(space, [1])
        h = np.zeros(4)
        h[1] = 1.0
        assert abs(np.vdot(e @ h, v @ h)) == pytest.approx(1 / np.sqrt(1.25), abs=1e-12)

    def test_smoothing_embed_isometry(self):
        rng = rng_from_seed(64)
        for c, k in [(0, 1), (0, 2), (1, 1)]:
            inst = small_instance(65 + c + k, c=c, k=k, dim_l=2, delta=0.6)
            space = inst.space
            full = tp.classical_coords(c) + tp.quantum_sites(k)
            l_assign = {e: int(rng.integers(0, 2)) for e in full}
            v = tp.global_embed(space, l_assign, 0.6)
            resid = np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1])))
            assert resid <= 1e-10

    def test_psp_direction_ranges_orthogonal(self):
        # the pure coordinate embeds of distinct pseudosubpartitions occupy
        # disjoint summand sectors of the two-site augmented space
        inst = small_instance(66, k=2, dim_l=2, delta=0.4)
        space = inst.space
        l_assign = {1: 0, 2: 1}

        def site_matrix(s, label):
            v = np.zeros((space.site_dim(s), space.base_dim))
            v[space.site_rows(s, label, l_assign), np.arange(space.base_dim)] = 1.0
            return v

        def direction(psp):
            site_of = {e: b for b in psp for e in b if e > 0}
            return np.kron(site_matrix(1, site_of.get(1)), site_matrix(2, site_of.get(2)))

        lat = inst.lattice
        vs = [direction(p) for p in lat.linear_ext]
        for va, vb in itertools.combinations(vs, 2):
            assert np.max(np.abs(va.conj().T @ vb)) == 0.0


def oracle_site_embed(space, i, label, l_assign):
    """Dense 0/1 isometry H x C^2 -> A''_i into the labelled summand."""
    m = space.base_dim
    v = np.zeros((space.site_dim(i), m), dtype=complex)
    off = space.site_offset(i, label)
    if label is None:
        v[off : off + m, :] = np.eye(m)
        return v
    idx = 0
    for e in label:
        idx = idx * space.dim_l + int(l_assign[e])
    ls = space.dim_l ** len(label)
    for h in range(m):
        v[off + h * ls + idx, h] = 1.0
    return v


def oracle_psp_embed(space, psp, l_assign, delta, sites):
    """Per-site 0/1 matrices joined by np.kron, summed over refining pseudosubpartitions."""
    norm = float(np.prod([tp.normalization(b, delta) for b in psp])) if psp else 1.0
    acc = np.zeros((int(np.prod([space.site_dim(s) for s in sites])), space.base_dim ** len(sites)), dtype=complex)
    for combo in itertools.product(*[tp.enum_psps(b) for b in psp]):
        blocks = [b for sub in combo for b in sub]
        site_of = {e: b for b in blocks for e in b if e > 0}
        mats = [oracle_site_embed(space, s, site_of.get(s), l_assign) for s in sites]
        acc += float(delta) ** len(blocks) * functools.reduce(np.kron, mats)
    return acc / np.sqrt(norm)


class TestEmbeddingOracle:
    """The box-local embeddings expand to the Kronecker-chain construction bit for bit.

    Every oracle embedding is zero outside the box of its label assignment,
    and one label-free box-local array expands to it at every assignment.
    """

    @pytest.mark.parametrize("c, k, L", [(0, 1, 2), (0, 2, 2), (0, 2, 4), (1, 1, 2), (1, 2, 2), (2, 1, 2)])
    def test_bitwise(self, c, k, L):
        space = tp.AugmentedSpace(c, k, 2, L)
        rng = rng_from_seed(1000 + 100 * c + 10 * k + L)
        full = tp.full_block(c, k)
        sites = tp.quantum_sites(k)
        for r in range(1, k + 1):
            for subset in itertools.combinations(sites, r):
                want = functools.reduce(np.kron, [oracle_site_embed(space, s, None, None) for s in subset])
                assert np.array_equal(dense_base(space, subset), want)
        for psp in tp.enum_psps(full):
            l_assign = {e: int(rng.integers(0, L)) for e in full}
            for block in psp:
                bsites = [e for e in block if e > 0]
                want = functools.reduce(
                    np.kron, [oracle_site_embed(space, s, block, l_assign) for s in bsites]
                )
                bbox = space.box(bsites, l_assign)
                assert np.array_equal(bbox.expand(coord_local(space, bbox, block, l_assign)), want)
            for delta in (0.0, 0.3, 0.6):
                local = tp.psp_local(space, sites, psp, delta)
                for labels in all_labels(space):
                    box = space.box(sites, labels)
                    outside = np.setdiff1d(np.arange(np.prod(box.dims)), box.flat)
                    want = oracle_psp_embed(space, psp, labels, delta, sites)
                    assert not np.any(want[outside])
                    assert local.shape[0] == box.size < np.prod(box.dims)
                    assert np.array_equal(box.expand(local), want)


class TestPlacedEmbeddings:
    """The cached index maps scatter what the Kronecker forms compute, bit for bit."""

    @pytest.mark.parametrize("c, k, L", [(0, 1, 2), (0, 2, 4), (1, 2, 2), (2, 2, 2), (3, 1, 4), (0, 3, 2)])
    @pytest.mark.parametrize("delta", [0.2, 0.4])
    def test_psp_local_matches_kronecker_form(self, c, k, L, delta):
        # every pseudosubpartition, the empty one included, on every site set
        # that holds its quantum sites
        inst = small_instance(150 + 10 * c + k, c=c, k=k, dim_l=L, delta=delta)
        for psp in tp.enum_psps(tp.full_block(c, k)):
            covered = {e for b in psp for e in b if e > 0}
            for r in range(1, k + 1):
                for sites in itertools.combinations(tp.quantum_sites(k), r):
                    if not covered <= set(sites):
                        continue
                    got = tp.psp_local(inst.space, sites, psp, delta)
                    want = construction_oracle.psp_local(inst.space, sites, psp, delta)
                    assert got.dtype == want.dtype and np.array_equal(got, want), (psp, sites)
                    got = tp._ancilla_embedding(inst, sites, psp)
                    want = construction_oracle.ancilla_embedding(inst, sites, psp)
                    assert got.dtype == want.dtype and np.array_equal(got, want), (psp, sites)

    @pytest.mark.parametrize("dim_h", [1, 2, 3])
    @pytest.mark.parametrize("n_sites", [1, 2, 3])
    def test_ancilla_isometries_match_kronecker_chains(self, dim_h, n_sites):
        rng = rng_from_seed(190 + 10 * dim_h + n_sites)
        rho = random_density(rng, dim_h**n_sites)
        pi = random_povm_element(rng, dim_h**n_sites)
        pairs = [
            (tp.embed_with_ancilla(rho, n_sites, dim_h), construction_oracle.embed_with_ancilla(rho, n_sites, dim_h)),
            (tp.dilate_to_sites(pi, n_sites, dim_h), construction_oracle.dilate_to_sites(pi, n_sites, dim_h)),
        ]
        for got, want in pairs:
            assert got.dtype == want.dtype and np.array_equal(got, want)


class TestTiltedLayout:
    """The smoothing construction is the A-tilted span, built on the tilted layout.

    Its rows (W, h) run over the pseudosubpartitions W, the empty one first,
    and one label-free map sends them into the box.
    """

    @pytest.mark.parametrize("c, k, L", [(0, 1, 2), (0, 2, 2), (1, 1, 2), (1, 2, 2)])
    def test_row_map(self, c, k, L):
        # injective, psp_count(c, k) (2|H|)^k rows, and at every label assignment
        # the rows of A'' it reaches are those the dense smoothing isometry reaches
        space = tp.AugmentedSpace(c, k, 2, L)
        full, sites = tp.full_block(c, k), tp.quantum_sites(k)
        rows = tp.tilt_rows(space, sites, tp.layout_psps(full))
        assert len(rows) == tp.psp_count(c, k) * space.base_dim**k == len(np.unique(rows))
        for labels in all_labels(space):
            dense = oracle_psp_embed(space, (full,), labels, 0.5, sites)
            reached = np.flatnonzero(np.abs(dense).sum(axis=1))
            assert np.array_equal(np.sort(space.box(sites, labels).flat[rows]), reached)

    @pytest.mark.parametrize("c, k, L", [(0, 2, 2), (1, 2, 2), (2, 1, 2), (0, 3, 2)])
    def test_psp_local_is_the_placed_tilt(self, c, k, L):
        # T_p is the tilt of column p of the A-tilting matrix placed through the
        # row map, so the construction is the A-tilted span that
        # claim4_prop6_chain bounds through prop_a_tilted_bounds
        space = tp.AugmentedSpace(c, k, 2, L)
        lattice = tp.enum_pslattice(c, k)
        sites = tp.quantum_sites(k)
        rows = tp.tilt_rows(space, sites, ((),) + lattice.linear_ext)
        size = space.box(sites, {e: 0 for e in tp.full_block(c, k)}).size
        layout = tilting.TiltedLayout(space.base_dim**k, len(lattice.linear_ext))
        for delta in (0.3, 0.6):
            a = tp.build_tilting_matrix(lattice, delta)
            for j, p in enumerate(lattice.linear_ext):
                placed = tp.place(rows, size, tilting.tilt_isometry(a.alpha[:, j], layout))
                npt.assert_allclose(placed, tp.psp_local(space, sites, p, delta), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("c, k, L, rows", [(0, 2, 4, 80), (0, 3, 2, 960)])
    def test_images_on_layout_rows(self, monkeypatch, c, k, L, rows):
        # 80 of the 144 box rows at the defaults, 960 of 8000 at k = 3
        # the rows of the one array np.linalg.qr receives
        inst = audits.random_instance(7, c, k, 2, L, 0.3, 0.2)
        tests = tp.optimal_splitting_tests(inst)[()]
        dims, qr = [], np.linalg.qr

        def recording(m, mode="reduced"):
            dims.append(m.shape[0])
            return qr(m, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", recording)
        tp.build_construction(inst, (), tests=tests)
        assert dims == [tp.psp_count(c, k) * 4**k] == [rows]

    @pytest.mark.parametrize("c, k, L", [(0, 2, 4), (1, 2, 2), (0, 3, 2)])
    def test_matches_box_row_construction(self, c, k, L):
        inst = audits.random_instance(7, c, k, 2, L, 0.3, 0.2)
        tests = tp.optimal_splitting_tests(inst)
        for x in inst.words():
            constr = tp.build_construction(inst, x, tests=tests[x])
            q, b = box_row_construction(inst, x, tests[x])
            npt.assert_allclose(constr.b, b, rtol=0, atol=1e-12)
            placed = tp.place(constr.rows, constr.box.size, constr.q_tilted)
            # of equal rank, so the projectors agree when one fixes the other's basis
            assert placed.shape[1] == q.shape[1]
            npt.assert_allclose(placed @ (placed.conj().T @ q), q, rtol=0, atol=1e-12)


class TestDilateToSites:
    def test_trace_identity_per_site(self):
        rng = rng_from_seed(67)
        from oneshot.rand import random_povm_element

        pi = random_povm_element(rng, 4)
        proj = tp.dilate_to_sites(pi, 2, 2)
        qla.projector(proj)
        for _ in range(20):
            a = random_density(rng, 4)
            lhs = np.trace(proj @ tp.embed_with_ancilla(a, 2, 2)).real
            assert lhs == pytest.approx(np.trace(pi @ a).real, abs=1e-10)


class TestRhoPrime:
    @staticmethod
    def embedded_original(inst, st):
        # rho x |0><0| in the base summand, on the smoothed state's box
        core = tp.embed_with_ancilla(inst.rhos[()], 1, 2)
        return tp.LowRankState(tp.psp_local(inst.space, st.box.sites, (), inst.delta), core, st.box)

    def test_delta_zero_exact(self):
        inst = small_instance(70, delta=0.0)
        st = tp.build_rho_prime(inst, ())
        assert tp.l1_distance_factored(st, self.embedded_original(inst, st)) <= 1e-12

    def test_distance_and_trace(self):
        inst = small_instance(71, delta=0.3)
        st = tp.build_rho_prime(inst, ())
        assert st.trace() == pytest.approx(1.0, abs=1e-12)
        emb = self.embedded_original(inst, st)
        assert tp.l1_distance_factored(st, emb) <= 2 ** (0.5 + 1) * 0.3

    def test_spectrum_preserved(self):
        inst = small_instance(72, delta=0.45)
        st = tp.build_rho_prime(inst, ())
        got = np.sort(st.eigenvalues())[-2:]
        want = np.sort(np.linalg.eigvalsh(inst.rhos[()]))
        npt.assert_allclose(got, want, atol=1e-10)


    @pytest.mark.parametrize(
        "c, k, x, l_assign",
        [(0, 2, (), {1: 1, 2: 0}), (1, 1, (1,), {-1: 1, 1: 0})],
    )
    def test_factored_partial_trace_matches_dense(self, c, k, x, l_assign):
        self.check_factored_partial_trace(c, k, 2, x, l_assign)

    def test_factored_partial_trace_matches_dense_one_dim_h(self):
        self.check_factored_partial_trace(1, 2, 1, (0,), {-1: 1, 1: 0, 2: 1})

    @staticmethod
    def check_factored_partial_trace(c, k, dim_h, x, l_assign):
        # the zero-label marginals against the dense partial traces of the same
        # state, and their spectra against the dense state of the l_assign
        # block from global_embed, a relabeling of it
        inst = small_instance(74, c=c, k=k, dim_h=dim_h, delta=0.4)
        space = inst.space
        st = tp.build_rho_prime(inst, x)
        assert st.box.size < np.prod(st.box.dims)
        dense = st.dense()
        v = tp.global_embed(space, l_assign, inst.delta)
        relabeled = v @ tp.embed_with_ancilla(inst.rhos[x], k, dim_h) @ v.conj().T
        dims = [space.site_dim(s) for s in tp.quantum_sites(k)]
        for r in range(1, k + 1):
            for keep in itertools.combinations(tp.quantum_sites(k), r):
                got = tp.factored_partial_trace(space, st, keep)
                want = qla.partial_trace(dense, dims, [s - 1 for s in keep])
                npt.assert_allclose(got, want, atol=1e-12)
                other = qla.partial_trace(relabeled, dims, [s - 1 for s in keep])
                npt.assert_allclose(np.linalg.eigvalsh(got), np.linalg.eigvalsh(other), atol=1e-12)

    @pytest.mark.parametrize(
        "c, k, dim_h, block, x",
        [
            (0, 2, 2, (1,), ()),
            (0, 2, 2, (1, 2), ()),
            (1, 1, 2, (1,), (0,)),
            (1, 1, 2, (-1, 1), (1,)),
            (1, 2, 1, (2,), (1,)),
            (1, 2, 1, (-1, 1), (0,)),
        ],
        # stable ids: the cases keep the ids they had when x was the kept symbols
        ids=[f"{s}-block{i}-x_kept{i}" for i, s in enumerate(["0-2-2"] * 2 + ["1-1-2"] * 2 + ["1-2-1"] * 2)],
    )
    def test_marginal_block_state_matches_dense(self, c, k, dim_h, block, x):
        # oracle: the average over the classical words and labels outside the
        # block of the dense partial traces of global_embed's states, with the
        # block's labels all 0 or all 1
        inst = small_instance(75, c=c, k=k, dim_h=dim_h, delta=0.4)
        space = inst.space
        full = tp.full_block(c, k)
        sbar = [e for e in full if e not in block]
        sites = [e for e in block if e > 0]
        dims = [space.site_dim(s) for s in tp.quantum_sites(k)]
        n_l = inst.dim_l ** len(sbar)

        def oracle(label):
            want = 0.0
            for x_full, w in inst.conditional(block, x).items():
                for l_rest in itertools.product(range(inst.dim_l), repeat=len(sbar)):
                    l_assign = {**dict.fromkeys(block, label), **dict(zip(sbar, l_rest))}
                    v = tp.global_embed(space, l_assign, inst.delta)
                    rho = v @ tp.embed_with_ancilla(inst.rhos[x_full], k, dim_h) @ v.conj().T
                    want = want + w / n_l * qla.partial_trace(rho, dims, [s - 1 for s in sites])
            return want

        box, c_factor = tp.marginal_block_state(inst, block, x)
        assert box.sites == tuple(sites)
        got = tp.LowRankState.of_factor(c_factor, box).dense()
        npt.assert_allclose(got, oracle(0), atol=1e-12)
        # the block at labels 1 is a relabeling of the zero-label block: one
        # column per eigenvalue of its marginal on the support, and its spectrum
        want = oracle(1)
        assert c_factor.shape[1] == np.count_nonzero(qla.support_mask(np.linalg.eigvalsh(want)))
        npt.assert_allclose(np.linalg.eigvalsh(got), np.linalg.eigvalsh(want), atol=1e-12)

    @pytest.mark.parametrize("c, k, L", [(0, 2, 4), (1, 2, 2), (2, 2, 2)])
    def test_marginal_block_state_embeds_once(self, monkeypatch, c, k, L):
        # the label assignments outside the block place copies of one marginal
        inst = small_instance(140 + c, c=c, k=k, dim_l=L, delta=0.3)
        calls = [0]
        embed = tp._ancilla_embedding

        def counting(*args):
            calls[0] += 1
            return embed(*args)

        monkeypatch.setattr(tp, "_ancilla_embedding", counting)
        x = inst.words()[-1]
        splits = [p for p in inst.lattice.linear_ext if not tp.is_full_block(inst, p)]
        for block in sorted({b for p in splits for b in p}):
            calls[0] = 0
            tp.marginal_block_state(inst, block, x)
            assert calls[0] == 1, block


class TestBox:
    # F F† on N rows has the eigenvalues of F†F plus N - width zeros
    def test_lowest_eigenvalue_on_strict_box(self):
        # a full-rank factor on a strict sub-box: the dense operator also has
        # the zero block outside the box
        space = tp.AugmentedSpace(0, 2, 2, 2)
        box = space.box((1, 2), {1: 1, 2: 0})
        assert box.size < np.prod(box.dims)
        rng = rng_from_seed(76)
        g = rng.normal(size=(box.size, box.size)) + 1j * rng.normal(size=(box.size, box.size))
        st = tp.LowRankState(g, np.eye(box.size), box)
        want = float(np.linalg.eigvalsh(st.dense())[0])
        assert st.lowest_eigenvalue() == pytest.approx(want, abs=1e-12)
        assert st.lowest_eigenvalue() == 0.0
        assert st.eigenvalues()[0] > 1e-3

    def test_lowest_eigenvalue_of_rank_deficient_factor(self):
        # on the whole space, but narrower than it: the spectrum gains zeros
        n = 6
        rng = rng_from_seed(77)
        f = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
        st = tp.LowRankState(f, np.diag([1.0, 2.0, 0.5]))
        assert st.eigenvalues()[0] > 1e-3
        assert st.lowest_eigenvalue() == 0.0
        assert float(np.linalg.eigvalsh(st.dense())[0]) == pytest.approx(0.0, abs=1e-12)

    def test_core_sqrt_rows(self):
        # some rows of local core^(1/2), cut from local before the product and
        # not cached; once the full columns are cached, cut from them
        rng = rng_from_seed(78)
        f = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
        rows = np.array([6, 1, 4])
        st = tp.LowRankState(f, np.diag([1.0, 2.0, 0.5]))
        part = st.core_sqrt_cols(rows)
        assert st._cols is None
        npt.assert_allclose(part, st.core_sqrt_cols()[rows], rtol=0, atol=1e-12)
        assert np.array_equal(st.core_sqrt_cols(rows), st.core_sqrt_cols()[rows])

    def test_lowest_eigenvalue_on_whole_space(self):
        space = tp.AugmentedSpace(0, 1, 2, 2)
        n = space.site_dim(1)
        box = tp.Box((1,), (n,), (np.arange(n),))
        st = tp.LowRankState(np.eye(n), np.diag(np.arange(1.0, n + 1.0)), box)
        assert st.lowest_eigenvalue() == pytest.approx(1.0, abs=1e-12)
        assert float(np.linalg.eigvalsh(st.dense())[0]) == pytest.approx(1.0, abs=1e-12)

    def test_unlabelled_element_rejected(self):
        # box-local positions hold for boxes that label every element only
        space = tp.AugmentedSpace(1, 2, 2, 2)
        with pytest.raises(ValueError, match="label for every element"):
            space.box((1, 2), {1: 0, 2: 0})
        with pytest.raises(ValueError, match="label for every element"):
            space.box((1,), {})
        space.box((1,), {-1: 1, 1: 0, 2: 1})

    def test_rows_outside_box_rejected(self):
        space = tp.AugmentedSpace(0, 2, 2, 2)
        box = space.box((1, 2), {1: 0, 2: 0})
        other = space.site_rows(1, (1,), {1: 1})
        with pytest.raises(ValueError, match="outside the box"):
            box.index([other, space.site_rows(2, None)])

    def test_audit_builds_no_dim_a_array(self, monkeypatch):
        # the intersection lemma at the benchmark size runs on boxes only
        def forbidden(*args, **kwargs):
            raise AssertionError("dim A'' array built in the audit path")

        monkeypatch.setattr(tp, "global_embed", forbidden)
        monkeypatch.setattr(tp.Box, "expand", forbidden)
        monkeypatch.setattr(tp.LowRankState, "dense", forbidden)
        res = tp.intersection_lemma(audits.random_instance(3, 0, 2, 2, 4, 0.2, 0.2))
        bad = [c for c in res.checks if not c.passed]
        assert not bad, bad[0].describe()


class TestConstruction:
    def test_trivial_tests_give_slice_projector(self):
        inst = small_instance(73, delta=0.4)
        tests = tp.optimal_splitting_tests(inst)[()]
        for psp in list(tests):
            t = tests[psp]
            tests[psp] = tp.SplitTest(psp, 0.0, 0.0, 1.0, t.y_basis[:, :0])
        constr = tp.build_construction(inst, (), tests=tests)
        e = dense_base(inst.space, [1])
        npt.assert_allclose(
            constr.b_factor @ constr.b_factor.conj().T, e @ e.conj().T, atol=1e-12
        )

    def test_block_audit_passes(self):
        for seed, (c, k, L, delta) in enumerate(
            [(0, 1, 2, 0.3), (0, 2, 2, 0.4), (1, 1, 2, 0.5)]
        ):
            inst = small_instance(80 + seed, c=c, k=k, dim_l=L, delta=delta)
            for x in inst.words():
                checks = tp.audit_construction(tp.build_construction(inst, x))
                bad = [c2 for c2 in checks if not c2.passed]
                assert not bad, bad[0].describe()

    def test_label_covariance(self):
        inst = small_instance(84, k=2, dim_l=2, delta=0.35)
        base = tp.build_construction(inst, ())
        c1 = base.relabeled({1: 0, 2: 0})
        c2 = base.relabeled({1: 1, 2: 0})
        v1 = c1.pi_prime_expectation(c1.rho_prime)
        v2 = c2.pi_prime_expectation(c2.rho_prime)
        assert v1 == pytest.approx(v2, abs=1e-10)
        d1 = tp.l1_distance_factored(c1.rho_prime, c1.embedded_original)
        d2 = tp.l1_distance_factored(c2.rho_prime, c2.embedded_original)
        assert d1 == pytest.approx(d2, abs=1e-10)

    @pytest.mark.parametrize("c, k", [(1, 1), (0, 2)])
    def test_relabeled_matches_dense_route(self, c, k):
        # every label block against one built from scratch on A'' from the
        # Kronecker-chain oracle embeddings at its labels
        inst = small_instance(150 + c, c=c, k=k, dim_l=2, delta=0.35)
        space, sites = inst.space, tp.quantum_sites(k)
        for x in inst.words():
            base = tp.build_construction(inst, x)
            for l_assign in all_labels(space):
                images = [
                    oracle_psp_embed(space, psp, l_assign, inst.delta, sites) @ t.y_basis
                    for psp, t in base.tests.items()
                ]
                e = oracle_psp_embed(space, (), l_assign, inst.delta, sites)
                b = tilting.complement_factor(e, tilting.orthonormalize(np.hstack(images)))
                npt.assert_allclose(base.relabeled(l_assign).b_factor, b, atol=1e-12)

    def test_states_on_other_boxes_rejected(self):
        # two label blocks have boxes of equal size on different rows
        inst = small_instance(84, k=2, dim_l=2, delta=0.35)
        base = tp.build_construction(inst, ())
        c1 = base.relabeled({1: 0, 2: 0})
        c2 = base.relabeled({1: 1, 2: 0})
        assert c1.box.size == c2.box.size and c1.box != c2.box
        with pytest.raises(ValueError, match="box"):
            c1.pi_prime_expectation(c2.rho_prime)
        with pytest.raises(ValueError, match="box"):
            c1.y_projector_expectation(c2.embedded_original)
        with pytest.raises(ValueError, match="box"):
            tp.l1_distance_factored(c1.rho_prime, c2.embedded_original)


class TestSplitDecompose:
    def test_c0_two_site_split(self):
        inst = small_instance(90, k=2, dim_l=2, delta=0.4)
        psp = ((1,), (2,))
        dec = tp.split_decompose(inst, (), psp)
        assert dec.beta == pytest.approx(0.0, abs=1e-12)
        assert dec.m_norm <= 1.0 / inst.dim_l + 1e-12
        bad = [c for c in dec.checks if not c.passed]
        assert not bad, bad[0].describe()

    def test_c0_single_site_split(self):
        inst = small_instance(91, k=2, dim_l=4, delta=0.3)
        for psp in [((1,),), ((2,),)]:
            dec = tp.split_decompose(inst, (), psp)
            bad = [c for c in dec.checks if not c.passed]
            assert not bad, bad[0].describe()
            assert dec.n_norm == pytest.approx(0.0, abs=1e-8)

    def test_full_block_trivial(self):
        inst = small_instance(92, k=2, dim_l=2, delta=0.5)
        dec = tp.split_decompose(inst, (), ((1, 2),))
        assert dec.alpha == pytest.approx(1.0, abs=1e-12)
        assert report.all_pass(dec.checks)

    @pytest.mark.parametrize("c, k, L", [(0, 2, 2), (1, 2, 2), (0, 3, 2)])
    def test_full_block_residual_is_the_box_distance(self, c, k, L):
        # T_full is an isometry, so the trace distance on H^(x k) is the one
        # between rho' and the embedded split state on the box
        inst = audits.random_instance(7, c, k, 2, L, 0.3, 0.2)
        psp = (tp.full_block(c, k),)
        for x in inst.words():
            dec = tp.split_decompose(inst, x, psp)
            got = next(ch.lhs for ch in dec.checks if ch.name == "split_identity_residual")
            rho_prime = tp.build_rho_prime(inst, x)
            want = tp.l1_distance_factored(rho_prime, tp.split_embedded(inst, x, psp, rho_prime.box))
            assert got == pytest.approx(want, rel=0, abs=1e-12)

    def test_c1_beta_formula(self):
        inst = small_instance(93, c=1, k=1, dim_l=2, delta=0.4)
        d2 = 0.4**2
        dec = tp.split_decompose(inst, (0,), ((1,),))
        assert dec.alpha == pytest.approx((1 + d2) / (1 + 2 * d2), abs=1e-12)
        assert dec.beta == pytest.approx(d2 / (1 + 2 * d2), abs=1e-12)
        assert dec.n_norm <= 3.0 / np.sqrt(inst.dim_l) + 1e-12
        assert report.all_pass(dec.checks)

    @pytest.mark.parametrize(
        "c, k, x, psp",
        [(0, 2, (), ((1,), (2,))), (0, 2, (), ((2,),)), (1, 1, (1,), ((1,),))],
    )
    def test_split_expectation_matches_dense(self, c, k, x, psp):
        # Tr[Pi' (x) factors] on the all-ones label block, a relabeling of the
        # zero-label block: the dense marginals of global_embed's states and
        # Pi' expanded to A''; every case has single-site groups, so the
        # Kronecker product in site order is the operator on A''
        inst = small_instance(95, c=c, k=k, delta=0.4)
        space = inst.space
        l_assign = {e: 1 for e in tp.full_block(c, k)}
        constr = tp.build_construction(inst, x)
        dec = tp.split_decompose(inst, x, psp)
        factors = [(f.sites, self.dense_factor(inst, x, f.block, l_assign)[0]) for f in dec.factors]
        t_sites = [s for s in tp.quantum_sites(k) if not any(s in f.sites for f in dec.factors)]
        if t_sites:
            e_t = dense_base(space, t_sites)
            fill = tp.embed_with_ancilla(inst.quantum_marginal(x, t_sites), len(t_sites), 2)
            factors.append((tuple(t_sites), e_t @ fill @ e_t.conj().T))
        assert all(len(sites) == 1 for sites, _ in factors)
        b = constr.relabeled(l_assign).b_factor
        op = qla.tensor_all([m for _, m in sorted(factors, key=lambda f: f[0])])
        want = np.trace(b.conj().T @ op @ b).real
        got = tp._split_expectation(inst, constr, psp, dec)
        assert got == pytest.approx(want, abs=1e-12)

    def test_c1_full_block_beta_zero(self):
        inst = small_instance(94, c=1, k=1, dim_l=2, delta=0.4)
        dec = tp.split_decompose(inst, (1,), ((-1, 1),))
        assert dec.beta == pytest.approx(0.0, abs=1e-12)
        assert report.all_pass(dec.checks)

    @staticmethod
    def dense_factor(inst, x, block, l_assign):
        """The dense route for one block: its marginal and lead term on A''_sites."""
        space = inst.space
        full = tp.full_block(inst.c, inst.k)
        sbar = [e for e in full if e not in block]
        sites = [e for e in block if e > 0]
        l_block = {e: l_assign[e] for e in block}
        dims = [space.site_dim(s) for s in tp.quantum_sites(inst.k)]
        rho = 0.0
        for x_full, w in inst.conditional(block, x).items():
            for l_rest in itertools.product(range(inst.dim_l), repeat=len(sbar)):
                v = tp.global_embed(space, {**l_block, **dict(zip(sbar, l_rest))}, inst.delta)
                st = v @ tp.embed_with_ancilla(inst.rhos[x_full], inst.k, inst.dim_h) @ v.conj().T
                rho = rho + w / inst.dim_l ** len(sbar) * qla.partial_trace(
                    st, dims, [s - 1 for s in sites]
                )
        box = space.box(sites, l_assign)
        t = box.expand(tp.psp_local(space, sites, (block,), inst.delta))
        rho_bar = tp.embed_with_ancilla(inst.averaged_marginal(block, x), len(sites), inst.dim_h)
        return rho, t @ rho_bar @ t.conj().T

    @staticmethod
    def check_factor(inst, f, rho, lead):
        """Compare a factor's numbers with dense eigvalsh; return its dense norms."""
        p = qla.tensor_all([
            tp._site_noncross_mask(inst.space, s, f.block).astype(float)[:, None] for s in f.sites
        ]).ravel()
        clean = rho * np.outer(p, p)
        crossing = rho * np.outer(1.0 - p, 1.0 - p)
        dense = {"clean": clean, "crossing": crossing, "lead": lead,
                 "leak": clean - f.lead_weight * lead, "coh": rho - clean - crossing}
        # eigvalsh on the rows the operators reach; the others add zeros
        keep = np.flatnonzero((np.abs(rho) + np.abs(lead)).sum(axis=1))
        spec = {name: np.linalg.eigvalsh(qla.hermitian_part(op[np.ix_(keep, keep)]))
                for name, op in dense.items()}
        norm = {name: float(np.max(np.abs(w))) for name, w in spec.items()}
        low = float(spec["crossing"][0])
        if len(keep) < len(rho):
            low = min(low, 0.0)
        pairs = [
            (f.rho.trace(), np.trace(rho).real),
            (f.clean.trace(), np.trace(clean).real),
            (f.crossing.trace(), np.trace(crossing).real),
            (f.lead.trace(), np.trace(lead).real),
            (float(np.sum(f.leak_spectrum)), np.trace(dense["leak"]).real),
            (float(np.max(f.clean.eigenvalues())), norm["clean"]),
            (float(np.max(f.crossing.eigenvalues())), norm["crossing"]),
            (float(np.max(f.lead.eigenvalues())), norm["lead"]),
            (float(np.max(np.abs(f.leak_spectrum))), norm["leak"]),
            (f.coherence_norm, norm["coh"]),
            (f.crossing.lowest_eigenvalue(), low),
        ]
        for i, (got, want) in enumerate(pairs):
            assert got == pytest.approx(want, abs=1e-12), (f.block, i)
        return norm["clean"], norm["crossing"], norm["leak"], f.lead_weight * norm["lead"], low

    def test_numbers_on_generic_factor(self, monkeypatch):
        # the marginals of the construction have no coherence between the
        # sectors; a perturbed factor on the same box has, and every number of
        # the factored algebra must still match the dense one (on the
        # zero-label block, where the perturbed factor lives)
        inst = small_instance(103, c=1, k=2, dim_h=1, dim_l=2, delta=0.4)
        x = inst.words()[0]
        rng = rng_from_seed(104)
        made = {}
        exact = tp.marginal_block_state

        def perturbed(inst, block, x):
            box, c = exact(inst, block, x)
            c = c + 0.05 * (rng.normal(size=c.shape) + 1j * rng.normal(size=c.shape))
            made[block] = (box, c)
            return box, c

        monkeypatch.setattr(tp, "marginal_block_state", perturbed)
        dec = tp.split_decompose(inst, x, ((1,), (2,)))
        for f in dec.factors:
            box, c = made[f.block]
            _, lead = self.dense_factor(inst, x, f.block, tp.zero_labels(inst.space))
            self.check_factor(inst, f, tp.LowRankState.of_factor(c, box).dense(), lead)
            assert f.coherence_norm > 1e-3 and f.crossing.eigenvalues()[-1] > 1e-3

    @pytest.mark.parametrize("c, k, L", [(0, 2, 2), (1, 1, 2), (1, 2, 2)])
    def test_numbers_match_dense_oracle(self, c, k, L):
        # every number of the zero-label decomposition against dense eigvalsh on
        # A''_sites of the all-ones label block, a relabeling of it, at |H| = 1
        # so that the dense marginals stay small; at c = 1, k = 2 the splits
        # include the block (1, 2) with its classical coordinate averaged
        inst = small_instance(100 + c + k, c=c, k=k, dim_h=1, dim_l=L, delta=0.4)
        x = inst.words()[-1]
        l_assign = {e: 1 for e in tp.full_block(c, k)}
        splits = [p for p in inst.lattice.linear_ext if not tp.is_full_block(inst, p)]
        assert splits
        if (c, k) == (1, 2):
            assert ((1, 2),) in splits

        for psp in splits:
            dec = tp.split_decompose(inst, x, psp)
            rows = [
                self.check_factor(inst, f, *self.dense_factor(inst, x, f.block, l_assign))
                for f in dec.factors
            ]
            m_psd = [ch.lhs for ch in dec.checks if ch.name == "split_m_psd"]
            assert m_psd[0] == pytest.approx(-min(r[4] for r in rows), abs=1e-12)
            covered = [s for f in dec.factors for s in f.sites]
            t_sites = [s for s in tp.quantum_sites(k) if s not in covered]
            fill = np.linalg.eigvalsh(inst.quantum_marginal(x, t_sites))[-1] if t_sites else 1.0
            picks = [p for p in itertools.product([0, 1], repeat=len(rows)) if any(p)]
            m_prime = max(fill * np.prod([r[1] if sel else r[0] for sel, r in zip(p, rows)])
                          for p in picks)
            m_weight = 1.0 - dec.alpha - dec.beta
            want_m = m_prime / m_weight if m_weight > 1e-12 else 0.0
            # only the factors that leak enter N'
            leaks = [r[2] if r[2] > 1e-12 else 0.0 for r in rows]
            want_n = sum(fill * np.prod([lk if sel else r[3] for sel, lk, r in zip(p, leaks, rows)])
                         for p in picks)
            assert dec.m_norm == pytest.approx(want_m, abs=1e-12), psp
            assert dec.n_norm == pytest.approx(want_n, abs=1e-12), psp


class TestIntersectionLemma:
    def test_k1_c0(self):
        inst = small_instance(95, k=1, dim_l=2, delta=0.3)
        res = tp.intersection_lemma(inst)
        assert res.all_pass()

    def test_k2_c0(self):
        inst = small_instance(96, k=2, dim_l=2, delta=0.35)
        res = tp.intersection_lemma(inst)
        assert res.all_pass()

    def test_k1_c1(self):
        inst = small_instance(97, c=1, k=1, dim_l=2, delta=0.4)
        res = tp.intersection_lemma(inst)
        assert res.all_pass()

    def test_product_state_soundness_reject(self):
        # product state: the split equals the state, D_H = -log2(1 - eps)
        rng = rng_from_seed(98)
        rho = np.kron(random_density(rng, 2), random_density(rng, 2))
        inst = tp.TypicalityInstance(
            c=0, k=2, dim_h=2, dim_l=2, delta=0.3, rhos={(): rho}, p_x={(): 1.0},
            eps_total=0.4,
        )
        res = tp.intersection_lemma(inst)
        assert res.all_pass()
        eps_psp = 0.4 / 4
        s = res.soundness[((1,), (2,))]
        assert s["dh_reject"] == pytest.approx(1 - eps_psp, abs=1e-9)

    @pytest.mark.parametrize("c, k", [(0, 2), (1, 1), (2, 1), (0, 3)])
    def test_one_solve_per_split(self, monkeypatch, c, k):
        # splits whose split states are equal in every word share one solve:
        # 2 of 4 at (0, 2), 7 of 14 at (0, 3)
        calls = [0]
        solve = hyptest.optimal_tests

        def counting(rho, *args):
            calls[0] += len(rho)
            return solve(rho, *args)

        monkeypatch.setattr(hyptest, "optimal_tests", counting)
        inst = small_instance(102 + c, c=c, k=k, dim_l=2, delta=0.3)
        res = tp.intersection_lemma(inst)
        assert res.all_pass()
        states = {
            tuple(inst.split_state(x, psp).tobytes() for x in inst.words()) for psp in inst.lattice.linear_ext
        }
        assert calls[0] == len(states)

    def test_no_large_eigenproblem(self, monkeypatch):
        # at c = 1, k = 2, L = 2 the split marginals have up to 784 box rows;
        # their factors keep every eigenvalue problem on at most 64 rows
        largest = [0]

        def recording(fn):
            def wrapped(a, *args, **kwargs):
                largest[0] = max(largest[0], np.shape(a)[0])
                return fn(a, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(np.linalg, "eigvalsh", recording(np.linalg.eigvalsh))
        monkeypatch.setattr(np.linalg, "eigh", recording(np.linalg.eigh))
        res = tp.intersection_lemma(small_instance(101, c=1, k=2, dim_l=2, delta=0.3))
        assert res.all_pass()
        assert 0 < largest[0] <= 64

    @pytest.mark.parametrize("c, k, L", [(0, 2, 4), (1, 2, 2), (0, 3, 2)])
    def test_one_marginal_per_word_and_block(self, monkeypatch, c, k, L):
        # a block's factor serves every split that contains it and every word
        # with the same symbols on the block's classical coordinates
        coords = tp.classical_coords(c)

        def kept(block, x):
            return block, tuple(x[coords.index(e)] for e in block if e < 0)

        calls = {}
        exact = tp.marginal_block_state

        def counting(inst, block, x):
            calls[kept(block, x)] = calls.get(kept(block, x), 0) + 1
            return exact(inst, block, x)

        monkeypatch.setattr(tp, "marginal_block_state", counting)
        inst = small_instance(160 + c, c=c, k=k, dim_l=L, delta=0.3)
        tp.intersection_lemma(inst)
        splits = [p for p in inst.lattice.linear_ext if not tp.is_full_block(inst, p)]
        want = {kept(b, x) for x in inst.words() for p in splits for b in p}
        assert calls == dict.fromkeys(want, 1)

    def test_words_that_agree_share_a_factor(self):
        # block (-2, 1) keeps the first symbol, block (1,) neither
        inst = small_instance(165, c=2, k=1, dim_l=2, delta=0.3)
        kept = tp.split_factor(inst, (0, 0), (-2, 1))
        assert tp.split_factor(inst, (0, 1), (-2, 1)) is kept
        assert tp.split_factor(inst, (1, 0), (-2, 1)) is not kept
        both = [tp.split_factor(inst, x, (1,)) for x in inst.words()]
        assert all(f is both[0] for f in both)

    def test_lemma_forgets_every_split_factor(self):
        inst = small_instance(166, c=1, k=2, dim_l=2, delta=0.3)
        tp.intersection_lemma(inst)
        assert not [key for key in inst._memo if key[0] == "split_factor"]

    @pytest.mark.parametrize("c, k, L", [(0, 2, 4), (1, 2, 2), (0, 3, 2), (2, 2, 2)])
    def test_shared_factors_match_fresh_instances(self, c, k, L):
        # every split record the lemma emits equals split_decompose on an
        # instance that has computed nothing yet
        inst = small_instance(170 + c, c=c, k=k, dim_l=L, delta=0.3)
        res = tp.intersection_lemma(inst)

        def fresh():
            return tp.TypicalityInstance(
                inst.c, inst.k, inst.dim_h, inst.dim_l, inst.delta, dict(inst.rhos),
                dict(inst.p_x), inst.eps_total,
            )

        emitted = [ch for ch in res.checks if set(ch.params) == {"psp", "x"}]
        want = [
            ch
            for psp in inst.lattice.linear_ext
            for x in inst.words()
            for ch in tp.split_decompose(fresh(), x, psp).checks
        ]
        assert emitted == want


class TestStatedConstants:
    def test_floor_for_every_accepted_size(self):
        # |H| = |L| = 1 admits the most (c, k), and the floor depends on (c, k)
        # only.  Where the direct formula computes, the floor keeps its bits;
        # where its 2^E overflows, the floor is astronomically negative but
        # finite, never an exception or -inf
        sizes = accepted_sizes()
        assert (2, 2) in sizes and (0, 3) in sizes
        for c, k in sizes:
            x = (0,) * c
            inst = tp.TypicalityInstance(
                c=c, k=k, dim_h=1, dim_l=1, delta=0.3, rhos={x: np.ones((1, 1))}, p_x={x: 1.0}
            )
            floor = tp.claim4_stated_floor(inst, 0.05)
            try:
                want = 1.0 - 0.3 ** (-2 * k) * 2.0 ** (2.0 ** (c * k + 4) * (k + 1) ** k) * 0.05
                assert floor == want, (c, k)
            except OverflowError:
                assert -sys.float_info.max <= floor < -1e300, (c, k)
            assert np.isfinite(floor - 2.0 ** ((c + k) / 2.0 + 1.0) * inst.delta)


class TestUnion:
    def test_single_instance_reduces(self):
        inst = small_instance(99, k=1, dim_l=2, delta=0.3)
        res = tp.union_of_intersections([inst], 0.25)
        assert res.all_pass()
        names = [c.name for c in res.checks]
        assert "union_single_reduces" in names

    def test_two_instances(self):
        a = small_instance(100, k=1, dim_l=2, delta=0.3)
        b = small_instance(101, k=1, dim_l=2, delta=0.3)
        res = tp.union_of_intersections([a, b], 0.25)
        assert res.all_pass()
        drops = [c for c in res.checks if c.name == "union_completeness_drop"]
        assert len(drops) == 2

    def test_instances_of_other_shapes_rejected(self):
        a = small_instance(100, k=1, dim_l=2, delta=0.3)
        for other in (small_instance(101, k=1, dim_l=3, delta=0.3), small_instance(101, k=2, dim_l=2)):
            with pytest.raises(ValueError, match="must share"):
                tp.union_of_intersections([a, other], 0.25)

    def test_two_site_instance(self):
        # at |L| = 4 the box holds 144 of the 7056 rows of A''
        for dim_l in (2, 4):
            inst = audits.random_instance(5, 0, 2, 2, dim_l, 0.3, 0.2)
            res = tp.union_of_intersections([inst], 0.25)
            assert res.all_pass()
            assert len(res.checks) == 6

    def test_three_sites(self, monkeypatch):
        # the box holds 20^3 rows, 32000 in the box-row union; W has rank 64
        inst = audits.random_instance(5, 0, 3, 2, 2, 0.3, 0.2)
        layouts = record_layouts(monkeypatch)
        res = tp.union_of_intersections([inst], 0.25)
        assert res.all_pass()
        assert len(res.checks) == 2 + len(inst.lattice.linear_ext)
        assert layouts[0].base_dim <= 2 * (2 * inst.dim_h) ** inst.k

    @pytest.mark.parametrize(
        "seeds,k,dim_l", [((99,), 1, 2), ((100, 101), 1, 2), ((5,), 2, 2), ((5,), 2, 4)]
    )
    def test_matches_box_row_union(self, monkeypatch, seeds, k, dim_l):
        # the TestUnion instances: the union on W x C^2 against the one on every box row
        if k == 1:
            insts = [small_instance(s, k=1, dim_l=dim_l, delta=0.3) for s in seeds]
        else:
            insts = [audits.random_instance(s, 0, k, 2, dim_l, 0.3, 0.2) for s in seeds]
        layouts = record_layouts(monkeypatch)
        got = tp.union_of_intersections(insts, 0.25).checks
        want = box_row_union(insts, 0.25)
        assert [(c.name, c.params) for c in got] == [(c.name, c.params) for c in want]
        for g, w in zip(got, want):
            assert abs(g.lhs - w.lhs) <= 1e-9 and abs(g.rhs - w.rhs) <= 1e-9
        t, dim_h = len(insts), insts[0].dim_h
        assert layouts[0].base_dim <= 2 * t * (2 * dim_h) ** k


def record_layouts(monkeypatch) -> list:
    """Record every TiltedLayout built while the test runs, in order."""
    layouts, make = [], tilting.TiltedLayout

    def recording(*args):
        layouts.append(make(*args))
        return layouts[-1]

    monkeypatch.setattr(tp.tilting, "TiltedLayout", recording)
    return layouts


def stirling_count_oracle(c, k):
    """Independent pseudosubpartition count via Stirling numbers.

    Sum over the covered quantum subset and its partition into l blocks,
    each block picking any subset of the classical coordinates.
    """
    from math import comb

    s2 = [[0] * (k + 1) for _ in range(k + 1)]
    s2[0][0] = 1
    for n in range(1, k + 1):
        for l in range(1, n + 1):
            s2[n][l] = l * s2[n - 1][l] + s2[n - 1][l - 1]
    total = 0
    for m in range(k + 1):
        for l in range(m + 1):
            total += comb(k, m) * s2[m][l] * (2**c) ** l
    return total


class TestLatticeCounts:
    @pytest.mark.parametrize("c,k", [(0, 2), (1, 1), (0, 3), (1, 2), (2, 2), (2, 3), (1, 4)])
    def test_count_matches_stirling_oracle(self, c, k):
        elements = tp.classical_coords(c) + tp.quantum_sites(k)
        assert len(tp.enum_psps(elements)) == stirling_count_oracle(c, k)
        assert tp.psp_count(c, k) == stirling_count_oracle(c, k)


class TestDimensionCap:
    @pytest.mark.parametrize("c, k, dim_l", [(0, 2, 4), (2, 1, 4), (1, 1, 4)])
    def test_widest_array_covers_what_is_built(self, c, k, dim_l, monkeypatch):
        # the image stack's closed form counts (2|H|)^k columns per split, an
        # upper bound; the count of the stacked label copies is exact.  Both
        # are arrays np.linalg.qr receives, the image stack in tilted_basis
        sizes, qr = [0], np.linalg.qr

        def recording(a, mode="reduced"):
            sizes.append(a.size)
            return qr(a, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", recording)
        tp.intersection_lemma(audits.random_instance(0, c, k, 2, dim_l, 0.3, 0.2))
        widest = tp.widest_array(c, k, 2, dim_l)
        assert max(sizes) <= widest < 2 * max(sizes)

    @pytest.mark.parametrize("c, k", [(1, 2), (2, 2)])
    def test_applied_operators_within_widest_array(self, c, k, monkeypatch):
        # the soundness loop applies each site group's marginal to B; as the
        # square C C† it had 400^2 entries at (1, 2) and 1296^2 at (2, 2)
        sizes, tensordot, apply = [], np.tensordot, tp.apply_site_factors

        def contracted(a, b, axes=2):
            out = tensordot(a, b, axes)
            sizes.extend([a.size, b.size, out.size])
            return out

        def applied(sites, dims, factors, cols):
            sizes.extend(np.size(m) for _, m in factors)
            return apply(sites, dims, factors, cols)

        monkeypatch.setattr(np, "tensordot", contracted)
        monkeypatch.setattr(tp, "apply_site_factors", applied)
        tp.intersection_lemma(audits.random_instance(0, c, k, 2, 2, 0.3, 0.2))
        assert sizes and max(sizes) <= tp.widest_array(c, k, 2, 2)

    def test_env_override_guards(self, monkeypatch):
        monkeypatch.setenv("ONESHOT_DIM_CAP", "10")
        with pytest.raises(ValueError, match="exceeds cap"):
            tp.AugmentedSpace(0, 1, 2, 2)
        monkeypatch.setenv("ONESHOT_DIM_CAP", "100")
        tp.AugmentedSpace(0, 1, 2, 2)

    def test_closed_form_site_dim(self):
        # the cap is checked on the closed form, before the labels exist
        sizes = accepted_sizes()
        assert len(sizes) == 66
        for c, k in sizes:
            space = tp.AugmentedSpace(c, k, 1, 1)
            assert tp.site_dim_formula(c, k, 1, 1) == space.site_dim(1) == space.site_dim(k)
        for c, k, dim_h, dim_l in [(0, 2, 2, 4), (1, 2, 2, 2), (2, 1, 3, 4)]:
            space = tp.AugmentedSpace(c, k, dim_h, dim_l)
            assert tp.site_dim_formula(c, k, dim_h, dim_l) == space.site_dim(1)

    def test_space_and_lattice_built_once(self, monkeypatch):
        built = {"space": 0, "lattice": 0}
        post_init, enum = tp.AugmentedSpace.__post_init__, tp.enum_pslattice

        def counting_post_init(self):
            built["space"] += 1
            post_init(self)

        def counting_enum(*args):
            built["lattice"] += 1
            return enum(*args)

        monkeypatch.setattr(tp.AugmentedSpace, "__post_init__", counting_post_init)
        monkeypatch.setattr(tp, "enum_pslattice", counting_enum)
        res = tp.intersection_lemma(audits.random_instance(3, 0, 2, 2, 4, 0.2, 0.2))
        assert res.all_pass()
        assert built == {"space": 1, "lattice": 1}


class TestSplittingTests:
    def test_bell_state_split_oracle(self):
        # maximally entangled pair against the product of its marginals at
        # eps = 1/4: accept 3/4 of the entangled ray, reject mass 3/16
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        inst = tp.TypicalityInstance(
            c=0, k=2, dim_h=2, dim_l=2, delta=0.3,
            rhos={(): np.outer(bell, bell.conj())}, p_x={(): 1.0},
            eps_total=1.0,
        )
        tests = tp.optimal_splitting_tests(inst)[()]
        res = tests[((1,), (2,))]
        assert res.reject_mass == pytest.approx(0.75 / 4.0, abs=1e-9)
        assert res.dh_bits == pytest.approx(-np.log2(0.75 / 4.0), abs=1e-9)

    def test_product_state_trivial_split(self):
        rng = rng_from_seed(120)
        rho = np.kron(random_density(rng, 2), random_density(rng, 2))
        inst = tp.TypicalityInstance(
            c=0, k=2, dim_h=2, dim_l=2, delta=0.3, rhos={(): rho}, p_x={(): 1.0},
            eps_total=0.4,
        )
        tests = tp.optimal_splitting_tests(inst)[()]
        res = tests[((1,), (2,))]
        assert res.dh_bits == pytest.approx(-np.log2(1 - 0.1), abs=1e-8)

    @pytest.mark.parametrize("c, k, L", [(1, 2, 2), (2, 1, 4)])
    def test_blocks_are_per_word_optima(self, c, k, L):
        # each word's block of the one cq solve per split accepts 1 - eps_x of
        # rho_x and rejects what a per-word solve at eps_x rejects, to within
        # that solve's dual bound
        inst = small_instance(130 + c, c=c, k=k, dim_l=L, delta=0.3)
        tests = tp.optimal_splitting_tests(inst)
        assert sorted(tests) == inst.words()
        for x in inst.words():
            rho_hat = tp.embed_with_ancilla(inst.rhos[x], k, inst.dim_h)
            assert list(tests[x]) == list(inst.lattice.linear_ext)
            for psp, t in tests[x].items():
                rejected = np.trace(t.y_basis.conj().T @ rho_hat @ t.y_basis).real
                assert 1.0 - rejected == pytest.approx(1.0 - t.eps, abs=1e-10)
                oracle = hyptest.quantum_optimal_test(inst.rhos[x], inst.split_state(x, psp), t.eps)
                assert abs(t.reject_mass - oracle.dual) <= 1e-10


# (c, k, |L|), then the distinct split states and the splits of the shape
SHARED_SPLIT_SHAPES = [
    (0, 2, 4, 2, 4),
    (0, 2, 2, 2, 4),
    (1, 2, 2, 6, 10),
    (2, 2, 2, 20, 28),
    (3, 1, 4, 8, 8),
    (0, 3, 2, 7, 14),
]


class TestSharedSplitSolves:
    """Splits with equal split states share one solve, dilation, rejection basis and core roots."""

    @pytest.mark.parametrize("delta", [0.2, 0.4])
    @pytest.mark.parametrize("c, k, dim_l", [s[:3] for s in SHARED_SPLIT_SHAPES])
    def test_matches_per_split_oracle(self, monkeypatch, c, k, dim_l, delta):
        seed = 190 + 10 * c + k

        def instance():
            return audits.random_instance(seed, c, k, 2, dim_l, delta, 0.2)

        got = tp.optimal_splitting_tests(instance())
        want = construction_oracle.optimal_splitting_tests(instance())
        assert list(got) == list(want)
        for x in want:
            assert list(got[x]) == list(want[x])
            for psp, w in want[x].items():
                g = got[x][psp]
                assert (g.psp, g.eps, g.dh_bits, g.reject_mass) == (w.psp, w.eps, w.dh_bits, w.reject_mass)
                assert np.array_equal(g.y_basis, w.y_basis)

        def records(res):
            return [(ch.name, ch.lhs, ch.rhs, ch.tol, ch.params) for ch in res.checks]

        shared = records(tp.intersection_lemma(instance()))
        with monkeypatch.context() as patched:
            patched.setattr(tp, "optimal_splitting_tests", construction_oracle.optimal_splitting_tests)
            patched.setattr(tp, "state_core", construction_oracle.unshared_core)
            assert shared == records(tp.intersection_lemma(instance()))

    @pytest.mark.parametrize("c, k, dim_l, distinct, splits", SHARED_SPLIT_SHAPES)
    def test_one_solve_and_root_per_distinct_state(self, monkeypatch, c, k, dim_l, distinct, splits):
        inst = audits.random_instance(200 + c, c, k, 2, dim_l, 0.3, 0.2)
        solves, roots = [], []
        solve, root = hyptest.optimal_tests, tp.sqrt_factor

        def counting_solve(rho, *args):
            solves.append(len(rho))
            return solve(rho, *args)

        def recording_root(core):
            roots.append(core.tobytes())
            return root(core)

        monkeypatch.setattr(hyptest, "optimal_tests", counting_solve)
        monkeypatch.setattr(tp, "sqrt_factor", recording_root)
        rejection, rejected = tilting.rejection_basis, []

        def stacked_rejection(dilated):
            rejected.append(dilated.shape[:-2])
            return rejection(dilated)

        monkeypatch.setattr(tilting, "rejection_basis", stacked_rejection)
        res = tp.intersection_lemma(inst)
        assert res.all_pass()
        assert len(inst.lattice.linear_ext) == splits
        # the distinct split states' solves as one stack
        assert solves == [distinct]
        # one rejection basis call per distinct split state, over all words' blocks
        assert rejected == [(len(inst.words()),)] * distinct
        for x in inst.words():
            tests = res.constructions[x].tests
            assert len({id(t.y_basis) for t in tests.values()}) == distinct
        # one eigh per distinct core over the whole lemma, the block marginals,
        # lead terms and fills included; rho_x's and each split state's among them
        assert len(roots) == len(set(roots))
        cores = {
            rho.tobytes()
            for x in inst.words()
            for rho in [inst.rhos[x]] + [inst.split_state(x, psp) for psp in inst.lattice.linear_ext]
        }
        assert cores <= set(roots)

    @pytest.mark.parametrize("c, k, dim_l", [(0, 2, 4), (1, 2, 2), (0, 3, 2)])
    def test_embedded_states_are_dim_rho_wide(self, monkeypatch, c, k, dim_l):
        # every embedded state is its embedding's ancilla columns around rho itself
        inst = audits.random_instance(220 + c, c, k, 2, dim_l, 0.3, 0.2)
        made, embedded = [], tp._embedded

        def recording(inst, psp, rho, box):
            state = embedded(inst, psp, rho, box)
            made.append((psp, box.sites, state))
            return state

        monkeypatch.setattr(tp, "_embedded", recording)
        res = tp.intersection_lemma(inst)
        assert res.all_pass()
        sites, full = tp.quantum_sites(k), (tp.full_block(c, k),)
        for x, constr in res.constructions.items():
            assert np.array_equal(constr.rho_hat, inst.rhos[x]) and not constr.rho_hat.flags.writeable
            made.append((full, sites, constr.rho_prime))
        for _, box_sites, st in made:
            assert st.local.shape[1] == st.core.shape[0] == inst.dim_h ** len(box_sites)
        # rho', the embedded original, each split_embedded and a fill
        reached = {(psp, box_sites) for psp, box_sites, _ in made}
        assert {(full, sites), ((), sites)} | {(p, sites) for p in inst.lattice.linear_ext} <= reached
        assert any(psp == () and box_sites != sites for psp, box_sites in reached)

    def test_shared_arrays_read_only(self):
        inst = small_instance(210, c=0, k=2, dim_l=4, delta=0.3)
        res = tp.intersection_lemma(inst)
        constr = res.constructions[()]
        held = [t.y_basis for t in constr.tests.values()]
        for psp in inst.lattice.linear_ext:
            state = tp.split_embedded(inst, (), psp, constr.box)
            held += [state.core, state.root]
        held += [constr.rho_prime.root, constr.embedded_original.root, constr.rho_hat]
        for a in held:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0


def clear_shape_caches():
    for cache in tp.SHAPE_CACHES:
        cache.cache_clear()


def lemma_records(seed, c, k, dim_l, delta):
    res = tp.intersection_lemma(audits.random_instance(seed, c, k, 2, dim_l, delta, 0.2))
    return [(ch.name, ch.lhs, ch.rhs, ch.tol, ch.params) for ch in res.checks]


class TestShapeCaches:
    """What depends only on (space, delta) is built once and shared, read-only and small."""

    def test_cached_arrays_read_only(self):
        c, k = 1, 2
        inst = small_instance(180, c=c, k=k, dim_l=2, delta=0.3)
        tp.intersection_lemma(inst)
        space, full, sites = inst.space, tp.full_block(c, k), tp.quantum_sites(k)
        zeros = {e: 0 for e in full}
        held = [
            tp.PsLattice.build(full).refine_matrix,
            tp.build_tilting_matrix(inst.lattice, inst.delta).alpha,
            tp.ancilla_rows(inst.dim_h, k),
            tp.tilt_rows(space, sites, tp.layout_psps(full)),
            *space.box(sites, zeros).rows,
        ]
        for psp in tp.enum_psps(full):
            held.extend(tp.tilt_entries(space, sites, psp, inst.delta))
            held.extend(tp.ancilla_entries(space, sites, psp, inst.delta))
        for block in {b for p in inst.lattice.linear_ext for b in p}:
            box, full_box, copies = tp.union_plan(space, block)
            held.extend(box.rows + full_box.rows + copies)
            held.extend(tp.split_plan(space, block))
        for a in held:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    def test_one_plan_per_block(self):
        # every marginal of the lemma sits on the zero-label block, so two
        # instances of each shape leave one union_plan and one split_plan
        # entry per (space, block)
        clear_shape_caches()
        keys = set()
        for seed, (c, k, dim_l) in enumerate([(0, 2, 4), (1, 2, 2), (0, 2, 4), (1, 2, 2)]):
            inst = small_instance(230 + seed, c=c, k=k, dim_l=dim_l, delta=0.3)
            tp.intersection_lemma(inst)
            splits = [p for p in inst.lattice.linear_ext if not tp.is_full_block(inst, p)]
            keys |= {(inst.space, b) for p in splits for b in p}
        assert tp.union_plan.cache_info().currsize == len(keys)
        assert tp.split_plan.cache_info().currsize == len(keys)

    def test_no_dense_embedding_kept(self):
        # one psp_local array at (0, 3, 2) is 8000 x 64 complex, 8.2 MB; what
        # the lemma leaves behind, caches included, must be smaller
        dense = tp.psp_local(tp.AugmentedSpace(0, 3, 2, 2), (1, 2, 3), (), 0.3).nbytes
        # one-time imports and set-up outside the trace
        tp.intersection_lemma(audits.random_instance(7, 0, 1, 2, 2, 0.3, 0.2))
        clear_shape_caches()
        gc.collect()
        tracemalloc.start()
        try:
            tp.intersection_lemma(audits.random_instance(7, 0, 3, 2, 2, 0.3, 0.2))
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert sum(cache.cache_info().currsize for cache in tp.SHAPE_CACHES) > 0
        assert held < dense

    def test_records_independent_of_cache_state(self):
        clear_shape_caches()
        cold = lemma_records(11, 1, 2, 2, 0.3)
        warm = lemma_records(11, 1, 2, 2, 0.3)
        for seed, c, k, dim_l, delta in [(12, 0, 2, 4, 0.2), (13, 1, 1, 2, 0.4), (14, 1, 2, 2, 0.35)]:
            lemma_records(seed, c, k, dim_l, delta)
        assert cold == warm == lemma_records(11, 1, 2, 2, 0.3)

    def test_call_counts_cold_and_warm(self, monkeypatch):
        # the call-counting tests, each once on cleared caches and once on the
        # caches its first run filled
        import test_mac

        bodies = [
            TestDimensionCap().test_space_and_lattice_built_once,
            *[
                functools.partial(TestRhoPrime().test_marginal_block_state_embeds_once, c=c, k=k, L=L)
                for c, k, L in [(0, 2, 4), (1, 2, 2), (2, 2, 2)]
            ],
            test_mac.TestTimeSharing().test_solves_only_in_its_lemma,
            test_mac.TestTimeSharing().test_codebooks_relabel_the_lemma,
        ]
        for body in bodies:
            clear_shape_caches()
            for _ in range(2):
                with monkeypatch.context() as patched:
                    body(patched)


class TestEpsShare:
    @pytest.mark.parametrize("c, k, eps", [(0, 2, 4.0), (0, 1, 1.5), (0, 2, -0.1), (1, 1, 2.0)])
    def test_share_outside_unit_interval_rejected(self, c, k, eps):
        # the share is eps_total / (psp_count(c, k) - 1): 1.0, 1.5, -0.025 and 1.0
        with pytest.raises(ValueError, match=r"eps_total .* / splits \d+ = share"):
            small_instance(0, c=c, k=k, eps=eps)

    def test_share_below_one_accepted(self):
        # 3.99 over the 4 splits of (0, 2) is 0.9975 per split
        inst = small_instance(0, c=0, k=2, eps=3.99)
        assert inst.eps_total / len(inst.lattice.linear_ext) < 1


class TestInstanceWords:
    @pytest.mark.parametrize(
        "c, words, p_x, match",
        [
            # p_x over a word that rhos lacks
            (1, [(0,), (1,)], {(2,): 1.0}, "same words"),
            # two symbols at c = 1
            (1, [(0, 0), (0, 1)], {(0, 0): 0.5, (0, 1): 0.5}, "not a tuple of c = 1"),
            # a rhos word with no probability
            (1, [(0,), (1,)], {(0,): 1.0}, "same words"),
            (1, [(0,), (1,)], {(0,): 1.5, (1,): -0.5}, "weight -0.5, not >= 0"),
            (0, [(0,)], {(0,): 1.0}, "not a tuple of c = 0"),
        ],
    )
    def test_unusable_words_rejected(self, c, words, p_x, match):
        # the first three were accepted, and intersection_lemma later failed with a bare KeyError
        rhos = {x: np.eye(2) / 2 for x in words}
        with pytest.raises(ValueError, match=match):
            tp.TypicalityInstance(c=c, k=1, dim_h=2, dim_l=2, delta=0.3, rhos=rhos, p_x=p_x)
