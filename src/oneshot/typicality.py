"""Augmented-space smoothing construction and its numeric auditor.

A k-partite quantum system (sites 1..k, each a copy of H) together with c
classical coordinates is embedded into per-site augmented spaces

    A''_i = (H x C^2)  (+)  sum over blocks S containing i of (H x C^2) x L^|S|,

after which the state is smoothed by superposing, over every
pseudosubpartition, coordinate-labelled copies of itself.  Partial traces of
the smoothed state then split into a tilted leading term, a small leak term,
and a flat remainder whose operator norm is damped by the ancilla dimension.

Elements of the index set are encoded as ints: quantum sites are 1..k,
classical coordinates are -1..-c.  A block is a sorted tuple of elements, a
pseudosubpartition a sorted tuple of blocks (pairwise disjoint on the
quantum sites, each containing at least one quantum site).
"""

from __future__ import annotations

import itertools
import math
import os
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache, reduce

import numpy as np

from . import hyptest, qla, report, tilting

Block = tuple[int, ...]
Psp = tuple[Block, ...]

DEFAULT_SITE_DIM_CAP = 4096
IDENTITY_TOL = 1e-8


def site_dim_cap() -> int:
    return int(os.environ.get("ONESHOT_DIM_CAP", DEFAULT_SITE_DIM_CAP))


def check_budget(what: str, size: int) -> None:
    """Refuse a run whose largest array, known before any state or codebook is drawn, is over cap^2."""
    cap = site_dim_cap()
    if size > cap * cap:
        raise ValueError(f"{what} has {size} entries, over the budget {cap}^2")


def site_dim_formula(c: int, k: int, dim_h: int, dim_l: int) -> int:
    """dim A''_i: the base summand plus 2|H| L^|S| per block S through site i.

    Summing over the blocks, subsets of the other c + k - 1 elements, gives
    2|H| (1 + |L| (1 + |L|)^(c + k - 1)).
    """
    return 2 * dim_h * (1 + dim_l * (1 + dim_l) ** (c + k - 1))


def check_space(c: int, k: int, dim_h: int, dim_l: int) -> None:
    """Refuse invalid space parameters and a per-site dimension over the cap.

    Works from the closed form alone, so callers can check before drawing
    any state or enumerating any label.
    """
    if k < 1 or c < 0 or dim_h < 1 or dim_l < 1:
        raise ValueError("invalid space parameters")
    dim = site_dim_formula(c, k, dim_h, dim_l)
    cap = site_dim_cap()
    if dim > cap:
        raise ValueError(f"per-site dimension {dim} exceeds cap {cap}")


def quantum_sites(k: int) -> tuple[int, ...]:
    return tuple(range(1, k + 1))


def classical_coords(c: int) -> tuple[int, ...]:
    return tuple(range(-c, 0))


def full_block(c: int, k: int) -> Block:
    """The whole index set [c] (+) [k] as one sorted block."""
    return classical_coords(c) + quantum_sites(k)


def canonical_psp(blocks) -> Psp:
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


@lru_cache(maxsize=None)
def enum_psps(elements: tuple[int, ...]) -> tuple[Psp, ...]:
    """All pseudosubpartitions of the element set, empty one included.

    Blocks are subsets of the elements that contain at least one quantum
    site; distinct blocks are disjoint on the quantum sites but may share
    classical coordinates.
    """
    elements = sorted(elements)
    quantum = [e for e in elements if e > 0]
    classical = [e for e in elements if e < 0]
    csubsets = [
        tuple(sorted(cs))
        for r in range(len(classical) + 1)
        for cs in itertools.combinations(classical, r)
    ]

    # enumerate collections of disjoint non-empty subsets of the quantum part
    def qsubpartitions(rest):
        if not rest:
            yield ()
            return
        head, tail = rest[0], rest[1:]
        # head unused
        for sub in qsubpartitions(tail):
            yield sub
        # head starts or joins a block: choose the full block containing head
        for r in range(len(tail) + 1):
            for extra in itertools.combinations(tail, r):
                block = (head,) + extra
                remaining = [e for e in tail if e not in extra]
                for sub in qsubpartitions(remaining):
                    yield (block,) + sub

    out = set()
    for qblocks in qsubpartitions(quantum):
        for attach in itertools.product(csubsets, repeat=len(qblocks)):
            blocks = [tuple(sorted(q + a)) for q, a in zip(qblocks, attach)]
            out.add(canonical_psp(blocks))
    return tuple(sorted(out, key=lambda p: (len(p), p)))


def refines(p: Psp, q: Psp) -> bool:
    """p precedes q when every block of p lies inside some block of q."""
    return all(any(set(s) <= set(t) for t in q) for s in p)


def psp_count(c: int, k: int) -> int:
    """The number of pseudosubpartitions of [c] (+) [k], the empty one included.

    Without enumerating: the last of n quantum sites is unused or shares a
    block with r of the other n - 1, and each block takes any subset of the
    classical coordinates.
    """
    counts = [1]
    for n in range(1, k + 1):
        shared = sum(math.comb(n - 1, r) * counts[n - 1 - r] for r in range(n))
        counts.append(counts[-1] + 2**c * shared)
    return counts[k]


def check_eps(eps_total: float, c: int, k: int) -> None:
    """Refuse an eps_total whose share per non-empty pseudosubpartition lies outside [0, 1).

    optimal_splitting_tests solves each split at eps_total / (psp_count(c, k) - 1),
    so this is the closed form of the budget each solve receives.
    """
    splits = psp_count(c, k) - 1
    share = eps_total / splits
    if not 0 <= share < 1:
        raise ValueError(
            f"eps_total {eps_total} / splits {splits} = share {share} per split, outside [0, 1)"
        )


def widest_array(c: int, k: int, dim_h: int, dim_l: int) -> int:
    """Entries of the widest array intersection_lemma builds, from the closed forms.

    With P = psp_count(c, k), build_construction stacks the tilted images of
    (2|H|)^k columns at most per non-empty pseudosubpartition on the P
    (2|H|)^k rows of the tilted layout.  The box-local arrays of (2|H|)^k
    columns fill the box of (2|H| (1 + 2^(c+k-1)))^k rows.
    marginal_block_state stacks |L|^|S-bar| label copies of a block S's
    marginal factor, with |H|^k columns per box row of the traced sites, on
    a union box whose s kept sites reach 2|H| (1 + 2^(|S|-1) (1 +
    |L|)^|S-bar|) rows each.
    """
    n = 2 * dim_h
    site = n * (1 + 2 ** (c + k - 1))
    p = psp_count(c, k)
    widest = max(p * (p - 1) * n ** (2 * k), site**k * n**k)
    for kept_c in range(c + 1):
        for s in range(1, k + 1):
            out = c + k - kept_c - s
            if out:
                union = (n * (1 + 2 ** (kept_c + s - 1) * (1 + dim_l) ** out)) ** s
                widest = max(widest, union * dim_l**out * site ** (k - s) * dim_h**k)
    return widest


@dataclass(frozen=True)
class PsLattice:
    """All pseudosubpartitions of a set with the refinement partial order.

    linear_ext lists the non-empty elements in a deterministic topological
    order of the refinement relation (Kahn's algorithm, lexicographic
    tie-break), which fixes the direction indexing of the tilting matrix.
    """

    elements: tuple[int, ...]
    psps: tuple[Psp, ...]
    refine_matrix: np.ndarray
    linear_ext: tuple[Psp, ...]

    @classmethod
    @lru_cache(maxsize=None)
    def build(cls, elements) -> "PsLattice":
        """The lattice of the element set, built once per set (refine_matrix read-only)."""
        elements = tuple(sorted(elements))
        psps = enum_psps(elements)
        n = len(psps)
        mat = np.zeros((n, n), dtype=bool)
        for i, p in enumerate(psps):
            for j, q in enumerate(psps):
                mat[i, j] = refines(p, q)
        mat.flags.writeable = False
        nonempty = [p for p in psps if p]
        order = []
        pending = set(nonempty)
        below = {q: {p for p in nonempty if p != q and refines(p, q)} for q in nonempty}
        while pending:
            ready = sorted(p for p in pending if below[p] <= set(order))
            order.append(ready[0])
            pending.remove(ready[0])
        return cls(elements, psps, mat, tuple(order))


def enum_pslattice(c: int, k: int, T=None) -> PsLattice:
    """Lattice of pseudosubpartitions of T (default the whole set [c] (+) [k])."""
    if T is None:
        T = full_block(c, k)
    T = tuple(sorted(T))
    if not any(e > 0 for e in T):
        raise ValueError("T must contain at least one quantum site")
    return PsLattice.build(T)


@lru_cache(maxsize=None)
def layout_psps(elements: tuple[int, ...]) -> tuple[Psp, ...]:
    """The summands of the tilted layout: the empty pseudosubpartition, then the linear extension."""
    return ((),) + PsLattice.build(elements).linear_ext


def normalization(S, delta: float) -> float:
    """N(S, delta) = 1 + sum over non-empty pseudosubpartitions of S of delta^(2l).

    Equals 1 when S has no quantum site (only the empty pseudosubpartition).
    """
    return _normalization(tuple(sorted(S)), float(delta))


@lru_cache(maxsize=None)
def _normalization(S: tuple[int, ...], delta: float) -> float:
    if not any(e > 0 for e in S):
        return 1.0
    return 1.0 + sum(delta ** (2 * len(p)) for p in enum_psps(S) if p)


def build_tilting_matrix(lattice: PsLattice, delta: float) -> tilting.TiltingMatrix:
    """Tilt weights between pseudosubpartition directions in linear-extension order.

    Entry (p, q) is delta^(2 l_p) / prod_i N(Q_i, delta) when p refines q.
    Validation failure here signals a lattice-order bug.  Built and
    validated once per (linear extension, delta); alpha is read-only.
    """
    return _tilting_matrix(lattice.linear_ext, float(delta))


@lru_cache(maxsize=None)
def _tilting_matrix(order: tuple[Psp, ...], delta: float) -> tilting.TiltingMatrix:
    n = len(order)
    a = np.zeros((n, n))
    for j, q in enumerate(order):
        denom = float(np.prod([normalization(b, delta) for b in q]))
        for i, p in enumerate(order):
            if refines(p, q):
                a[i, j] = delta ** (2 * len(p)) / denom
    matrix = tilting.TiltingMatrix(a)
    matrix.alpha.flags.writeable = False
    return matrix


def place(rows: np.ndarray, size: int, local: np.ndarray) -> np.ndarray:
    """An array of size rows, zero but for local's rows at the given rows."""
    out = np.zeros((size,) + local.shape[1:], dtype=local.dtype)
    out[rows] = local
    return out


@dataclass(frozen=True, eq=False)
class Box:
    """A product of per-site row sets of A''_sites, the support of box-local arrays.

    rows[j] lists, ascending, the rows of A''_(sites[j]) (dimension dims[j])
    inside the box.  A box-local array runs over the product of these rows
    row-major; its dense form is zeros plus one index assignment.
    """

    sites: tuple[int, ...]
    dims: tuple[int, ...]
    rows: tuple[np.ndarray, ...]

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Box)
            and (self.sites, self.dims) == (other.sites, other.dims)
            and all(np.array_equal(a, b) for a, b in zip(self.rows, other.rows))
        )

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.rows)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    @property
    def flat(self) -> np.ndarray:
        """The box's rows of A''_sites as flat indices, in box-local order."""
        return np.ravel_multi_index(np.ix_(*self.rows), self.dims).ravel()

    def index(self, site_rows) -> np.ndarray:
        """Box-local flat positions of the product of per-site rows of A''."""
        local = []
        for r, x in zip(self.rows, site_rows):
            pos = np.minimum(np.searchsorted(r, x), len(r) - 1)
            if not np.array_equal(r[pos], x):
                raise ValueError("rows outside the box")
            local.append(pos)
        return np.ravel_multi_index(np.ix_(*local), self.shape).ravel()

    def restrict(self, sites) -> "Box":
        pick = [self.sites.index(s) for s in sorted(sites)]
        return Box(
            tuple(self.sites[j] for j in pick),
            tuple(self.dims[j] for j in pick),
            tuple(self.rows[j] for j in pick),
        )

    def union(self, other: "Box") -> "Box":
        return Box(self.sites, self.dims, tuple(map(np.union1d, self.rows, other.rows)))

    def expand(self, local: np.ndarray) -> np.ndarray:
        """Dense rows of A''_sites of a box-local array (zero outside the box)."""
        return place(self.flat, math.prod(self.dims), local)


@dataclass(frozen=True)
class AugmentedSpace:
    """Index bookkeeping for the per-site augmented spaces A''_i.

    Per-site summands are ordered base first, then blocks sorted
    lexicographically; within a summand the coordinates run row-major as
    (H x C^2) slow, ancilla labels fast.
    """

    c: int
    k: int
    dim_h: int
    dim_l: int
    site_labels: dict[int, tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # checked before the labels are enumerated, which costs k 2^(c+k) tuples
        check_space(self.c, self.k, self.dim_h, self.dim_l)
        elements = full_block(self.c, self.k)
        labels = {}
        for i in quantum_sites(self.k):
            blocks = sorted(
                tuple(sorted(s))
                for r in range(1, len(elements) + 1)
                for s in itertools.combinations(elements, r)
                if i in s
            )
            labels[i] = (None,) + tuple(blocks)
        object.__setattr__(self, "site_labels", labels)

    @property
    def base_dim(self) -> int:
        return 2 * self.dim_h

    def summand_dim(self, label) -> int:
        if label is None:
            return self.base_dim
        return self.base_dim * self.dim_l ** len(label)

    def site_dim(self, i: int) -> int:
        return sum(self.summand_dim(lab) for lab in self.site_labels[i])

    def site_offset(self, i: int, label) -> int:
        off = 0
        for lab in self.site_labels[i]:
            if lab == label:
                return off
            off += self.summand_dim(lab)
        raise KeyError(label)

    def site_rows(self, i: int, label, l_assign: dict[int, int] | None = None) -> np.ndarray:
        """Row of A''_i that each coordinate of H x C^2 lands on in the labelled summand.

        For a block label the ancilla registers hold the basis labels
        l_assign[e], e in the block: base coordinate h goes to
        offset + h * L^|label| + idx.
        """
        registers = label or ()
        idx = 0
        for e in registers:
            idx = idx * self.dim_l + int(l_assign[e])
        stride = self.dim_l ** len(registers)
        return self.site_offset(i, label) + np.arange(self.base_dim) * stride + idx

    def box(self, sites, l_assign: dict[int, int]) -> Box:
        """The rows of A''_sites that site_rows reaches under l_assign.

        l_assign must label every element.  Per site: every summand, base
        first, at the rows its labels select; summands run in offset order, so
        the rows come out ascending.  Hence coordinate h of a site's j-th
        summand sits at box-local position j 2|H| + h whatever the labels:
        box-local arrays are label-free, and the labels pick only the rows.
        Built once per (sites, labels), with read-only rows.
        """
        full = full_block(self.c, self.k)
        if not set(full) <= set(l_assign):
            raise ValueError("a box needs a label for every element")
        return _box(self, tuple(sorted(sites)), tuple(int(l_assign[e]) for e in full))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _box(space: AugmentedSpace, sites: tuple[int, ...], labels: tuple[int, ...]) -> Box:
    """AugmentedSpace.box under the labels of full_block, in order."""
    l_assign = dict(zip(full_block(space.c, space.k), labels))
    rows = tuple(
        _frozen(np.concatenate([space.site_rows(s, label, l_assign) for label in space.site_labels[s]]))
        for s in sites
    )
    return Box(sites, tuple(space.site_dim(s) for s in sites), rows)


@lru_cache(maxsize=None)
def tilt_rows(space: AugmentedSpace, sites: tuple[int, ...], psps: tuple[Psp, ...]) -> np.ndarray:
    """The box-local row of each row of the tilted layout over psps, on the sites' box (read-only).

    Row (j, h) of TiltedLayout((2|H|)^|sites|, len(psps) - 1) is coordinate
    h of (H x C^2)^(x sites) in the summand of W = psps[j]: each site goes to
    the summand of W's block through it, to the base summand when W leaves it
    uncovered.  By the box's position rule (AugmentedSpace.box) the map is
    label-free, and it is injective: distinct W send some site to distinct
    summands.
    """
    n = space.base_dim
    shape = tuple(len(space.site_labels[s]) * n for s in sites)
    rows = []
    for w in psps:
        site_of = {e: b for b in w for e in b if e > 0}
        pos = [space.site_labels[s].index(site_of.get(s)) * n + np.arange(n) for s in sites]
        rows.append(np.ravel_multi_index(np.ix_(*pos), shape).ravel())
    return _frozen(np.concatenate(rows))


def psp_local(space: AugmentedSpace, sites, psp: Psp, delta: float) -> np.ndarray:
    """Isometry T_(S_1..S_l),delta from (H x C^2)^(x sites) into the sites' box, box-local.

    On the tilted layout over the pseudosubpartitions of the sites (and
    every classical coordinate) it is an amplitude column: each W refining
    the given pseudosubpartition carries delta^|W| / sqrt(prod_i N(S_i,
    delta)) on its summand, every other W carries 0.  The empty W is the
    plain embedding into the base summands.  This is the tilt of the given
    pseudosubpartition's column of build_tilting_matrix, placed on the box
    through tilt_rows, so one array serves every label assignment.  One
    scatter places its nonzero entries, which tilt_entries keeps.
    """
    sites = tuple(sorted(sites))
    if not {e for b in psp for e in b if e > 0} <= set(sites):
        raise ValueError("pseudosubpartition covers sites outside the requested set")
    return _scatter(space, sites, tilt_entries(space, sites, tuple(psp), float(delta)), space.base_dim ** len(sites))


def _scatter(space: AugmentedSpace, sites: tuple[int, ...], entries, width: int) -> np.ndarray:
    """A box-local array on the sites' box with width columns, zero but for the (row, column, value) entries."""
    rows, cols, values = entries
    out = np.zeros((math.prod(len(space.site_labels[s]) * space.base_dim for s in sites), width), dtype=complex)
    out[rows, cols] = values
    return out


@lru_cache(maxsize=None)
def tilt_entries(
    space: AugmentedSpace, sites: tuple[int, ...], psp: Psp, delta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero entries of psp_local as (box-local row, column, value), read-only.

    Column h of (H x C^2)^(x sites) meets row (W, h) of the tilted layout,
    for each W that refines psp, with value delta^|W| / sqrt(prod_i N(S_i,
    delta)).
    """
    norm = float(np.prod([normalization(b, delta) for b in psp])) if psp else 1.0
    psps = layout_psps(classical_coords(space.c) + sites)
    refining = [j for j, w in enumerate(psps) if refines(w, psp)]
    m = space.base_dim ** len(sites)
    rows = tilt_rows(space, sites, psps).reshape(len(psps), m)[refining].ravel()
    # a complex quotient, as the Kronecker form (amps x identity) / sqrt(norm) computes it
    amps = np.array([delta ** len(psps[j]) for j in refining], dtype=complex) / np.sqrt(norm)
    return _frozen(rows), _frozen(np.tile(np.arange(m), len(refining))), _frozen(np.repeat(amps, m))


def global_embed(
    space: AugmentedSpace, l_assign: dict[int, int], delta: float
) -> np.ndarray:
    """The full smoothing isometry over all quantum sites and coordinates, dense on A''."""
    box = space.box(quantum_sites(space.k), l_assign)
    return box.expand(psp_local(space, box.sites, (full_block(space.c, space.k),), delta))


@lru_cache(maxsize=None)
def ancilla_rows(dim_h: int, n_sites: int) -> np.ndarray:
    """The rows of (H x C^2)^(x n) where every site's ancilla is |0>, in the order of H^(x n) (read-only).

    Per site h -> h|0> is row 2h of H x C^2, so the isometry (x)_sites
    (h -> h|0>) sends basis vector j of H^(x n) to row ancilla_rows[j].
    """
    rows = np.zeros(1, dtype=np.intp)
    for _ in range(n_sites):
        rows = (rows[:, None] * (2 * dim_h) + np.arange(0, 2 * dim_h, 2)).ravel()
    return _frozen(rows)


@lru_cache(maxsize=None)
def ancilla_entries(
    space: AugmentedSpace, sites: tuple[int, ...], psp: Psp, delta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries of tilt_entries on the ancilla columns, as (box-local row, column of H^(x sites), value), read-only.

    Column ancilla_rows[j] of psp_local becomes column j; the entries on
    the other columns are dropped.
    """
    rows, cols, values = tilt_entries(space, sites, psp, delta)
    col_of = np.full(space.base_dim ** len(sites), -1)
    col_of[ancilla_rows(space.dim_h, len(sites))] = np.arange(space.dim_h ** len(sites))
    keep = col_of[cols] >= 0
    return _frozen(rows[keep]), _frozen(col_of[cols[keep]]), _frozen(values[keep])


def embed_with_ancilla(rho: np.ndarray, n_sites: int, dim_h: int) -> np.ndarray:
    """rho on H^(x n) tensored with |0><0| per site, in per-site (h, b) coordinates."""
    rows = ancilla_rows(dim_h, n_sites)
    out = np.zeros(((2 * dim_h) ** n_sites,) * 2, dtype=complex)
    out[np.ix_(rows, rows)] = rho
    return out


def dilate_to_sites(pi: np.ndarray, n_sites: int, dim_h: int) -> np.ndarray:
    """Gelfand-Naimark dilation of a POVM element on H^(x n) to (H x C^2)^(x n).

    The ancilla qubit of the last site absorbs the rejected weight, so
    Tr[Pi' (A x |00..0><00..0|)] = Tr[pi A] exactly with per-site ancillas:
    the dilation on H^(x n) x C^2 lands on the rows whose other sites hold |0>.
    One per matrix of a (..., d, d) stack.
    """
    n = 2 * dim_h
    frame = (ancilla_rows(dim_h, n_sites - 1)[:, None] * n + np.arange(n)).ravel()
    out = np.zeros(np.shape(pi)[:-2] + (n**n_sites,) * 2, dtype=complex)
    out[..., frame[:, None], frame] = hyptest.dilate_povm(pi)
    return out


@dataclass
class LowRankState:
    """PSD operator factor @ core @ factor† kept in factored form.

    With a box, local holds the factor's rows inside the box (all its other
    rows are zero) and factor is the dense expansion; without one, local is
    the factor itself.  Traces, spectra and partial traces run on local, so
    the big augmented spaces are never materialized.  Two boxed states meet
    only on the same box.  The columns local core^(1/2) and the spectrum
    are computed once; root, the core-sized factor core^(1/2) (sqrt_factor),
    may be given by a caller that shares it between states with one core.
    """

    local: np.ndarray
    core: np.ndarray
    box: Box | None = None
    root: np.ndarray | None = field(default=None, repr=False, compare=False)
    _cols: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _spectrum: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def of_factor(cls, cols: np.ndarray, box: Box | None = None) -> "LowRankState":
        """The state cols cols† (identity core)."""
        state = cls(cols, np.eye(cols.shape[1]), box)
        state._cols = cols
        return state

    @property
    def factor(self) -> np.ndarray:
        return self.local if self.box is None else self.box.expand(self.local)

    def dense(self) -> np.ndarray:
        return qla.hermitian_part(self.factor @ self.core @ self.factor.conj().T)

    def trace(self) -> float:
        """||local core^(1/2)||_F^2, with no Gram matrix of local."""
        cols = self.core_sqrt_cols()
        return float(np.vdot(cols, cols).real)

    def core_sqrt_cols(self, rows=None) -> np.ndarray:
        """local core^(1/2), computed once; given rows, only those rows of it.

        While the full columns are not cached, the rows are cut from local
        before the product and only the root core^(1/2) is cached.
        """
        if self._cols is None:
            if self.root is None:
                self.root = sqrt_factor(self.core)
            if rows is not None:
                return self.local[rows] @ self.root
            self._cols = self.local @ self.root
        return self._cols if rows is None else self._cols[rows]

    def eigenvalues(self) -> np.ndarray:
        """The spectrum of the Gram matrix F†F of the factor F = local core^(1/2), read-only."""
        if self._spectrum is None:
            cols = self.core_sqrt_cols()
            self._spectrum = np.linalg.eigvalsh(cols.conj().T @ cols)
            self._spectrum.flags.writeable = False
        return self._spectrum

    def lowest_eigenvalue(self) -> float:
        """Smallest eigenvalue of the dense operator F F†.

        On N rows F F† has the eigenvalues of F†F plus N - width zeros, so
        a factor narrower than the dense space adds 0 to the spectrum.
        """
        low = float(self.eigenvalues()[0])
        rows = self.local.shape[0] if self.box is None else int(np.prod(self.box.dims))
        return min(low, 0.0) if rows > self.core.shape[0] else low

    def marginal(self, keep_sites) -> tuple[Box, np.ndarray]:
        """Partial trace onto keep_sites as the factor m of m m†, box-local on the kept sites."""
        sub = self.box.restrict(keep_sites)
        keep = [self.box.sites.index(s) for s in sub.sites]
        # rho = C C†: put the kept sites first, then the traced sites and the
        # columns of C together index the columns of m
        t = self.core_sqrt_cols().reshape(self.box.shape + (-1,))
        return sub, np.moveaxis(t, keep, range(len(keep))).reshape(sub.size, -1)


def sqrt_factor(core: np.ndarray) -> np.ndarray:
    """core^(1/2) as v sqrt(w) for the eigenpairs (w, v) of core's Hermitian part, w clipped at 0 (read-only)."""
    w, v = np.linalg.eigh(qla.hermitian_part(core))
    return _frozen(v * np.sqrt(np.maximum(w, 0.0)))


def povm_expectation(b_factor: np.ndarray, state: LowRankState) -> float:
    """Tr[(B B†) rho] for a factored PSD POVM element and a factored state.

    b_factor runs over the rows of state.local.
    """
    cols = state.core_sqrt_cols()
    return float(np.linalg.norm(b_factor.conj().T @ cols) ** 2)


def joint_spectrum(terms) -> np.ndarray:
    """Eigenvalues of sum_i w_i rho_i for (w_i, rho_i) pairs of factored states on one box.

    The columns F_i of each state are split, by block Gram-Schmidt, into
    their coordinates on the orthonormal blocks Q_j of the states before it
    and a thin QR factorization Q_i R_i of the remainder.  On the basis
    [Q_1 Q_2 ...] the sum is a small matrix whose eigenvalues, plus zeros,
    are those of the dense operator.  The columns are never stacked, so no
    array is wider than one state's columns.
    """
    if any(st.box != terms[0][1].box for _, st in terms):
        raise ValueError("states on different boxes")
    qs, coords = [], []
    for _, st in terms:
        f = st.core_sqrt_cols()
        p = [np.zeros((q.shape[1], f.shape[1]), dtype=complex) for q in qs]
        # twice: one pass leaves f off the span of the Q_j only to ||f|| eps
        for _ in range(2):
            for q, p_j in zip(qs, p):
                d = q.conj().T @ f
                f = f - q @ d
                p_j += d
        q, r = np.linalg.qr(f)
        qs.append(q)
        coords.append(np.vstack(p + [r]))
    width = sum(q.shape[1] for q in qs)
    small = np.zeros((width, width), dtype=complex)
    for (w, _), x in zip(terms, coords):
        small[: len(x), : len(x)] += w * (x @ x.conj().T)
    return np.linalg.eigvalsh(qla.hermitian_part(small))


def l1_distance_factored(a: LowRankState, b: LowRankState) -> float:
    """Trace distance between two factored operators (on one box) via their joint column space."""
    return float(np.sum(np.abs(joint_spectrum([(1.0, a), (-1.0, b)]))))


@dataclass
class TypicalityInstance:
    """Inputs of one smoothing-and-augmentation construction.

    rhos and p_x map the same classical words x, tuples of c symbols (()
    when c = 0), to a state on H^(x k) and a weight >= 0, the weights
    summing to 1; any other words are refused on construction.  eps_total
    is split uniformly over the non-empty pseudosubpartitions, and each
    share must lie in [0, 1) (check_eps).  The augmented space is built
    (and its size checked) on construction, the lattice on first use.
    Split states, the core and root of each distinct embedded state
    (state_core) and split factors are computed once per instance and
    shared (read-only).  A block's split factor is computed once per
    conditioning (conditional), for every word that agrees on the block's
    classical coordinates; intersection_lemma forgets it once every word
    of the last split that contains the block is done.
    """

    c: int
    k: int
    dim_h: int
    dim_l: int
    delta: float
    rhos: dict
    p_x: dict
    eps_total: float = 0.1
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def memo(self, key, make):
        """make(), computed on the first call with this key and shared after."""
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def forget(self, stale) -> None:
        """Drop the memo entries whose keys satisfy stale(key)."""
        for key in [key for key in self._memo if stale(key)]:
            del self._memo[key]

    def __post_init__(self):
        if set(self.rhos) != set(self.p_x):
            raise ValueError("rhos and p_x must have the same words")
        for x, p in self.p_x.items():
            if not (isinstance(x, tuple) and len(x) == self.c):
                raise ValueError(f"word {x!r} is not a tuple of c = {self.c} symbols")
            if not p >= 0:
                raise ValueError(f"word {x!r} has weight {p}, not >= 0")
        total = sum(self.p_x.values())
        if abs(total - 1.0) > 1e-10:
            raise ValueError("p_x must sum to 1")
        for x, rho in self.rhos.items():
            if rho.shape != (self.dim_h**self.k,) * 2:
                raise ValueError(f"state for {x} has wrong shape {rho.shape}")
        self.space  # refuses an oversized space before any solve
        check_eps(self.eps_total, self.c, self.k)

    @cached_property
    def space(self) -> AugmentedSpace:
        return AugmentedSpace(self.c, self.k, self.dim_h, self.dim_l)

    @cached_property
    def lattice(self) -> PsLattice:
        return enum_pslattice(self.c, self.k)

    def words(self):
        return sorted(self.rhos)

    def conditional(self, block: Block, x) -> dict:
        """The words that agree with x on the block's classical coordinates, with their conditional weights.

        A block's averaged marginal reads x only through these: {x: 1.0} when
        the block keeps every classical coordinate, else the conditional of
        p_x given x's symbols there.
        """
        kept = [i for i, e in enumerate(classical_coords(self.c)) if e in block]
        if len(kept) == self.c:
            return {x: 1.0}
        agree = {y: p for y, p in self.p_x.items() if all(y[i] == x[i] for i in kept)}
        total = sum(agree.values())
        if total <= 0:
            raise ValueError("kept classical word has zero probability")
        return {y: p / total for y, p in agree.items()}

    def quantum_marginal(self, x, sites) -> np.ndarray:
        sites = sorted(sites)
        return qla.partial_trace(
            self.rhos[x], (self.dim_h,) * self.k, keep=[s - 1 for s in sites]
        )

    def averaged_marginal(self, block: Block, x) -> np.ndarray:
        """Classically averaged quantum marginal for one block of a split of word x."""
        sites = [e for e in block if e > 0]
        out = 0.0
        for y, w in self.conditional(block, x).items():
            out = out + w * self.quantum_marginal(y, sites)
        return qla.hermitian_part(out)

    def split_state(self, x, psp: Psp) -> np.ndarray:
        """Product of averaged block marginals (and the fill state) on H^(x k), read-only."""
        return self.memo(("split_state", x, psp), lambda: self._split_state(x, psp))

    def _split_state(self, x, psp: Psp) -> np.ndarray:
        covered = [e for b in psp for e in b if e > 0]
        t_sites = [s for s in quantum_sites(self.k) if s not in covered]
        factors = []
        for block in psp:
            factors.append((tuple(e for e in block if e > 0), self.averaged_marginal(block, x)))
        if t_sites:
            factors.append((tuple(t_sites), self.quantum_marginal(x, t_sites)))
        n = self.dim_h**self.k
        out = apply_site_factors(
            quantum_sites(self.k), (self.dim_h,) * self.k, factors, np.eye(n, dtype=complex)
        )
        out.flags.writeable = False
        return out


def apply_site_factors(sites, dims, factors, cols: np.ndarray) -> np.ndarray:
    """Apply a tensor product of per-site-group operators to stacked columns.

    The columns run row-major over the given sites with per-site sizes dims;
    factors lists (site group, operator on the group's sites in sorted order).
    """
    n = len(dims)
    r = cols.shape[1]
    t = cols.reshape(tuple(dims) + (r,))
    for group, mat in factors:
        axes = [sites.index(s) for s in sorted(group)]
        rest = [ax for ax in range(n) if ax not in axes] + [n]
        perm = axes + rest
        tp = np.transpose(t, perm)
        merged = tp.reshape(int(np.prod([dims[ax] for ax in axes])), -1)
        merged = np.asarray(mat, dtype=complex) @ merged
        tp = merged.reshape([dims[ax] for ax in axes] + [dims[ax2] for ax2 in rest[:-1]] + [r])
        t = np.transpose(tp, np.argsort(perm))
    return t.reshape(-1, r)


@dataclass
class SplitTest:
    psp: Psp
    eps: float
    dh_bits: float
    reject_mass: float
    y_basis: np.ndarray


def optimal_splitting_tests(inst: TypicalityInstance) -> dict:
    """Per-word optimal tests for every pseudosubpartition, dilated to site-local projectors.

    Each distinct split state takes one cq-level solve: the test of
    sum_x p(x) |x><x| (x) rho_x against the same sum over the split states
    at a split's share of eps_total (c = 0 is the one-word case).  A
    pseudosubpartition fills its uncovered sites with their joint marginal,
    so several can give the same split states; the splits whose split
    states are equal byte for byte in every word share the solve, the
    dilation and the rejection basis (the bytes, not the structure, decide:
    averaged_marginal takes the Hermitian part and quantum_marginal does
    not, so structurally equal split states may differ in their last bits).
    Word x gets the test's block T_x,
    optimal for D_H(rho_x || split_x) at its own budget eps_x = 1 - Tr[T_x
    rho_x], and T_x is dilated to a projector on (H x C^2)^(x k); y_basis
    spans the orthogonal complement of its support, read-only and shared by
    the SplitTests of the splits with those split states.  Returns
    {x: {psp: SplitTest}}.
    """
    words = inst.words()
    eps = inst.eps_total / len(inst.lattice.linear_ext)
    out: dict = {x: {} for x in words}
    solved: dict = {}
    for psp in inst.lattice.linear_ext:
        splits = [inst.split_state(x, psp) for x in words]
        key = tuple(split.tobytes() for split in splits)
        if key not in solved:
            solved[key] = _solve_split(inst, splits, eps)
        for x, parts in zip(words, solved[key]):
            out[x][psp] = SplitTest(psp, *parts)
    return out


def _solve_split(inst: TypicalityInstance, splits: list, eps: float) -> list:
    """(eps_x, dh_bits, reject_mass, y_basis) per word from one cq-level solve against the split states.

    All words' blocks are dilated and their rejection bases taken as one stack.
    """
    words = inst.words()
    _, blocks = hyptest.cq_optimal_test(
        [inst.p_x[x] for x in words], [inst.rhos[x] for x in words], splits, eps
    )
    y_bases = _frozen(tilting.rejection_basis(dilate_to_sites(np.stack(blocks), inst.k, inst.dim_h)))
    out = []
    for x, t, split, y_basis in zip(words, blocks, splits, y_bases):
        # a block that accepts all of rho_x overshoots 1 by rounding
        eps_x = max(1.0 - float(np.trace(t @ inst.rhos[x]).real), 0.0)
        reject = max(float(np.trace(t @ split).real), 0.0)
        dh_bits = math.inf if reject == 0.0 else float(-np.log2(reject))
        out.append((eps_x, dh_bits, reject, y_basis))
    return out


@dataclass
class BlockConstruction:
    """The smoothed state and intersection POVM element for one (x, l) block.

    rho' = v rho_hat v† with rho_hat = rho_x (read-only) and v = T_full
    (x)_sites |0>, the ancilla embedding of the full block.  v and b (the
    factor of Pi') are box-local on box, the rows the block's embeddings
    reach; v_global and b_factor are their dense forms on A''.  q_tilted
    and b_tilted are q and b on the tilted layout, whose rows the map rows
    sends into the box.  All of these are the same for every l; only the
    box depends on it, and relabeled swaps it.
    """

    inst: TypicalityInstance
    x: tuple
    tests: dict
    box: Box
    rows: np.ndarray
    v: np.ndarray
    rho_hat: np.ndarray
    q_tilted: np.ndarray
    b_tilted: np.ndarray
    b: np.ndarray

    @property
    def v_global(self) -> np.ndarray:
        return self.box.expand(self.v)

    @property
    def b_factor(self) -> np.ndarray:
        return self.box.expand(self.b)

    @property
    def rho_prime(self) -> LowRankState:
        core, root = state_core(self.inst, self.rho_hat)
        return LowRankState(self.v, core, self.box, root)

    @property
    def embedded_original(self) -> LowRankState:
        return _embedded(self.inst, (), self.inst.rhos[self.x], self.box)

    @cached_property
    def l1_distance(self) -> float:
        """||rho' - rho x |0><0|||_1 on this block, read by claim3_l1_distance and lemma_claim2_distance."""
        return l1_distance_factored(self.rho_prime, self.embedded_original)

    def _expectation(self, factor: np.ndarray, state: LowRankState) -> float:
        """Tr[(F F†) rho] for a factor F on the tilted layout, from the state's rows there."""
        if state.box != self.box:
            raise ValueError("state on another box than the construction")
        return float(np.linalg.norm(factor.conj().T @ state.core_sqrt_cols(self.rows)) ** 2)

    def relabeled(self, l_assign: dict) -> "BlockConstruction":
        """The (x, l_assign) block: the same arrays on that block's box."""
        return replace(self, box=self.inst.space.box(self.box.sites, l_assign))

    def pi_prime_expectation(self, state: LowRankState) -> float:
        return self._expectation(self.b_tilted, state)

    def pi_prime_trace_norm(self) -> float:
        return float(np.trace(self.b_tilted.conj().T @ self.b_tilted).real)

    def y_projector_expectation(self, state: LowRankState) -> float:
        return self._expectation(self.q_tilted, state)


def zero_labels(space: AugmentedSpace) -> dict:
    return dict.fromkeys(full_block(space.c, space.k), 0)


def is_full_block(inst: TypicalityInstance, psp: Psp) -> bool:
    """True for the single-block split whose block is the whole index set."""
    return len(psp) == 1 and set(psp[0]) == set(full_block(inst.c, inst.k))


def build_construction(
    inst: TypicalityInstance, x, tests: dict | None = None
) -> BlockConstruction:
    """Assemble rho'_{x,l,delta} and Pi'_{x,l,delta} in factored form on the zero-label block.

    The construction holds no labels: its arrays are label-free, and its
    box is the zero-label box.  Every other label block is the same arrays
    on another box (relabeled).
    """
    space = inst.space
    if tests is None:
        tests = optimal_splitting_tests(inst)[x]
    rho_prime = build_rho_prime(inst, x)
    box = rho_prime.box
    # the tilted images of the rejection spaces, the A-tilted span that
    # claim4_prop6_chain bounds, on the layout over the pseudosubpartitions
    psps = ((),) + inst.lattice.linear_ext
    layout = tilting.TiltedLayout(space.base_dim**inst.k, len(psps) - 1)
    a = build_tilting_matrix(inst.lattice, inst.delta).alpha
    q = tilting.tilted_basis([tests[p].y_basis for p in psps[1:]], a, layout)
    b = tilting.complement_factor(tilting.tilt_isometry([], layout), q)
    rows = tilt_rows(space, box.sites, psps)
    return BlockConstruction(
        inst=inst,
        x=x,
        tests=tests,
        box=box,
        rows=rows,
        v=rho_prime.local,
        rho_hat=rho_prime.core,
        q_tilted=q,
        b_tilted=b,
        b=place(rows, box.size, b),
    )


def _embedded(inst: TypicalityInstance, psp: Psp, rho: np.ndarray, box: Box) -> LowRankState:
    """T_psp (rho x |0><0|) T_psp† for a state rho on H^(x box sites) in factored form, on box.

    The factor is the ancilla embedding T_psp (x)_sites |0>, dim rho columns
    wide, and the core rho itself (state_core).
    """
    core, root = state_core(inst, rho)
    return LowRankState(_ancilla_embedding(inst, box.sites, psp), core, box, root)


def state_core(inst: TypicalityInstance, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A read-only copy of rho and its sqrt_factor, computed once per instance for equal bytes of rho.

    rho_x serves rho', the embedded original and every block marginal that
    keeps the classical coordinates; splits with equal split states share
    one root.  Only arrays of rho's size are kept, never the product with
    an embedding.
    """
    key = ("state_core", rho.dtype.str, rho.tobytes())
    return inst.memo(key, lambda: (_frozen(rho.copy()), sqrt_factor(rho)))


def build_rho_prime(inst: TypicalityInstance, x) -> LowRankState:
    """The smoothed state rho'_{x,0,delta} of the zero-label block as a factored density matrix, box-local."""
    box = inst.space.box(quantum_sites(inst.k), zero_labels(inst.space))
    return _embedded(inst, (full_block(inst.c, inst.k),), inst.rhos[x], box)


def split_embedded(inst: TypicalityInstance, x, psp: Psp, box: Box) -> LowRankState:
    """The embedded split state T_psp (rho_split x |0><0|) T_psp† in factored form, on box."""
    return _embedded(inst, psp, inst.split_state(x, psp), box)


def factored_partial_trace(
    space: AugmentedSpace, state: LowRankState, keep_sites
) -> np.ndarray:
    """Dense marginal on A''_keep_sites of a box-local factored state of the space."""
    sub, m = state.marginal(keep_sites)
    return LowRankState.of_factor(m, sub).dense()


def _ancilla_embedding(inst: TypicalityInstance, sites, psp: Psp) -> np.ndarray:
    """T_psp (x)_sites |0>, box-local: T (rho x |0><0|) T† with the ancilla moved into the factor, core rho.

    The ancilla columns of psp_local, scattered on their own from ancilla_entries.
    """
    sites = tuple(sorted(sites))
    entries = ancilla_entries(inst.space, sites, tuple(psp), float(inst.delta))
    return _scatter(inst.space, sites, entries, inst.dim_h ** len(sites))


def marginal_block_state(inst: TypicalityInstance, block: Block, x) -> tuple[Box, np.ndarray]:
    """The averaged marginal (rho')_{x_S, 0, delta} on A''_{S cap [k]} as a factor C.

    The word x enters only through inst.conditional: the classical
    coordinates outside the block are averaged with their weights given
    x's symbols on the block's, ancilla labels outside the block
    uniformly, and the quantum sites outside the block are traced out; the
    block's own labels are 0, as every other block label is a relabeling
    of the ancilla alphabet.
    The marginal is C C†, box-local on the union of the kept sites' boxes
    over the averaged labels, which it returns with C.  The smoothing is
    linear in the state, so the words are averaged first.  The embedding,
    and so the marginal's factor, is the same box-local array under every
    label assignment; each assignment places a copy on its own rows of the
    union, so a label outside the block that sits in the registers of two
    kept sites moves the rows of both together.  The copy is compressed to
    its rank before the copies are stacked, and the stack to the rank of
    the marginal (rank_factor): C has one column per eigenvalue of the
    marginal on its support.
    """
    sites = [e for e in block if e > 0]
    rho = sum(w * inst.rhos[y] for y, w in inst.conditional(block, x).items())
    box, full_box, copies = union_plan(inst.space, tuple(block))
    # one copy has dim rho columns per traced row before its rank cut
    _, m = _embedded(inst, (full_block(inst.c, inst.k),), rho, full_box).marginal(sites)
    m = rank_factor(m)
    stacked = np.hstack([place(rows, box.size, m) for rows in copies]) / np.sqrt(len(copies))
    # C C† = R† R for the QR factorization C† = Q R, at most one column per box row
    return box, rank_factor(np.linalg.qr(stacked.conj().T, mode="r").conj().T)


@lru_cache(maxsize=None)
def union_plan(space: AugmentedSpace, block: Block) -> tuple[Box, Box, tuple[np.ndarray, ...]]:
    """The shape data of marginal_block_state, built once per (space, block) (all read-only).

    The block's labels are 0, and the labels outside it run over every
    assignment in itertools.product order, the zero labels first.  Returns
    the union of the kept sites' boxes over those assignments, the
    zero-label box of every quantum site, and the rows of the union where
    each assignment's copy lands.
    """
    full = full_block(space.c, space.k)
    sbar = [e for e in full if e not in set(block)]
    sites = [e for e in block if e > 0]
    assigns = [
        {**zero_labels(space), **dict(zip(sbar, l_rest))}
        for l_rest in itertools.product(range(space.dim_l), repeat=len(sbar))
    ]
    boxes = [space.box(sites, a) for a in assigns]
    box = reduce(Box.union, boxes)
    for rows in box.rows:
        _frozen(rows)
    copies = tuple(_frozen(box.index(sub.rows)) for sub in boxes)
    return box, space.box(quantum_sites(space.k), assigns[0]), copies


def rank_factor(f: np.ndarray) -> np.ndarray:
    """A factor g with g g† = f f† cut to its support (qla.support_mask): one column per eigenvalue kept.

    Works on the smaller Gram matrix: f f† = U w U† gives g = U w^(1/2),
    f† f = V w V† gives g = f V.  Neither forms the right singular vectors
    of a wide f.
    """
    if f.shape[0] <= f.shape[1]:
        w, u = np.linalg.eigh(f @ f.conj().T)
        keep = qla.support_mask(w)
        return u[:, keep] * np.sqrt(w[keep])
    w, v = np.linalg.eigh(f.conj().T @ f)
    return f @ v[:, qla.support_mask(w)]


def _site_noncross_mask(space: AugmentedSpace, site: int, block: Block) -> np.ndarray:
    """Indicator over A''_site coordinates whose summand stays inside the block.

    A summand label crosses the block when its quantum part leaks outside;
    classical-only leaks stay on the non-crossing side (they feed the small
    Hermitian leak term, not the flat remainder).
    """
    inside = set(e for e in block if e > 0)
    mask = np.zeros(space.site_dim(site), dtype=bool)
    off = 0
    for label in space.site_labels[site]:
        d = space.summand_dim(label)
        quantum_part = set() if label is None else set(e for e in label if e > 0)
        if quantum_part <= inside:
            mask[off : off + d] = True
        off += d
    return mask


@lru_cache(maxsize=None)
def split_plan(space: AugmentedSpace, block: Block) -> tuple[np.ndarray, np.ndarray]:
    """The shape data of _split_factor, built once per (space, block) (read-only).

    On the union box of union_plan: the indicator of the rows whose
    summands stay inside the block (_site_noncross_mask per site), and the
    rows of the block's own zero-label box, where the zero-label copy lands.
    """
    box, _, copies = union_plan(space, block)
    inside = reduce(np.logical_and.outer, [
        _site_noncross_mask(space, s, block)[rows] for s, rows in zip(box.sites, box.rows)
    ]).ravel()
    return _frozen(inside), copies[0]


@dataclass
class SplitFactor:
    """One block's marginal and its terms as factored states on the marginal's box.

    rho = clean + crossing + their coherences; the leak term
    clean - lead_weight * lead is kept as its spectrum.
    """

    block: Block
    sites: tuple
    rho: LowRankState
    clean: LowRankState
    crossing: LowRankState
    coherence_norm: float
    lead_weight: float
    lead: LowRankState
    leak_spectrum: np.ndarray


def lead_weight(inst: TypicalityInstance, block: Block) -> float:
    """a_S = N(S) N(S-bar with the classical coordinates) / N(whole set), the weight of S's lead term."""
    return _lead_weight(inst.c, inst.k, tuple(block), float(inst.delta))


@lru_cache(maxsize=None)
def _lead_weight(c: int, k: int, block: Block, delta: float) -> float:
    full = set(full_block(c, k))
    sbar_with_c = tuple(sorted((full - set(block)) | set(classical_coords(c))))
    n_full = normalization(tuple(sorted(full)), delta)
    return normalization(block, delta) * normalization(sbar_with_c, delta) / n_full


@lru_cache(maxsize=None)
def split_weights(c: int, k: int, psp: Psp, delta: float) -> tuple[float, float]:
    """(alpha, alpha + beta) of a split: the product of its blocks' lead weights, and
    the product over its blocks of N(S with c) N(S-bar with c) / N(whole set)."""
    full = set(full_block(c, k))
    n_full = normalization(tuple(sorted(full)), delta)
    alpha = 1.0
    alpha_beta = 1.0
    for block in psp:
        sbar_with_c = tuple(sorted((full - set(block)) | set(classical_coords(c))))
        s_with_c = tuple(sorted(set(block) | set(classical_coords(c))))
        alpha *= _lead_weight(c, k, block, delta)
        alpha_beta *= normalization(s_with_c, delta) * normalization(sbar_with_c, delta) / n_full
    return alpha, alpha_beta


def split_factor(inst: TypicalityInstance, x, block: Block) -> SplitFactor:
    """The block's marginal and its terms for word x on the zero-label block, computed once per conditioning.

    _split_factor reads x only through inst.conditional, so the memo key is
    the block and the words conditional returns: every split that contains
    the block, in every word that agrees with x on the block's classical
    coordinates, shares one factor.
    """
    key = ("split_factor", block, tuple(inst.conditional(block, x)))
    return inst.memo(key, lambda: _split_factor(inst, x, block))


def _split_factor(inst: TypicalityInstance, x, block: Block) -> SplitFactor:
    sites = tuple(e for e in block if e > 0)
    box, c_i = marginal_block_state(inst, block, x)
    inside, own = split_plan(inst.space, tuple(block))
    clean = LowRankState.of_factor(c_i * inside[:, None], box)
    crossing = LowRankState.of_factor(c_i * ~inside[:, None], box)
    # rho - clean - crossing = C_p C_q† + C_q C_p† for the clean and crossing
    # rows C_p, C_q of C; the row sets are disjoint, so its norm is
    # ||C_p C_q†|| = ||R_p R_q†|| for the QR factorizations C_p = Q_p R_p
    r_p, r_q = (np.linalg.qr(c_i[rows], mode="r") for rows in (inside, ~inside))
    coh = float(np.linalg.norm(r_p @ r_q.conj().T, 2))
    own_box = inst.space.box(sites, zero_labels(inst.space))
    own_lead = _embedded(inst, (block,), inst.averaged_marginal(block, x), own_box)
    lead = replace(own_lead, local=place(own, box.size, own_lead.local), box=box)
    a_i = lead_weight(inst, block)
    leak = joint_spectrum([(1.0, clean), (-a_i, lead)])
    rho_i = LowRankState.of_factor(c_i, box)
    return SplitFactor(block, sites, rho_i, clean, crossing, coh, a_i, lead, leak)


@dataclass
class SplitDecomposition:
    psp: Psp
    alpha: float
    beta: float
    factors: list
    m_norm: float
    n_norm: float
    checks: list


def split_decompose(inst: TypicalityInstance, x, psp: Psp) -> SplitDecomposition:
    """Three-term decomposition of the split state on the zero-label block and its Claim-level checks.

    The flat remainder M is isolated by restricting each factor to the
    sectors whose summand labels leak quantum sites out of the factor's
    block (its support is exactly there, orthogonal to the rest); the leak
    term N then comes out by subtracting the tilted leading term.  Each
    block's factor comes from split_factor, shared with the other splits and
    words that agree on the block's classical coordinates.
    """
    checks: list = []
    params = {"psp": str(psp), "x": str(x)}
    alpha, alpha_beta = split_weights(inst.c, inst.k, tuple(psp), float(inst.delta))
    beta = alpha_beta - alpha

    covered_q = [e for b in psp for e in b if e > 0]
    t_sites = [s for s in quantum_sites(inst.k) if s not in covered_q]

    if is_full_block(inst, psp):
        # the single full block: the split state is rho_x itself, and T_full
        # is an isometry, so ||rho' - T_full (split x |0><0|) T_full†||_1 is
        # the trace distance on H^(x k)
        resid = qla.trace_norm_herm(inst.split_state(x, psp) - inst.rhos[x])
        checks.append(report.AuditCheck("split_identity_residual", resid, 0.0, IDENTITY_TOL, params))
        checks.append(report.AuditCheck("claim5_identity", resid, 0.0, IDENTITY_TOL, params))
        checks.append(report.AuditCheck("split_alpha_is_one", abs(alpha - 1.0), 0.0, 1e-12, params))
        checks.append(report.AuditCheck("split_beta_zero", abs(beta), 0.0, 1e-12, params))
        checks.append(report.AuditCheck("claim2_m_norm", 0.0, 1.0 / inst.dim_l, 0.0, params))
        checks.append(report.AuditCheck("claim2_n_norm", 0.0, 3.0 / np.sqrt(inst.dim_l), 0.0, params))
        return SplitDecomposition(psp, alpha, beta, [], 0.0, 0.0, checks)

    factors = [split_factor(inst, x, block) for block in psp]
    coords = classical_coords(inst.c)
    fill_norm = 1.0
    if t_sites:
        fill_norm = float(np.linalg.eigvalsh(inst.quantum_marginal(x, t_sites))[-1])

    coh_max = max(f.coherence_norm for f in factors)
    checks.append(report.AuditCheck("split_sector_coherence", coh_max, 0.0, IDENTITY_TOL, params))
    trace_prod = float(np.prod([f.clean.trace() for f in factors]))
    checks.append(
        report.AuditCheck(
            "split_alpha_beta_trace", abs(trace_prod - alpha_beta), 0.0, IDENTITY_TOL, params
        )
    )
    for f in factors:
        checks.append(
            report.AuditCheck(
                "split_factor_unit_trace", abs(f.rho.trace() - 1.0), 0.0, 1e-9, params
            )
        )
    m_min = min(f.crossing.lowest_eigenvalue() for f in factors)
    checks.append(report.AuditCheck("split_m_psd", -m_min, 0.0, 1e-10, params))

    # ||M'||_inf is exact: terms indexed by which factors sit in crossing
    # sectors have mutually orthogonal supports
    c_norms = [float(f.clean.eigenvalues()[-1]) for f in factors]
    m_norms = [float(f.crossing.eigenvalues()[-1]) for f in factors]
    m_prime_norm = max(_subset_terms(fill_norm, m_norms, c_norms))
    m_weight = 1.0 - alpha - beta
    m_norm = m_prime_norm / m_weight if m_weight > 1e-12 else 0.0
    m_trace = 1.0 - trace_prod
    checks.append(
        report.AuditCheck("split_m_trace", abs(m_trace - m_weight), 0.0, IDENTITY_TOL, params)
    )
    checks.append(
        report.AuditCheck("claim2_m_norm", m_norm, 1.0 / inst.dim_l, 1e-12, params)
    )

    # N' = sum over non-empty subsets of the leaking factors of leak terms
    # tensored with the leading terms; the exact norm when one factor leaks
    leak_norms = [float(np.max(np.abs(f.leak_spectrum))) for f in factors]
    lead_norms = [f.lead_weight * float(f.lead.eigenvalues()[-1]) for f in factors]
    leaks = [ln if ln > 1e-12 else 0.0 for ln in leak_norms]
    n_norm = sum(_subset_terms(fill_norm, leaks, lead_norms))
    n_trace = float(
        np.prod([f.lead_weight + np.sum(f.leak_spectrum) for f in factors])
    ) - alpha
    checks.append(report.AuditCheck("split_n_trace", abs(n_trace - beta), 0.0, IDENTITY_TOL, params))
    checks.append(
        report.AuditCheck("claim2_n_norm", n_norm, 3.0 / np.sqrt(inst.dim_l), 1e-12, params)
    )
    # beta vanishes when every block keeps the classical coordinates; a block
    # that keeps them leaks nothing, while the others average over x and leak
    keeps_c = [set(coords) <= set(f.block) for f in factors]
    if all(keeps_c):
        checks.append(report.AuditCheck("split_beta_zero", abs(beta), 0.0, 1e-12, params))
    if any(keeps_c):
        kept_leak = max(ln for ln, keep in zip(leak_norms, keeps_c) if keep)
        checks.append(report.AuditCheck("split_leak_vanishes", kept_leak, 0.0, IDENTITY_TOL, params))
    # roll-up of the identity/orthogonality family for the per-claim report
    identity_residual = max(
        c.lhs for c in checks if c.rhs == 0.0 and c.name.startswith("split_")
    )
    checks.append(
        report.AuditCheck("claim5_identity", identity_residual, 0.0, IDENTITY_TOL, params)
    )
    return SplitDecomposition(psp, alpha, beta, factors, m_norm, n_norm, checks)


def _subset_terms(fill: float, picked: list, unpicked: list) -> list:
    """fill times, per factor, picked[i] for i in S and unpicked[i] otherwise, over non-empty S."""
    return [
        math.prod([fill] + [p if sel else u for sel, p, u in zip(pick, picked, unpicked)])
        for pick in itertools.product([0, 1], repeat=len(picked))
        if any(pick)
    ]


def claim4_stated_floor(inst: TypicalityInstance, eps_x: float) -> float:
    """The completeness floor with the stated (astronomically weak) constant.

    The constant is a power of two, so it scales exactly; past the float
    range the floor is -sys.float_info.max, which lies above the true floor.
    """
    k, c = inst.k, inst.c
    try:
        return 1.0 - math.ldexp(inst.delta ** (-2 * k) * eps_x, 2 ** (c * k + 4) * (k + 1) ** k)
    except OverflowError:
        return -sys.float_info.max


def audit_construction(constr: BlockConstruction) -> list:
    """Numeric audit of the per-block claims of the smoothing construction."""
    inst = constr.inst
    k, c = inst.k, inst.c
    m = (2 * inst.dim_h) ** k
    params = {"x": str(constr.x), "delta": inst.delta, "k": k, "c": c, "L": inst.dim_l}
    checks = []

    rho_prime = constr.rho_prime
    emb = constr.embedded_original
    checks.append(
        report.AuditCheck("state_unit_trace", abs(rho_prime.trace() - 1.0), 0.0, 1e-10, params)
    )
    spec_in = np.sort(np.linalg.eigvalsh(constr.rho_hat))
    spec_out = np.sort(rho_prime.eigenvalues())
    checks.append(
        report.AuditCheck(
            "state_isometric_spectrum",
            float(np.max(np.abs(spec_out - spec_in))),
            0.0,
            1e-9,
            params,
        )
    )
    checks.append(
        report.AuditCheck("claim1_trace_norm", constr.pi_prime_trace_norm(), float(m), 1e-9, params)
    )
    checks.append(
        report.AuditCheck(
            "claim3_l1_distance",
            constr.l1_distance,
            2.0 ** ((k + c) / 2.0 + 1.0) * inst.delta,
            1e-9,
            params,
        )
    )

    # completeness through the noncommutative union bound, plus the tilted
    # overlap against the generalized tilting upper bound
    y_overlap = constr.y_projector_expectation(emb)
    actual = constr.pi_prime_expectation(emb)
    checks.append(
        report.AuditCheck("completeness_gao_chain", 1.0 - 4.0 * y_overlap, actual, 1e-9, params)
    )
    lattice = inst.lattice
    a_matrix = build_tilting_matrix(lattice, inst.delta)
    w, v = np.linalg.eigh(constr.rho_hat)
    bases = [constr.tests[psp].y_basis for psp in lattice.linear_ext]
    # splits with equal split states share one basis, so one norm; the
    # eigenvectors of rho_x meet each basis on its ancilla rows
    rows = ancilla_rows(inst.dim_h, k)
    distinct = {id(y): y[rows] for y in bases}
    bound = 0.0
    for i in range(len(w)):
        if w[i] <= 1e-14:
            continue
        h = v[:, i]
        norms = {key: float(np.linalg.norm(y.conj().T @ h) ** 2) for key, y in distinct.items()}
        eps_vec = np.array([norms[id(y)] for y in bases])
        _, hi = tilting.prop_a_tilted_bounds(eps_vec, a_matrix)
        bound += float(w[i]) * hi
    checks.append(report.AuditCheck("claim4_prop6_chain", y_overlap, bound, 1e-9, params))

    eps_x = sum(constr.tests[psp].eps for psp in lattice.linear_ext)
    stated = claim4_stated_floor(inst, eps_x)
    checks.append(
        report.AuditCheck(
            "claim4_stated_floor",
            stated,
            actual,
            1e-9,
            dict(params, eps_x_nonempty=eps_x, eps_x_including_empty=eps_x),
        )
    )

    for psp in lattice.linear_ext:
        g = split_embedded(inst, constr.x, psp, constr.box)
        checks.append(
            report.AuditCheck(
                "claim6_soundness",
                constr.pi_prime_expectation(g),
                constr.tests[psp].reject_mass,
                1e-9,
                dict(params, psp=str(psp)),
            )
        )
    return checks


@dataclass
class LemmaResult:
    """Block-diagonal assembly of the intersection lemma plus its audit."""

    inst: TypicalityInstance
    constructions: dict
    checks: list
    soundness: dict

    def all_pass(self) -> bool:
        return report.all_pass(self.checks)


def intersection_lemma(inst: TypicalityInstance) -> LemmaResult:
    """Assemble the lemma's state and POVM element and audit claims 2 - 4.

    All (x, l) blocks with the same x are unitarily equivalent under
    relabelings of the ancilla alphabet, so each claim is evaluated on the
    all-zero label block; the averages over l equal the per-block values.
    The construction, the split decomposition and its block marginals are
    built on that block alone and take no label assignment.  A block's
    split factors are forgotten once every word of the last split that
    contains the block is done.
    The claims need a finite delta > 0 whose tilt weights delta^(2l) / N do
    not underflow: the stated floor of claim 4 scales as delta^(-2k), and a
    zero diagonal weight leaves a direction untilted.  Both are refused
    before any D_H solve.
    """
    if not 0 < inst.delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {inst.delta}")
    words = inst.words()
    lattice = inst.lattice
    if not np.all(np.diag(build_tilting_matrix(lattice, inst.delta).alpha) > 0):
        raise ValueError(f"delta {inst.delta} underflows a diagonal tilt weight delta^(2l) / N to 0")
    k, c = inst.k, inst.c
    m = (2 * inst.dim_h) ** inst.k
    tests = optimal_splitting_tests(inst)
    constructions = {x: build_construction(inst, x, tests=tests[x]) for x in words}
    checks = []
    params = {"k": k, "c": c, "H": inst.dim_h, "L": inst.dim_l, "delta": inst.delta}
    for x in words:
        checks.extend(audit_construction(constructions[x]))

    dist = sum(inst.p_x[x] * constructions[x].l1_distance for x in words)
    checks.append(
        report.AuditCheck(
            "lemma_claim2_distance", dist, 2.0 ** ((c + k) / 2.0 + 1.0) * inst.delta, 1e-9, params
        )
    )
    completeness = sum(
        inst.p_x[x]
        * constructions[x].pi_prime_expectation(constructions[x].rho_prime)
        for x in words
    )
    eps_sums = {
        psp: sum(inst.p_x[x] * tests[x][psp].eps for x in words)
        for psp in lattice.linear_ext
    }
    floor = claim4_stated_floor(inst, sum(eps_sums.values()))
    floor -= 2.0 ** ((c + k) / 2.0 + 1.0) * inst.delta
    checks.append(
        report.AuditCheck("lemma_claim3_completeness", floor, completeness, 1e-9, params)
    )

    soundness = {}
    # a block's factors serve every split that contains the block, and no later step
    last_split = {block: i for i, psp in enumerate(lattice.linear_ext) for block in psp}
    for i, psp in enumerate(lattice.linear_ext):
        lhs = 0.0
        chain_rhs = 0.0
        for x in words:
            constr = constructions[x]
            dec = split_decompose(inst, x, psp)
            checks.extend(dec.checks)
            val = _split_expectation(inst, constr, psp, dec)
            lhs += inst.p_x[x] * val
            pi_trace = constr.pi_prime_trace_norm()
            chain_rhs += inst.p_x[x] * (
                dec.alpha * constr.tests[psp].reject_mass
                + pi_trace * dec.n_norm
                + (1.0 - dec.alpha - dec.beta) * pi_trace * dec.m_norm
            )
        inst.forget(lambda key: key[0] == "split_factor" and last_split[key[1]] == i)
        dh_reject = sum(inst.p_x[x] * tests[x][psp].reject_mass for x in words)
        rhs = max(dh_reject, 3.0 * m / np.sqrt(inst.dim_l))
        soundness[psp] = {"lhs": lhs, "dh_reject": dh_reject, "chain_rhs": chain_rhs}
        checks.append(
            report.AuditCheck(
                "lemma_claim4_soundness", lhs, rhs, 1e-9, dict(params, psp=str(psp))
            )
        )
        checks.append(
            report.AuditCheck(
                "lemma_claim4_chain", lhs, chain_rhs, 1e-9, dict(params, psp=str(psp))
            )
        )
    return LemmaResult(inst, constructions, checks, soundness)


def _split_expectation(
    inst: TypicalityInstance, constr: BlockConstruction, psp: Psp, dec: SplitDecomposition
) -> float:
    """Tr[Pi' rho'_split] for one block, as ||(x)_g C_g† B||^2 for rho'_split = (x)_g C_g C_g†.

    B vanishes outside the block's box, so each factor enters through its
    rows on the box: the thin factor C_g† of each site group contracts the
    group's axes of B in turn.  No operator on the box rows squared is
    formed, and no intermediate is wider than B.
    """
    if is_full_block(inst, psp):
        return constr.pi_prime_expectation(split_embedded(inst, constr.x, psp, constr.box))
    box = constr.box
    parts = [(f.sites, f.rho) for f in dec.factors]
    covered = [s for f in dec.factors for s in f.sites]
    t_sites = tuple(s for s in quantum_sites(inst.k) if s not in covered)
    if t_sites:
        fill = inst.quantum_marginal(constr.x, t_sites)
        parts.append((t_sites, _embedded(inst, (), fill, box.restrict(t_sites))))
    # B's site axes in group order, so that each group's axes lead in turn
    order = [box.sites.index(s) for sites, _ in parts for s in sites]
    t = constr.b.reshape(box.shape + (-1,)).transpose(order + [len(order)])
    for sites, st in parts:
        group = box.restrict(sites)
        c = st.core_sqrt_cols()[st.box.index(group.rows)].conj().T
        # C C† = R† R for C† = Q R: at most one row of C† per row of the group
        r = np.linalg.qr(c, mode="r") if c.shape[0] > c.shape[1] else c
        t = np.tensordot(t, r.reshape((-1,) + group.shape), (range(len(sites)), range(1, len(sites) + 1)))
    return float(np.linalg.norm(t) ** 2)


@dataclass
class UnionResult:
    """Audit of the union-of-intersections POVM over several constructions."""

    checks: list

    def all_pass(self) -> bool:
        return report.all_pass(self.checks)


def union_of_intersections(instances: list, alpha: float) -> UnionResult:
    """Tilted-span union of the per-instance intersection POVM elements.

    Each instance's Pi' = B B† is dilated to a projector on W x C^2, W an
    orthonormal basis of the span of every B's columns, then the projectors
    are tilted along t private directions; completeness drops by at most
    alpha per instance and acceptance of any embedded state is at most
    (1-alpha)/alpha times the sum of the individual acceptances.
    """
    first = instances[0]
    # spaces compare by (c, k, |H|, |L|)
    if any(inst.space != first.space for inst in instances):
        raise ValueError("instances must share (c, k, |H|, |L|)")
    if first.c != 0:
        raise ValueError("the union audit covers instances without classical words")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    # every instance uses the all-zero labels, so every construction and
    # lifted state lives on one box and one tilted layout, and every B is
    # zero off the layout rows.  Off W every Pi' is 0, so the dilated ranges
    # there are W-perp x |1>, orthogonal to every lifted state (ancilla |0>),
    # and tilting keeps them so: the union on W x C^2 is exact
    constructions = [build_construction(inst, ()) for inst in instances]
    w = np.linalg.qr(np.hstack([c.b_tilted for c in constructions]))[0]
    thin = [w.conj().T @ c.b_tilted for c in constructions]
    ranges = [hyptest.dilation_basis(b @ b.conj().T) for b in thin]
    rank = w.shape[1]
    layout = tilting.TiltedLayout(2 * rank, len(instances))
    union = tilting.tilted_basis(ranges, alpha * np.eye(len(instances)), layout)
    rows = constructions[0].rows

    def lift(state: LowRankState) -> np.ndarray:
        # layout rows -> W coordinates tensor |0> ancilla -> base summand of the tilted space
        return place(np.arange(0, 2 * rank, 2), layout.total_dim, w.conj().T @ state.core_sqrt_cols(rows))

    def accept(basis: np.ndarray, lifted: np.ndarray) -> float:
        # ||basis† lifted||^2 on the basis's rows: the first 2 rank W rows of
        # the tilted space are the base copy of W x C^2
        return float(np.linalg.norm(basis.conj().T @ lifted[: basis.shape[0]]) ** 2)

    checks = []
    params = {"t": len(instances), "alpha": alpha}
    for i, constr in enumerate(constructions):
        inner = constr.pi_prime_expectation(constr.rho_prime)
        outer = accept(union, lift(constr.rho_prime))
        checks.append(
            report.AuditCheck(
                "union_completeness_drop", inner - outer, alpha, 1e-9, dict(params, i=i)
            )
        )
        if len(instances) == 1:
            checks.append(
                report.AuditCheck(
                    "union_single_reduces",
                    abs(outer - (1 - alpha) * inner),
                    0.0,
                    1e-9,
                    params,
                )
            )
    for i, inst in enumerate(instances):
        constr = constructions[i]
        for psp in inst.lattice.linear_ext:
            lifted = lift(split_embedded(inst, (), psp, constr.box))
            # acceptance of the dilated blocks on the (A'' x C^2)-level state
            per_inst = sum(accept(r, lifted) for r in ranges)
            rhs = (1 - alpha) / alpha * per_inst
            checks.append(
                report.AuditCheck(
                    "union_soundness_prefactor",
                    accept(union, lifted),
                    rhs,
                    1e-9,
                    dict(params, i=i, psp=str(psp)),
                )
            )
    return UnionResult(checks)


# Every cache of data that depends only on the shape (space, sites,
# pseudosubpartitions, delta), never on a state.  None holds an array that
# grows with the columns of an embedding: psp_local and _ancilla_embedding
# scatter their dense output afresh from tilt_entries and ancilla_entries.
SHAPE_CACHES = (
    enum_psps,
    PsLattice.build,
    layout_psps,
    _normalization,
    _tilting_matrix,
    _box,
    tilt_rows,
    tilt_entries,
    ancilla_rows,
    ancilla_entries,
    union_plan,
    split_plan,
    _lead_weight,
    split_weights,
)
