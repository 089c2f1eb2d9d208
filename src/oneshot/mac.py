"""Multiple access channel simulators with exact per-codebook error evaluation.

The classical two-sender channel uses the randomized sequential decoder whose
error probability is computed in closed form (no coin simulation); the
classical-quantum channel uses the smoothing-and-augmentation pipeline: the
output space is extended, the channel perturbed by a label-controlled tilt,
and decoding runs a pretty good measurement built from tilted intersection
POVM elements.  Randomness enters only through codebook sampling, with a
counter-based generator keyed by (seed, sender, message) so codebooks are
reproducible independent of sampling order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import hyptest, qla, report, tilting, typicality


def message_count(rate: float) -> int:
    """ceil(2^rate) messages, at least one (rates may sit below zero)."""
    try:
        return max(1, int(math.ceil(2.0**rate - 1e-12)))
    except OverflowError:
        raise ValueError(f"rate {rate} gives too many messages") from None


def codebook_rng(seed: int, sender: int, message: int) -> np.random.Generator:
    key = [seed & 0xFFFFFFFFFFFFFFFF, ((sender & 0xFFFFFFFF) << 32) | (message & 0xFFFFFFFF)]
    return np.random.Generator(np.random.Philox(key=key))


def sample_symbol(dist: np.ndarray, rng: np.random.Generator) -> int:
    cum = np.cumsum(dist)
    return int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))


@dataclass(frozen=True)
class Codebook:
    """Encoder maps m1 -> (x, l_x) and m2 -> (y, l_y); l columns unused classically."""

    xs: np.ndarray
    ys: np.ndarray
    lxs: np.ndarray | None
    lys: np.ndarray | None
    seed: int

    @classmethod
    def sample(cls, seed, m1_count, m2_count, p_x, p_y, dim_l=None) -> "Codebook":
        xs = np.array(
            [sample_symbol(p_x, codebook_rng(seed, 1, m)) for m in range(m1_count)]
        )
        ys = np.array(
            [sample_symbol(p_y, codebook_rng(seed, 2, m)) for m in range(m2_count)]
        )
        lxs = lys = None
        if dim_l is not None:
            lxs = np.array(
                [int(codebook_rng(seed, 3, m).integers(dim_l)) for m in range(m1_count)]
            )
            lys = np.array(
                [int(codebook_rng(seed, 4, m).integers(dim_l)) for m in range(m2_count)]
            )
        return cls(xs, ys, lxs, lys, seed)


@dataclass
class MacResult:
    rates: tuple
    errors: np.ndarray
    bounds: dict
    trial_rows: list = field(default_factory=list)

    def __post_init__(self):
        e = np.asarray(self.errors, dtype=float)
        if e.size and (e.min() < -1e-9 or e.max() > 1 + 1e-9):
            raise ValueError(f"error probabilities outside [0, 1]: [{e.min()}, {e.max()}]")
        object.__setattr__(self, "errors", np.clip(e, 0.0, 1.0))

    @property
    def mc_mean(self) -> float:
        return float(np.mean(self.errors))

    @property
    def mc_halfwidth(self) -> float:
        return 1.96 * self.mc_sem

    @property
    def mc_sem(self) -> float:
        if len(self.errors) < 2:
            return 0.0
        return float(np.std(self.errors, ddof=1) / np.sqrt(len(self.errors)))

    def within_bound(self, key: str = "total") -> bool:
        return self.mc_mean <= self.bounds[key] + 3.0 * self.mc_sem + 1e-12


# ---------------------------------------------------------------------------
# classical MAC


@dataclass(frozen=True)
class ClassicalChannelSpec:
    """Two-sender channel kernel p(z | x, y) with product input distribution."""

    kernel: np.ndarray
    p_x: np.ndarray
    p_y: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.kernel, dtype=float)
        if k.ndim != 3:
            raise ValueError("kernel must have shape (|X|, |Y|, |Z|)")
        if np.any(k < -1e-12) or np.any(np.abs(k.sum(axis=2) - 1.0) > 1e-10):
            raise ValueError("kernel rows must be distributions")
        object.__setattr__(self, "kernel", k)
        for name, dist, n in (("p_x", self.p_x, k.shape[0]), ("p_y", self.p_y, k.shape[1])):
            d = np.asarray(dist, dtype=float)
            if d.shape != (n,) or abs(d.sum() - 1.0) > 1e-10:
                raise ValueError(f"{name} must be a distribution of length {n}")
            object.__setattr__(self, name, d)

    @property
    def shape(self):
        return self.kernel.shape

    def joint(self) -> np.ndarray:
        return self.p_x[:, None, None] * self.p_y[None, :, None] * self.kernel


def classical_information_quantities(spec: ClassicalChannelSpec, eps: float) -> dict:
    """The three hypothesis-testing mutual informations and their optimal tests."""
    joint = spec.joint()
    p_xyz = joint.ravel()
    p_z_given_x = np.einsum("y,xyz->xz", spec.p_y, spec.kernel)
    p_z_given_y = np.einsum("x,xyz->yz", spec.p_x, spec.kernel)
    p_z = np.einsum("x,xz->z", spec.p_x, p_z_given_x)
    p_xy = spec.p_x[:, None, None] * spec.p_y[None, :, None]
    false_x = (p_xy * p_z_given_y[None, :, :]).ravel()
    false_y = (p_xy * p_z_given_x[:, None, :]).ravel()
    false_xy = (p_xy * p_z[None, None, :]).ravel()
    res_x = hyptest.dh_classical(p_xyz, false_x, eps)
    res_y = hyptest.dh_classical(p_xyz, false_y, eps)
    res_xy = hyptest.dh_classical(p_xyz, false_xy, eps)
    f = hyptest.intersect_tests([res_x.test, res_y.test, res_xy.test])
    return {
        "i_x_yz": res_x.value_bits,
        "i_y_xz": res_y.value_bits,
        "i_xy_z": res_xy.value_bits,
        "tests": (res_x, res_y, res_xy),
        "decoder_test": f.reshape(spec.shape),
    }


def classical_decoder_error(
    spec: ClassicalChannelSpec, codebook: Codebook, f: np.ndarray
) -> float:
    """Exact average error of the randomized sequential decoder.

    The decoder scans message pairs in lexicographic order and declares the
    first pair whose coin (probability f(x, y, z)) lands heads; an error is a
    head strictly before the true pair or the survival of the scan past it.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != spec.shape:
        raise ValueError("test must live on X x Y x Z")
    m1, m2 = len(codebook.xs), len(codebook.ys)
    nz = spec.shape[2]
    grid = f[np.ix_(codebook.xs, codebook.ys)]  # (m1, m2, nz)
    flat = grid.reshape(m1 * m2, nz)
    survive = np.cumprod(1.0 - flat, axis=0)
    shifted = np.vstack([np.ones((1, nz)), survive[:-1]])
    first_head = shifted * flat  # P[first head at pair | z]
    correct = 0.0
    for i1 in range(m1):
        for i2 in range(m2):
            pz = spec.kernel[codebook.xs[i1], codebook.ys[i2]]
            correct += float(np.dot(pz, first_head[i1 * m2 + i2]))
    return 1.0 - correct / (m1 * m2)


def classical_corner_rates(info: dict, eps: float) -> tuple[float, float]:
    """The rate corner R_i = I - log2(1/eps), split to respect the sum bound."""
    margin = np.log2(1.0 / eps)
    r1 = info["i_x_yz"] - margin
    r2 = info["i_y_xz"] - margin
    rsum = info["i_xy_z"] - margin
    if r1 + r2 > rsum:
        scale = rsum / (r1 + r2) if r1 + r2 > 0 else 0.0
        r1, r2 = r1 * scale, r2 * scale
    return r1, r2


def classical_mac_experiment(
    spec: ClassicalChannelSpec,
    r1: float,
    r2: float,
    eps: float,
    trials: int,
    seed: int = 0,
) -> MacResult:
    """Monte Carlo over random codebooks with the intersection-test decoder."""
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    info = classical_information_quantities(spec, eps)
    f = info["decoder_test"]
    m1, m2 = message_count(r1), message_count(r2)
    errors = np.empty(trials)
    rows = []
    bound_r1 = (m1 - 1) * 2.0 ** (-info["i_x_yz"])
    bound_r2 = (m2 - 1) * 2.0 ** (-info["i_y_xz"])
    bound_sum = (m1 - 1) * (m2 - 1) * 2.0 ** (-info["i_xy_z"])
    bounds = {
        "r1": bound_r1,
        "r2": bound_r2,
        "sum": bound_sum,
        "type1": 3.0 * eps,
        "total": bound_r1 + bound_r2 + bound_sum + 3.0 * eps,
        "target": 6.0 * eps,
        "i_x_yz": info["i_x_yz"],
        "i_y_xz": info["i_y_xz"],
        "i_xy_z": info["i_xy_z"],
    }
    for t in range(trials):
        cb = Codebook.sample(seed + t, m1, m2, spec.p_x, spec.p_y)
        errors[t] = classical_decoder_error(spec, cb, f)
        rows.append((t, seed + t, errors[t]))
    return MacResult((r1, r2), errors, bounds, rows)


def classical_decoder_simulation(
    spec: ClassicalChannelSpec, codebook: Codebook, f: np.ndarray, shots: int, seed: int
) -> float:
    """Coin-flip simulation of the sequential decoder (oracle for the closed form).

    Vectorized over shots: one coin per (message pair, shot), the decoder
    declares at the lexicographically first head.
    """
    rng = np.random.default_rng(seed)
    m1, m2 = len(codebook.xs), len(codebook.ys)
    pairs = m1 * m2
    true_idx = rng.integers(pairs, size=shots)
    i1, i2 = true_idx // m2, true_idx % m2
    cum = np.cumsum(spec.kernel[codebook.xs[i1], codebook.ys[i2]], axis=1)
    z = (rng.random(shots)[:, None] < cum).argmax(axis=1)
    grid = f[np.ix_(codebook.xs, codebook.ys)].reshape(pairs, spec.shape[2])
    heads = rng.random((shots, pairs)) < grid[:, z].T
    any_head = heads.any(axis=1)
    first = heads.argmax(axis=1)
    correct = any_head & (first == true_idx)
    return float(1.0 - correct.mean())


# ---------------------------------------------------------------------------
# cq MAC


@dataclass(frozen=True)
class CqChannelSpec:
    """Classical inputs, quantum output: table (x, y) -> density matrix on Z."""

    states: np.ndarray  # (|X|, |Y|, dz, dz)
    p_x: np.ndarray
    p_y: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.states, dtype=complex)
        if s.ndim != 4 or s.shape[2] != s.shape[3]:
            raise ValueError("states must have shape (|X|, |Y|, dz, dz)")
        for x in range(s.shape[0]):
            for y in range(s.shape[1]):
                qla.density_matrix(s[x, y])
        object.__setattr__(self, "states", s)
        for name, dist, n in (("p_x", self.p_x, s.shape[0]), ("p_y", self.p_y, s.shape[1])):
            d = np.asarray(dist, dtype=float)
            if d.shape != (n,) or abs(d.sum() - 1.0) > 1e-10:
                raise ValueError(f"{name} must be a distribution of length {n}")
            object.__setattr__(self, name, d)

    @property
    def nx(self):
        return self.states.shape[0]

    @property
    def ny(self):
        return self.states.shape[1]

    @property
    def dz(self):
        return self.states.shape[2]

    def avg_x(self, x) -> np.ndarray:
        return np.einsum("y,yab->ab", self.p_y, self.states[x])

    def avg_y(self, y) -> np.ndarray:
        return np.einsum("x,xab->ab", self.p_x, self.states[:, y])

    def avg(self) -> np.ndarray:
        return np.einsum("x,y,xyab->ab", self.p_x, self.p_y, self.states)


def check_dense(dim: int) -> None:
    """Refuse a dense dim x dim operator over the cap; only the oracles build one."""
    cap = typicality.site_dim_cap()
    if dim > cap:
        raise ValueError(f"dense operator of dimension {dim} exceeds the cap {cap}")


class PerturbedChannel:
    """The extended output space Z' and the label-controlled tilting maps.

    Z' = (Z x C^2) (+) (Z x C^2 x L_X) (+) (Z x C^2 x L_Y); the perturbed
    output on input ((x, l_x), (y, l_y)) superposes the embedded original
    with copies labelled l_x and l_y at amplitude delta.  It lives on the
    6 dz rows of label_box(l_x, l_y), where the tilt is local_tilt whatever
    the labels, so the channel allocates nothing; only the dense oracles
    (tilt, rho_prime, AveragedState.dense) build arrays with dim Z' rows.
    rho_hat, its root and perturbation_l1 are computed once per letter pair.
    """

    def __init__(self, spec: CqChannelSpec, dim_l: int, delta: float):
        if dim_l < 2:
            raise ValueError("need |L| >= 2")
        if not 0 <= delta <= 1:
            raise ValueError("delta must be in [0, 1]")
        self.spec = spec
        self.dim_l = dim_l
        self.delta = delta
        dz = spec.dz
        self.base = 2 * dz
        # the summands in order: base (dz x 2), LX and LY (dz x 2 x |L| each)
        n = self.base * dim_l
        self.slices = {
            "base": slice(0, self.base), "LX": slice(self.base, self.base + n),
            "LY": slice(self.base + n, self.base + 2 * n),
        }
        self.dim = self.base + 2 * n
        self._letters: dict = {}

    def label_box(self, l_x: int, l_y: int) -> typicality.Box:
        """The 6 dz rows of Z' that labels (l_x, l_y) reach, ascending.

        The base copy, then row base + h |L| + l_x of LX and the same row of
        LY for each coordinate h of Z x C^2: a label-free local array puts
        coordinate h of summand j at position j 2dz + h.
        """
        h = np.arange(self.base) * self.dim_l
        rows = np.concatenate([
            np.arange(self.base), self.slices["LX"].start + h + l_x,
            self.slices["LY"].start + h + l_y,
        ])
        return typicality.Box((0,), (self.dim,), (rows,))

    def local_tilt(self, x: bool = False, y: bool = False) -> np.ndarray:
        """tilt on the rows of label_box, the same for every label pair.

        x and y say whether the LX and LY labels tilt; with neither this is
        the base embedding.
        """
        d = self.delta
        amps = (1.0, d if x else 0.0, d if y else 0.0)
        return np.vstack([a * np.eye(self.base) for a in amps]) / np.sqrt(1 + (x + y) * d * d)

    def tilt(self, l_x: int | None = None, l_y: int | None = None) -> np.ndarray:
        """(base + d LX(l_x) [+ d LY(l_y)]) / sqrt(1 + n d^2) over the n labels given, on Z'."""
        box = self.label_box(l_x or 0, l_y or 0)
        return box.expand(self.local_tilt(l_x is not None, l_y is not None))

    def _letter(self, key: tuple, make):
        """make(), computed once per key and kept read-only."""
        if key not in self._letters:
            self._letters[key] = typicality._frozen(make())
        return self._letters[key]

    def rho_hat(self, x: int, y: int) -> np.ndarray:
        """The output of letters (x, y) with the ancilla at |0> (read-only)."""
        rho = self.spec.states[x, y]
        return self._letter(("rho", x, y), lambda: typicality.embed_with_ancilla(rho, 1, self.spec.dz))

    def letter_state(self, x: int, y: int, local: np.ndarray) -> typicality.LowRankState:
        """local rho_hat(x, y) local†, with the one root of rho_hat (sqrt_factor) of those letters."""
        rho = self.rho_hat(x, y)
        root = self._letter(("root", x, y), lambda: typicality.sqrt_factor(rho))
        return typicality.LowRankState(local, rho, root=root)

    def rho_prime(self, x: int, l_x: int, y: int, l_y: int) -> np.ndarray:
        check_dense(self.dim)
        t = self.tilt(l_x, l_y)
        return t @ self.rho_hat(x, y) @ t.conj().T

    def _averaged(self, marginal: np.ndarray, averaged: tuple) -> "AveragedState":
        """The output averaged over the letters behind marginal and the labels of averaged.

        averaged lists the summands (1 for LX, 2 for LY) whose labels are
        averaged; the other keeps its label.  By linearity the label average
        of an averaged summand's copy is its uniform-label copy (amplitude
        delta / sqrt(|L|)) plus delta^2 / |L| rho x P_perp.
        """
        d, n = self.delta, 1 + 2 * self.delta**2
        amps = (1.0,) + tuple(d / np.sqrt(self.dim_l) if j in averaged else d for j in (1, 2))
        rho = typicality.embed_with_ancilla(marginal, 1, self.spec.dz)
        return AveragedState(amps, averaged, rho, n, d * d / (n * self.dim_l), self.dim_l)

    def averaged_over_y(self, x: int) -> "AveragedState":
        """(rho')_{(x, l_x), delta}: the output averaged over (y, l_y), l_x kept."""
        return self._averaged(self.spec.avg_x(x), (2,))

    def averaged_over_x(self, y: int) -> "AveragedState":
        """(rho')_{(y, l_y), delta}: the output averaged over (x, l_x), l_y kept."""
        return self._averaged(self.spec.avg_y(y), (1,))

    def averaged_all(self) -> "AveragedState":
        """(rho')_delta: the output averaged over both letters and both labels."""
        return self._averaged(self.spec.avg(), (1, 2))

    def perturbation_l1(self, x: int, y: int) -> float:
        """||rho' - e rho_hat e†||_1 on the rows of a label box.

        Both operators live on those rows, so the trace norm of the 6 dz x 6 dz
        block is the trace norm on Z'; the block is the same at every label
        pair.  The spectra of all letter pairs are taken in one stack.
        """
        return self._perturbation_l1s[x, y]

    @functools.cached_property
    def _perturbation_l1s(self) -> dict:
        t, e = self.local_tilt(x=True, y=True), self.local_tilt()
        letters = [(x, y) for x in range(self.spec.nx) for y in range(self.spec.ny)]
        rho = np.stack([self.rho_hat(x, y) for x, y in letters])
        w = np.linalg.eigvalsh(qla.hermitian_part(t @ rho @ t.conj().T - e @ rho @ e.conj().T))
        return {xy: float(np.sum(np.abs(w_xy))) for xy, w_xy in zip(letters, w)}


@dataclass(frozen=True)
class AveragedState:
    """A label-averaged output in copy coordinates: core + spread sum_j rho x P_perp.

    Summand j of Z' (0 base, 1 LX, 2 LY) holds one copy of rho, at amplitude
    amps[j]: the base copy, a kept label's copy, or for j in averaged the
    uniform-label copy u = 1/sqrt(|L|) over all labels.  core =
    t rho t† / norm with t the amplitudes stacked over the three copies,
    6 dz square.  P_perp = I_L - |u><u| acts on the labels of each averaged
    summand, orthogonal to every copy; no array has dim Z' rows.
    """

    amps: tuple
    averaged: tuple
    rho: np.ndarray
    norm: float
    spread: float
    dim_l: int

    @functools.cached_property
    def core(self) -> np.ndarray:
        t = np.vstack([a * np.eye(self.rho.shape[0]) for a in self.amps])
        return t @ self.rho @ t.T / self.norm

    def povm_expectation(self, b: np.ndarray) -> float:
        """Tr[B† A B] for B on the rows of label_box at the kept labels.

        There copy j meets summand j's rows B_j of B, scaled by 1/sqrt(|L|)
        for a uniform copy, and P_perp is 1 - 1/|L|: Tr[c† core c] for the
        stacked c_j plus the spread on each averaged summand's B_j.
        """
        base = self.rho.shape[0]
        c = b.copy()
        for j in self.averaged:
            c[j * base:(j + 1) * base] *= self.dim_l**-0.5
        total = np.vdot(c, self.core @ c).real
        for j in self.averaged:
            b_j = b[j * base:(j + 1) * base]
            total += self.spread * (1 - 1 / self.dim_l) * np.vdot(b_j, self.rho @ b_j).real
        return float(total)

    def residual_norm(self, ref_core: np.ndarray) -> float:
        """||A - ref||_inf for ref_core in copy coordinates: the larger of the two parts' norms."""
        return max(qla.op_norm_herm(self.core - ref_core), self.spread * qla.op_norm_herm(self.rho))

    def copies(self, l_x: int = 0, l_y: int = 0) -> np.ndarray:
        """The dim Z' x 6 dz isometry from copy coordinates onto Z', kept labels at (l_x, l_y)."""
        n, base = self.dim_l, self.rho.shape[0]
        h = np.arange(base)
        out = np.zeros((base * (1 + 2 * n), 3 * base))
        out[h, h] = 1.0
        for j, label in ((1, l_x), (2, l_y)):
            labels = np.arange(n) if j in self.averaged else label
            rows = base + (j - 1) * base * n + h[:, None] * n + labels
            out[rows, j * base + h[:, None]] = n**-0.5 if j in self.averaged else 1.0
        return out

    def dense(self, l_x: int = 0, l_y: int = 0) -> np.ndarray:
        """The dim Z' x dim Z' operator at kept labels (l_x, l_y), for brute-force comparisons."""
        base, n = self.rho.shape[0], self.dim_l
        check_dense(base * (1 + 2 * n))
        cols = self.copies(l_x, l_y)
        out = cols @ self.core @ cols.T
        for j in self.averaged:
            sl = slice(base + (j - 1) * base * n, base + j * base * n)
            out[sl, sl] += self.spread * np.kron(self.rho, np.eye(n) - 1.0 / n)
        return out


def smoothing_residuals(chan: PerturbedChannel) -> list:
    """Operator-norm residuals of the averaged states against tilted references.

    Averaging the perturbed output over the other sender's letter and label
    leaves the corresponding single-tilt reference plus a residual whose
    operator norm is at most 3 delta / sqrt(|L|).  Each reference lies in the
    span of the averaged state's copies, where it is the local tilt, so the
    norm is taken on the core.
    """
    spec, d, L = chan.spec, chan.delta, chan.dim_l
    bound = 3.0 * d / np.sqrt(L)
    checks = []
    lead = (1 + d * d) / (1 + 2 * d * d)
    for letter, count, t, averaged in (
        ("x", spec.nx, chan.local_tilt(x=True), chan.averaged_over_y),
        ("y", spec.ny, chan.local_tilt(y=True), chan.averaged_over_x),
    ):
        for a in range(count):
            avg = averaged(a)
            resid = avg.residual_norm(lead * t @ avg.rho @ t.T)
            checks.append(
                report.AuditCheck(f"smoothing_residual_{letter}", resid, bound, 1e-9, {letter: a})
            )
    avg = chan.averaged_all()
    e = chan.local_tilt()
    resid = avg.residual_norm(e @ avg.rho @ e.T / (1 + 2 * d * d))
    checks.append(report.AuditCheck("smoothing_residual_all", resid, bound, 1e-9, {}))
    return checks


@dataclass
class DecodingSet:
    """Per-letter-pair complement bases, the three optimal cq tests and the POVM factors.

    local[x, y] is the factor B of Pi' = B B† on the rows of chan.label_box:
    every label pair reaches its own 6 dz rows of Z' and B is the same array
    there, so it is built once per distinct triple (w_x, w_y, w_xy) of
    bases, keyed on their bytes, and shared read-only by the letter pairs
    with that triple.
    """

    chan: PerturbedChannel
    eps: float
    i_x_yz: float
    i_y_xz: float
    i_xy_z: float
    w_x: dict
    w_y: dict
    w_xy: dict
    local: dict = field(init=False, repr=False)

    def __post_init__(self):
        # the label box's base, LX and LY rows are the summands of a tilted
        # layout; local_tilt's amplitudes are sqrt(1 - t) and sqrt(t) at the
        # weight t = delta^2 / (1 + delta^2)
        chan = self.chan
        a = np.eye(2) * chan.delta**2 / (1 + chan.delta**2)
        layout, e = tilting.TiltedLayout(chan.base, 2), chan.local_tilt()
        self.local, built = {}, {}
        for xy in self.w_x:
            w_x, w_y, w_xy = self.w_x[xy], self.w_y[xy], self.w_xy[xy]
            key = (w_x.tobytes(), w_y.tobytes(), w_xy.tobytes())
            if key not in built:
                q = tilting.tilted_basis([w_x, w_y], a, layout, fixed=w_xy)
                built[key] = typicality._frozen(tilting.complement_factor(e, q))
            self.local[xy] = built[key]

    def povm_factor(self, x: int, l_x: int, y: int, l_y: int) -> np.ndarray:
        """Factor B with Pi' = B B† for the given letters and labels, on all of Z'."""
        return self.chan.label_box(l_x, l_y).expand(self.local[x, y])

    def povm(self, x: int, l_x: int, y: int, l_y: int) -> np.ndarray:
        check_dense(self.chan.dim)
        b = self.povm_factor(x, l_x, y, l_y)
        return qla.hermitian_part(b @ b.conj().T)


def build_decoding_povms(spec: CqChannelSpec, dim_l: int, delta: float, eps: float) -> DecodingSet:
    """Optimal tests for the three information quantities, dilated and tilted.

    The X-labelled complement spaces are tilted along L_X and pair with the
    keep-x averaged states (rate R2 / I_H(Y:XZ)); symmetrically for Y; the
    joint test stays untilted in the base copy.  The test blocks of all three
    are dilated and their rejection bases taken as one stack (read-only), and
    the POVM factors are built on the label rows (DecodingSet.local).  delta
    must be positive: untilted, the three images would share the base copy.
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    chan = PerturbedChannel(spec, dim_l, delta)
    letters = [(x, y) for x in range(spec.nx) for y in range(spec.ny)]
    weights = [spec.p_x[x] * spec.p_y[y] for x, y in letters]
    states = [spec.states[x, y] for x, y in letters]
    # the cq state against product-of-marginals alternates, letter by letter
    solved = [
        hyptest.cq_optimal_test(weights, states, alternates, eps)
        for alternates in (
            [spec.avg_x(x) for x, _ in letters],
            [spec.avg_y(y) for _, y in letters],
            [spec.avg() for _ in letters],
        )
    ]
    blocks = np.stack([blk for _, blks in solved for blk in blks])
    bases = typicality._frozen(tilting.rejection_basis(hyptest.dilate_povm(blocks)))
    n = len(letters)
    w_x, w_y, w_xy = (dict(zip(letters, bases[i * n : (i + 1) * n])) for i in range(3))
    (res_x, _), (res_y, _), (res_xy, _) = solved
    return DecodingSet(
        chan=chan, eps=eps, i_x_yz=res_y.value_bits, i_y_xz=res_x.value_bits,
        i_xy_z=res_xy.value_bits, w_x=w_x, w_y=w_y, w_xy=w_xy,
    )


def pipeline_quantities(dec: DecodingSet) -> dict:
    """Exact type-1 and type-2 aggregates of the decoding set.

    Every quantity is invariant under relabelling, so all are taken on the
    rows of one label box, where Pi = B B† has the factor dec.local[x, y]:
    Tr[Pi rho'] through the local tilt, and Tr[Pi A] = Tr[B† A B] on the
    averaged states A, whose compression onto those rows is closed form.
    """
    chan = dec.chan
    spec = chan.spec
    tilt = chan.local_tilt(x=True, y=True)
    type1 = t2_keep_x = t2_keep_y = t2_none = 0.0
    avg_all = chan.averaged_all()
    avg_xs = {x: chan.averaged_over_y(x) for x in range(spec.nx)}
    avg_ys = {y: chan.averaged_over_x(y) for y in range(spec.ny)}
    max_pert = 0.0
    for (x, y), b in dec.local.items():
        w = spec.p_x[x] * spec.p_y[y]
        accept = typicality.povm_expectation(b, chan.letter_state(x, y, tilt))
        type1 += w * (1.0 - accept)
        t2_keep_x += w * avg_xs[x].povm_expectation(b)
        t2_keep_y += w * avg_ys[y].povm_expectation(b)
        t2_none += w * avg_all.povm_expectation(b)
        max_pert = max(max_pert, chan.perturbation_l1(x, y))
    return {
        "type1": type1,
        "t2_keep_x": t2_keep_x,
        "t2_keep_y": t2_keep_y,
        "t2_none": t2_none,
        "max_perturbation": max_pert,
    }


def pipeline_checks(dec: DecodingSet, quantities: dict | None = None) -> list:
    """Perturbation, type-1, smoothing, and type-2 bounds of the cq pipeline."""
    chan = dec.chan
    spec = chan.spec
    d, L, dz = chan.delta, chan.dim_l, spec.dz
    eps = dec.eps
    q = pipeline_quantities(dec) if quantities is None else quantities
    # perturbation_l1_stated records the quadratic target 4 delta^2; the
    # actual per-block distance is 2 sqrt(2 d^2 / (1 + 2 d^2)), first order
    # in delta, so that check fails for delta < 0.93 and the first-order
    # variant carries the bound that holds
    checks = [
        report.AuditCheck(
            "perturbation_l1_stated", q["max_perturbation"], 4.0 * d * d, 1e-9, {}
        ),
        report.AuditCheck(
            "perturbation_l1_first_order",
            q["max_perturbation"],
            2.0 * np.sqrt(2.0) * d,
            1e-9,
            {},
        ),
        report.AuditCheck(
            "type1_aggregate", q["type1"], 18.0 * eps / d**2 + 4.0 * d * d, 1e-9, {}
        ),
        report.AuditCheck(
            "type1_sqrt_eps",
            q["type1"],
            22.0 * np.sqrt(eps),
            1e-9,
            {"note": "at delta = eps^(1/4)"},
        ),
    ]
    checks.extend(smoothing_residuals(chan))
    extra = 6.0 * d * dz / np.sqrt(L)
    type2 = (
        ("type2_keep_x", q["t2_keep_x"], 2.0 ** (-dec.i_y_xz), "R2"),
        ("type2_keep_y", q["t2_keep_y"], 2.0 ** (-dec.i_x_yz), "R1"),
        ("type2_none", q["t2_none"], 2.0 ** (-dec.i_xy_z), "R1+R2"),
    )
    for name, lhs, ideal, pairs in type2:
        checks.append(report.AuditCheck(name, lhs, ideal + extra, 1e-9, {"pairs": pairs}))
    # with the ancilla large enough that the additive term is dominated, the
    # type-2 acceptances stay within a factor two of the ideal values
    if extra <= min(ideal for _, _, ideal, _ in type2):
        for name, lhs, ideal, _ in type2:
            checks.append(report.AuditCheck(f"{name}_factor_two", lhs, 2.0 * ideal, 1e-9, {}))
    return checks


def minimal_ancilla_dim(delta: float, dz: int, i_values) -> int:
    """Smallest |L| for which 6 delta |Z| / sqrt(|L|) <= min_i 2^(-I_i)."""
    target = min(2.0 ** (-float(v)) for v in i_values)
    need = (6.0 * delta * dz / target) ** 2
    return max(2, int(math.ceil(need)))


def pgm(povms: list) -> tuple[list, np.ndarray]:
    """Pretty good measurement: Lambda_m = S^(-1/2) Pi_m S^(-1/2), S = sum Pi_m.

    Hausladen-Wootters 1994.  The inverse square root acts on the support of
    S; the returned abstain element completes the measurement to the identity
    and counts as an error.  This dense form builds dim x dim operators; the
    decoders use the factored pgm_success instead.
    """
    if not povms:
        raise ValueError("need at least one POVM element")
    dim = povms[0].shape[0]
    s_inv = qla.inv_sqrt_on_support(sum(povms))
    lambdas = [qla.hermitian_part(s_inv @ p @ s_inv) for p in povms]
    abstain = qla.hermitian_part(np.eye(dim) - sum(lambdas))
    return lambdas, abstain


def pgm_success(factors: list, states: list) -> np.ndarray:
    """Tr[Lambda_m rho_m] of the PGM over Pi_m = B_m B_m†, without S, Lambda_m or rho_m.

    Thin SVD G = [B_1 ... B_M] = U s V†, kept where qla.support_mask keeps
    s^2, the support of S = G G†: S^(-1/2) B_m = U V_m†, so
    Tr[Lambda_m rho_m] = Tr[V_m V_m† (U† rho_m U)], a |B_m| x rank product on
    the factored states (typicality.LowRankState).  Hausladen-Wootters 1994;
    the error is audited against Hayashi-Nagaoka 2003 (IEEE TIT 49(7)).
    """
    if not factors:
        raise ValueError("need at least one POVM element")
    u, s, vh = np.linalg.svd(np.hstack(factors), full_matrices=False)
    keep = qla.support_mask(s * s)
    u, vh = u[:, keep], vh[keep]
    edges = np.cumsum([0] + [b.shape[1] for b in factors])
    return np.array([
        typicality.povm_expectation(
            vh[:, lo:hi], typicality.LowRankState(u.conj().T @ st.factor, st.core, root=st.root)
        )
        for lo, hi, st in zip(edges[:-1], edges[1:], states)
    ])


def hayashi_nagaoka_slack(s: np.ndarray, t: np.ndarray) -> float | np.ndarray:
    """Minimum eigenvalue slack of 2(1-S) + 4T - (1 - G S G), G = (S+T)^(-1/2).

    Non-negative (within tolerance) for 0 <= S <= 1 and T >= 0; the inverse
    square root is taken on the support of S + T.  S and T may be (..., d, d)
    stacks, one pair per matrix, which give an array of slacks.
    """
    s = qla.hermitian_part(np.asarray(s, dtype=complex))
    t = qla.hermitian_part(np.asarray(t, dtype=complex))
    g = qla.inv_sqrt_on_support(s + t)
    dim = s.shape[-1]
    lhs = np.eye(dim) - g @ s @ g
    rhs = 2.0 * (np.eye(dim) - s) + 4.0 * t
    return np.linalg.eigvalsh(qla.hermitian_part(rhs - lhs))[..., 0]


def hayashi_nagaoka_bounds(
    type1: float, m1: int, m2: int, wrong_x: float, wrong_y: float, wrong_both: float
) -> dict:
    """Hayashi-Nagaoka expansion of the PGM error over m1 x m2 codeword pairs.

    wrong_x, wrong_y and wrong_both are the expected acceptances of a pair
    whose first, second or both codewords are wrong: hn = 2 type1 +
    4 (m1 - 1) wrong_x + 4 (m2 - 1) wrong_y + 4 (m1 - 1)(m2 - 1) wrong_both.
    """
    fallback, r1, r2 = 2.0 * type1, 4.0 * (m1 - 1) * wrong_x, 4.0 * (m2 - 1) * wrong_y
    both = 4.0 * (m1 - 1) * (m2 - 1) * wrong_both
    return {"fallback": fallback, "r1": r1, "r2": r2, "sum": both, "hn": fallback + r1 + r2 + both}


def pgm_trials(rates: tuple, bounds: dict, trials: int, seed: int, codebook) -> MacResult:
    """The exact PGM error of the codebooks seed, ..., seed + trials - 1.

    codebook(s) returns the POVM factors and the states of codebook s, one
    per message pair; the error is the mean over pairs of 1 - Tr[Lambda_m rho_m].
    """
    errors = np.empty(trials)
    rows = []
    for t in range(trials):
        success = pgm_success(*codebook(seed + t))
        errors[t] = sum(1.0 - float(s_m) for s_m in success) / len(success)
        rows.append((t, seed + t, errors[t]))
    return MacResult(rates, errors, bounds, rows)


def cq_corner_rates(dec: DecodingSet, eps: float) -> tuple[float, float]:
    """Theorem corner R_i = I_H - 1 - log2(1/eps), clamped at zero."""
    margin = 1.0 + np.log2(1.0 / eps)
    r1 = max(0.0, dec.i_x_yz - margin)
    r2 = max(0.0, dec.i_y_xz - margin)
    rsum = max(0.0, dec.i_xy_z - margin)
    if r1 + r2 > rsum:
        scale = rsum / (r1 + r2) if r1 + r2 > 0 else 0.0
        r1, r2 = r1 * scale, r2 * scale
    return r1, r2


def cq_mac_experiment(
    spec: CqChannelSpec,
    r1: float,
    r2: float,
    eps: float,
    dim_l: int,
    delta: float | None = None,
    trials: int = 100,
    seed: int = 0,
    dec: DecodingSet | None = None,
) -> MacResult:
    """Monte Carlo over codebooks of the PGM decoder on the perturbed channel.

    The exact error per codebook is 1 - mean_m Tr[Lambda_m rho'_m] (abstain
    counts as an error) from pgm_success on Pi_m = B_m B_m† and rho'_m =
    t rho_hat t†: with G = [B_1 ... B_M] = U s V†, Tr[Lambda_m rho'_m] =
    Tr[V_m V_m† U† rho'_m U], so no dim Z' operator is built (PGM:
    Hausladen-Wootters 1994).  Both run on the union of the codebook's label
    rows, outside which every B_m and tilt is zero.  The bounds are the
    theorem constant 49 sqrt(eps) and the Hayashi-Nagaoka 2003 expansion at
    the exact pipeline quantities.
    """
    if delta is None:
        delta = eps**0.25
    if dec is None:
        dec = build_decoding_povms(spec, dim_l, delta, eps)
    chan = dec.chan
    m1, m2 = message_count(r1), message_count(r2)

    q = pipeline_quantities(dec)
    bounds = {
        "total": 49.0 * np.sqrt(eps),
        "type1": q["type1"],
        **hayashi_nagaoka_bounds(q["type1"], m1, m2, q["t2_keep_y"], q["t2_keep_x"], q["t2_none"]),
        "i_x_yz": dec.i_x_yz,
        "i_y_xz": dec.i_y_xz,
        "i_xy_z": dec.i_xy_z,
    }

    tilt = chan.local_tilt(x=True, y=True)

    def codebook(cb_seed: int) -> tuple[list, list]:
        # every pair's factor and tilt placed on the union of the pairs' label
        # rows, at most (1 + m1 + m2) 2dz of Z'
        cb = Codebook.sample(cb_seed, m1, m2, spec.p_x, spec.p_y, dim_l=dim_l)
        pairs = [
            (cb.xs[i1], cb.lxs[i1], cb.ys[i2], cb.lys[i2])
            for i1 in range(m1)
            for i2 in range(m2)
        ]
        boxes = [chan.label_box(lx, ly) for _, lx, _, ly in pairs]
        rows = functools.reduce(typicality.Box.union, boxes)
        factors, states = [], []
        for b, (x, _, y, _) in zip(boxes, pairs):
            pos = rows.index(b.rows)
            factors.append(typicality.place(pos, rows.size, dec.local[x, y]))
            states.append(chan.letter_state(x, y, typicality.place(pos, rows.size, tilt)))
        return factors, states

    return pgm_trials((r1, r2), bounds, trials, seed, codebook)


# ---------------------------------------------------------------------------
# time-sharing variant


@dataclass(frozen=True)
class TimeSharingSpec:
    """cq-MAC with an auxiliary time-sharing letter conditioning both inputs."""

    states: np.ndarray  # (|X|, |Y|, dz, dz)
    p_u: np.ndarray
    p_x_given_u: np.ndarray  # (|U|, |X|)
    p_y_given_u: np.ndarray  # (|U|, |Y|)

    def __post_init__(self):
        s = np.asarray(self.states, dtype=complex)
        object.__setattr__(self, "states", s)
        p_u = np.asarray(self.p_u, dtype=float)
        if abs(p_u.sum() - 1.0) > 1e-10:
            raise ValueError("p_u must be a distribution")
        object.__setattr__(self, "p_u", p_u)
        for name in ("p_x_given_u", "p_y_given_u"):
            d = np.asarray(getattr(self, name), dtype=float)
            if np.any(np.abs(d.sum(axis=1) - 1.0) > 1e-10):
                raise ValueError(f"{name} rows must be distributions")
            object.__setattr__(self, name, d)

    @property
    def nu(self):
        return len(self.p_u)

    @property
    def dz(self):
        return self.states.shape[2]


def time_sharing_instance(
    spec: TimeSharingSpec, dim_l: int, delta: float, eps: float
) -> typicality.TypicalityInstance:
    """c = 3 (U, X, Y classical), k = 1 instance over the channel outputs.

    Classical coordinates -3, -2, -1 carry u, x, y; the conditional averaging
    weights of the instance reproduce p(x|u) p(y|u) automatically.
    """
    rhos = {}
    p_x = {}
    for u in range(spec.nu):
        for x in range(spec.p_x_given_u.shape[1]):
            for y in range(spec.p_y_given_u.shape[1]):
                w = float(spec.p_u[u] * spec.p_x_given_u[u, x] * spec.p_y_given_u[u, y])
                if w <= 0:
                    continue
                rhos[(u, x, y)] = np.asarray(spec.states[x, y], dtype=complex)
                p_x[(u, x, y)] = w
    return typicality.TypicalityInstance(
        c=3, k=1, dim_h=spec.dz, dim_l=dim_l, delta=delta,
        rhos=rhos, p_x=p_x, eps_total=eps,
    )


TS_SPLIT_X_WRONG = ((-3, -1, 1),)   # X resampled: keep (U, Y)
TS_SPLIT_Y_WRONG = ((-3, -2, 1),)   # Y resampled: keep (U, X)
TS_SPLIT_BOTH = ((-3, 1),)          # both resampled: keep U only


def time_sharing_experiment(
    spec: TimeSharingSpec,
    r1: float,
    r2: float,
    eps: float,
    dim_l: int,
    delta: float | None = None,
    trials: int = 20,
    seed: int = 0,
) -> MacResult:
    """PGM decoding over the c = 3 construction with conditional information rates.

    The three soundness traces of the intersection lemma at the splits that
    keep (U, Y), (U, X), and U alone are exactly the expected pairwise
    acceptances of wrong codewords, so the Hayashi-Nagaoka bound is assembled
    from the lemma audit.
    """
    if delta is None:
        delta = eps ** (1.0 / 3.0)
    inst = time_sharing_instance(spec, dim_l, delta, eps)
    lemma = typicality.intersection_lemma(inst)
    if not lemma.all_pass():
        bad = [c for c in lemma.checks if not c.passed]
        raise RuntimeError(f"lemma audit failed: {bad[0].describe()}")

    s = lemma.soundness
    i_x_yz_u = -np.log2(s[TS_SPLIT_X_WRONG]["dh_reject"])
    i_y_xz_u = -np.log2(s[TS_SPLIT_Y_WRONG]["dh_reject"])
    i_xy_z_u = -np.log2(s[TS_SPLIT_BOTH]["dh_reject"])

    type1 = 1.0 - sum(
        lemma.inst.p_x[x]
        * lemma.constructions[x].pi_prime_expectation(lemma.constructions[x].rho_prime)
        for x in lemma.inst.words()
    )
    m1, m2 = message_count(r1), message_count(r2)
    bounds = {
        "total": 2.0**135 * eps ** (1.0 / 3.0),
        "type1": type1,
        **hayashi_nagaoka_bounds(
            type1, m1, m2, s[TS_SPLIT_X_WRONG]["lhs"], s[TS_SPLIT_Y_WRONG]["lhs"],
            s[TS_SPLIT_BOTH]["lhs"],
        ),
        "i_x_yz_u": i_x_yz_u,
        "i_y_xz_u": i_y_xz_u,
        "i_xy_z_u": i_xy_z_u,
    }

    def codebook(cb_seed: int) -> tuple[list, list]:
        rng_u = codebook_rng(cb_seed, 0, 0)
        u = sample_symbol(spec.p_u, rng_u)
        l_u = int(rng_u.integers(dim_l))
        cb = Codebook.sample(
            cb_seed, m1, m2, spec.p_x_given_u[u], spec.p_y_given_u[u], dim_l=dim_l
        )
        constrs = []
        for i1 in range(m1):
            for i2 in range(m2):
                word = (u, int(cb.xs[i1]), int(cb.ys[i2]))
                l_assign = {-3: l_u, -2: int(cb.lxs[i1]), -1: int(cb.lys[i2]), 1: 0}
                constrs.append(lemma.constructions[word].relabeled(l_assign))
        return [c.b_factor for c in constrs], [c.rho_prime for c in constrs]

    return pgm_trials((r1, r2), bounds, trials, seed, codebook)
