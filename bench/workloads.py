"""The three workloads: set-up, one unit, and the checks of one unit's outputs.

A workload object is built once per process (that is its set-up).  ``unit``
is the timed call into the program; ``check`` runs afterwards, untimed, and
records one entry per operation in an ``Outcome``.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, field

from oneshot import audits, cli, hyptest, mac, typicality
from oneshot.rand import random_density, random_distribution, rng_from_seed

import checks

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Outcome:
    """Operations attempted and failed; failures outside the known fault are kept."""

    attempted: int = 0
    failed: int = 0
    known_fault_failed: int = 0
    unexpected: list = field(default_factory=list)

    def add(self, messages: list, known_fault: bool = False) -> None:
        self.attempted += 1
        if not messages:
            return
        self.failed += 1
        if known_fault:
            self.known_fault_failed += 1
        else:
            self.unexpected.extend(messages)


class Workload:
    """Defaults shared by the workloads."""

    REF_REPS = 2  # reference runs before each unit, about a tenth of its time

    def __init__(self, out_dir: str):
        pass

    def unit_seed(self, run_seed: int, i: int) -> int:
        """A distinct non-negative seed for unit i of a run."""
        return (int(run_seed) % 2**31) * 100_003 + i

    def finish(self, outcome: Outcome) -> None:
        pass


class CqMac(Workload):
    """One in-process ``oneshot mac cq`` job of TRIALS codebooks of 2 x 2 messages."""

    name = "cq_mac"
    TRIALS = 2
    REF_REPS = 4

    def __init__(self, out_dir: str):
        self.config = os.path.join(BENCH_DIR, "cq_mac.txt")
        self.out = os.path.join(out_dir, "cq_mac")
        with open(self.config) as fh:
            cfg = cli.parse_kv(fh.read())
        self.spec = cli.load_cq_spec(cfg)
        eps = float(cfg["epsilon"])
        self.dim_l = int(cfg["l_dim"])
        self.dec = mac.build_decoding_povms(self.spec, self.dim_l, eps**0.25, eps)
        mac.cq_corner_rates(self.dec, eps)
        self.m1 = mac.message_count(float(cfg["r1"]))
        self.m2 = mac.message_count(float(cfg["r2"]))
        self.first: tuple | None = None

    def unit_seed(self, run_seed: int, i: int) -> int:
        return super().unit_seed(run_seed, i) * self.TRIALS

    def unit(self, i: int, seed: int, out: str | None = None) -> int:
        argv = ["mac", "cq", self.config, "--trials", str(self.TRIALS), "--seed", str(seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv + ["--out", out or self.out])

    def _read(self, out: str) -> tuple[bytes, bytes]:
        with open(os.path.join(out, "trials.csv"), "rb") as fh:
            csv = fh.read()
        with open(os.path.join(out, "summary.json"), "rb") as fh:
            summary = fh.read()
        return csv, summary

    def codebook(self, seed: int) -> tuple[list, list]:
        """Decoding POVM elements and perturbed outputs of every message pair."""
        cb = mac.Codebook.sample(
            seed, self.m1, self.m2, self.spec.p_x, self.spec.p_y, dim_l=self.dim_l
        )
        povms, states = [], []
        for i1 in range(self.m1):
            for i2 in range(self.m2):
                letters = (cb.xs[i1], cb.lxs[i1], cb.ys[i2], cb.lys[i2])
                povms.append(self.dec.povm(*letters))
                states.append(self.dec.chan.rho_prime(*letters))
        return povms, states

    def check(self, i: int, seed: int, rc: int, outcome: Outcome) -> None:
        csv, summary = self._read(self.out)
        if self.first is None:
            self.first = (seed, csv, summary)
        rows = [line.split(",") for line in csv.decode().splitlines()[1:]]
        unit_msgs = [] if rc == 0 else [f"oneshot mac cq exited with {rc}"]
        if len(rows) != self.TRIALS:
            unit_msgs.append(f"trials.csv has {len(rows)} rows, expected {self.TRIALS}")
        for t in range(self.TRIALS):
            msgs = list(unit_msgs)
            if t < len(rows):
                trial_seed = int(rows[t][1])
                if trial_seed != seed + t:
                    msgs.append(f"trial {t} has seed {trial_seed}, expected {seed + t}")
                povms, states = self.codebook(seed + t)
                exact = checks.pgm_free_error(povms, states) if t == 0 else None
                msgs += checks.check_codebook(
                    float(rows[t][2]), checks.hn_expansion(povms, states), exact
                )
            outcome.add(msgs)

    def finish(self, outcome: Outcome) -> None:
        """Replay the first unit's seed and compare the output bytes."""
        seed, csv, summary = self.first
        replay = os.path.join(self.out, "replay")
        rc = self.unit(0, seed, out=replay)
        csv2, summary2 = self._read(replay)
        msgs = [] if rc == 0 else [f"replay exited with {rc}"]
        msgs += checks.check_identical("trials.csv", csv, csv2)
        msgs += checks.check_identical("summary.json", summary, summary2)
        outcome.add(msgs)


class TypicalityAudit(Workload):
    """One ``typicality.intersection_lemma`` call on a seeded random instance."""

    name = "typicality_audit"
    C, K, DIM_H, DIM_L, EPS = 0, 2, 2, 4, 0.2
    DELTAS = (0.2, 0.4)
    # the check names acceptance criterion 5 requires
    REQUIRED = (
        "claim1_trace_norm",
        "claim2_m_norm",
        "claim2_n_norm",
        "claim3_l1_distance",
        "split_sector_coherence",
        "split_m_trace",
        "claim6_soundness",
        "claim4_prop6_chain",
        "completeness_gao_chain",
    )

    def unit(self, i: int, seed: int):
        delta = self.DELTAS[i % len(self.DELTAS)]
        inst = audits.random_instance(
            seed, self.C, self.K, self.DIM_H, self.DIM_L, delta, self.EPS
        )
        return typicality.intersection_lemma(inst)

    def check(self, i: int, seed: int, res, outcome: Outcome) -> None:
        records = [(c.name, c.lhs, c.rhs, c.tol) for c in res.checks]
        msgs = checks.check_audit_records(records, self.REQUIRED)
        constr = res.constructions[()]
        v, core = constr.v_global, constr.rho_hat
        msgs += checks.check_factored_state(v, core)
        msgs += checks.check_close(
            "pi_prime_expectation",
            constr.pi_prime_expectation(constr.rho_prime),
            checks.povm_trace(constr.b_factor, v, core),
            1e-10,
        )
        space = res.inst.space
        sites = typicality.quantum_sites(self.K)
        dims = [space.site_dim(s) for s in sites]
        for s in sites:
            msgs += checks.check_matrix_close(
                f"factored_partial_trace site {s}",
                typicality.factored_partial_trace(space, constr.rho_prime, [s]),
                checks.site_partial_trace(v, core, dims, s - 1),
                1e-10,
            )
        outcome.add(msgs)


class SmallAudits(Workload):
    """One round of the seeded small-matrix suites plus the rank-deficient D_H batch."""

    name = "small_audits"
    TILTING, A_TILTING, GAO, HN = 200, 100, 100, 100
    DH = {"commuting_pairs": 40, "bipartite_states": 20, "optimality_instances": 2}
    # the recipe of the rank-deficient D_H repro; fixed seeds, not the run seed
    RANK_DEFICIENT_SEEDS = range(200)

    def __init__(self, out_dir: str):
        self.batch = []
        for s in self.RANK_DEFICIENT_SEEDS:
            rng = rng_from_seed(s)
            d = int(rng.integers(2, 7))
            rho = random_density(rng, d)
            sigma = random_density(rng, d, rank=int(rng.integers(1, d + 1)))
            eps = float(rng.uniform(0.01, 0.9))
            if checks.kernel_mass(rho, sigma) >= 1.0 - eps:
                self.batch.append((rho, sigma, eps))

    def unit(self, i: int, seed: int):
        suites = (
            audits.audit_tilting(self.TILTING, seed)
            + audits.audit_a_tilting(self.A_TILTING, seed)
            + audits.audit_gao(self.GAO, seed)
            + audits.audit_hn(self.HN, seed)
            + audits.audit_dh(seed=seed, **self.DH)
        )
        batch = []
        for rho, sigma, eps in self.batch:
            try:
                batch.append(hyptest.quantum_optimal_test(rho, sigma, eps).test)
            except ValueError as exc:
                batch.append(exc)
        return suites, batch

    def commuting_pair(self, seed: int, t: int):
        """The inputs audit_dh draws for its commuting pair t."""
        rng = rng_from_seed(seed * 2_000_003 + t)
        n = int(rng.integers(2, 7))
        p = random_distribution(rng, n)
        q = random_distribution(rng, n)
        return p, q, float(rng.uniform(0.02, 0.95))

    def check(self, i: int, seed: int, result, outcome: Outcome) -> None:
        suites, batch = result
        for c in suites:
            msgs = checks.check_audit_records([(c.name, c.lhs, c.rhs, c.tol)])
            if c.name == "dh_commuting_agreement":
                p, q, eps = self.commuting_pair(seed, c.params["trial"])
                if eps != c.params["eps"]:
                    msgs.append("commuting pair inputs do not match the audit's")
                res = hyptest.dh_classical(p, q, eps)
                msgs += checks.check_classical_test(
                    res.test, res.reject_mass, p, q, eps, checks.lp_min_rejection(p, q, eps)
                )
            outcome.add(msgs)
        for (rho, sigma, eps), test in zip(self.batch, batch):
            if isinstance(test, Exception):
                msgs = [f"quantum_optimal_test raised: {test}"]
            else:
                msgs = checks.check_zero_rejection_test(test, rho, sigma, eps)
            outcome.add(msgs, known_fault=True)


WORKLOADS = {w.name: w for w in (CqMac, TypicalityAudit, SmallAudits)}
