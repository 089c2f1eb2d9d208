"""Acceptance criteria, one test per criterion, with a printed verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  Criterion 6's quadratic perturbation target is
mathematically unattainable: the tilted block sits at trace distance
2 sqrt(2 d^2 / (1 + 2 d^2)) from the embedded original, first order in the
tilt amplitude, which exceeds 4 d^2 for every d < 0.93.  That single check
is kept as a strict expected failure; every other bound is asserted as
written.  Criterion 10 is the first with more than one message per codebook
in acceptance: the packing side of the cq MAC theorem on an adder channel.
"""

import json
import time

import numpy as np
import pytest

from oneshot import audits, cli, mac

EPS_CQ = 0.01
DELTA_CQ = EPS_CQ**0.25
DIM_L_CQ = 64
CQ_CONFIG = "configs/cq_mac_small.txt"


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


def _failures(checks):
    return [c for c in checks if not c.passed]


@pytest.fixture(scope="module")
def cq_setup():
    spec = cli.load_cq_spec(cli.parse_kv(open(CQ_CONFIG).read()))
    dec = mac.build_decoding_povms(spec, DIM_L_CQ, DELTA_CQ, EPS_CQ)
    return spec, dec


def test_criterion_1_tilting_sandwich():
    t0 = time.time()
    checks = audits.audit_tilting(trials=1000, seed=11, dim_max=8, l_max=4)
    elapsed = time.time() - t0
    bad = _failures(checks)
    ok = not bad and elapsed < 10.0
    verdict(1, ok, f"1000 instances, min slack {min(c.slack for c in checks):.2e}, {elapsed:.1f}s")
    assert not bad, bad[0].describe()
    assert elapsed < 10.0


def test_criterion_2_a_tilting_sandwich():
    t0 = time.time()
    checks = audits.audit_a_tilting(trials=500, seed=12, dim_max=8, l_max=4)
    elapsed = time.time() - t0
    bad = _failures(checks)
    ok = not bad and elapsed < 20.0
    verdict(2, ok, f"500 instances, min slack {min(c.slack for c in checks):.2e}, {elapsed:.1f}s")
    assert not bad, bad[0].describe()
    assert elapsed < 20.0


def test_criterion_3_dh_correctness():
    t0 = time.time()
    checks = audits.audit_dh(
        commuting_pairs=200, bipartite_states=100, optimality_instances=50, seed=13
    )
    elapsed = time.time() - t0
    names = {c.name for c in checks}
    assert {"dh_commuting_agreement", "dh_self_distance", "ih_dimension_bound"} <= names
    n_pairs = sum(1 for c in checks if c.name == "dh_commuting_agreement")
    n_bi = sum(1 for c in checks if c.name == "ih_dimension_bound")
    assert n_pairs == 200 and n_bi == 100
    bad = _failures(checks)
    ok = not bad and elapsed < 30.0
    verdict(3, ok, f"200 commuting pairs, 100 bipartite states, {elapsed:.1f}s")
    assert not bad, bad[0].describe()
    assert elapsed < 30.0


def test_criterion_4_operator_inequalities():
    t0 = time.time()
    checks = audits.audit_gao(trials=200, seed=14, dim_max=6) + audits.audit_hn(
        trials=200, seed=14, dim_max=6
    )
    elapsed = time.time() - t0
    bad = _failures(checks)
    ok = not bad and elapsed < 30.0
    verdict(4, ok, f"200 + 200 instances, min slack {min(c.slack for c in checks):.2e}, {elapsed:.1f}s")
    assert not bad, bad[0].describe()
    assert elapsed < 30.0


def test_criterion_5_appendix_construction_audit():
    t0 = time.time()
    checks = audits.audit_typicality(
        n_states=20, seed=15, c=0, k=2, dim_h=2, dim_l=4, deltas=(0.2, 0.4), eps=0.2
    )
    elapsed = time.time() - t0
    names = {c.name for c in checks}
    for needed in (
        "claim1_trace_norm",
        "claim2_m_norm",
        "claim2_n_norm",
        "claim3_l1_distance",
        "split_sector_coherence",
        "split_m_trace",
        "claim6_soundness",
        "claim4_prop6_chain",
        "completeness_gao_chain",
    ):
        assert needed in names, needed
    bad = _failures(checks)
    ok = not bad and elapsed < 300.0
    verdict(
        5, ok, f"20 states x 2 deltas, {len(checks)} checks, {elapsed:.1f}s"
    )
    assert not bad, bad[0].describe()
    assert elapsed < 300.0


def test_criterion_6_cq_pipeline(cq_setup):
    spec, dec = cq_setup
    t0 = time.time()
    checks = mac.pipeline_checks(dec)
    elapsed = time.time() - t0
    by_name = {}
    for c in checks:
        by_name.setdefault(c.name, []).append(c)
    by_name.pop("perturbation_l1_stated")
    bad = _failures([c for group in by_name.values() for c in group])
    ok = not bad and elapsed < 120.0
    verdict(
        6,
        ok,
        "type-1/smoothing/type-2 hold; the 4d^2 perturbation target is tested "
        f"separately as a strict expected failure; {elapsed:.1f}s",
    )
    assert not bad, bad[0].describe()
    assert all(c.passed for c in by_name["perturbation_l1_first_order"])
    assert elapsed < 120.0


@pytest.mark.xfail(
    strict=True,
    reason="the l1 perturbation target 4*delta^2 is violated by direct computation: "
    "the true distance is 2*sqrt(2 d^2/(1+2 d^2)), first order in delta, which "
    "exceeds 4 d^2 for every delta < 0.93; the criterion is kept as written",
)
def test_criterion_6_perturbation_stated_bound(cq_setup):
    spec, dec = cq_setup
    q = mac.pipeline_quantities(dec)
    assert q["max_perturbation"] <= 4.0 * DELTA_CQ**2 + 1e-9


def test_criterion_7_end_to_end_theorem(cq_setup):
    spec, dec = cq_setup
    t0 = time.time()
    r1, r2 = mac.cq_corner_rates(dec, EPS_CQ)
    res = mac.cq_mac_experiment(
        spec, r1, r2, EPS_CQ, DIM_L_CQ, DELTA_CQ, trials=100, seed=70, dec=dec
    )
    elapsed = time.time() - t0
    slack = 3.0 * res.mc_sem
    theorem_ok = res.mc_mean <= 49.0 * np.sqrt(EPS_CQ) + slack + 1e-12
    clamped = mac.message_count(r1) == 1 and mac.message_count(r2) == 1
    fallback_ok = (not clamped) or res.mc_mean <= res.bounds["fallback"] + slack + 1e-12
    ok = theorem_ok and fallback_ok and elapsed < 600.0
    detail = (
        f"rates ({r1:.3g}, {r2:.3g}), mean {res.mc_mean:.4f} "
        f"vs 49 sqrt(eps) = {49 * np.sqrt(EPS_CQ):.3f}"
    )
    if clamped:
        detail += f"; clamped to 0 -> fallback 2*type1 = {res.bounds['fallback']:.4f}"
    verdict(7, ok, detail + f", {elapsed:.1f}s")
    assert len(res.errors) >= 100
    assert theorem_ok
    assert fallback_ok
    assert elapsed < 600.0


def test_criterion_8_classical_reproduction():
    t0 = time.time()
    spec = cli.load_classical_spec(cli.parse_kv(open("configs/classical_mac_small.txt").read()))
    eps = 0.05
    info = mac.classical_information_quantities(spec, eps)
    r1, r2 = mac.classical_corner_rates(info, eps)
    res = mac.classical_mac_experiment(spec, r1, r2, eps, trials=500, seed=80)
    elapsed = time.time() - t0
    slack = 3.0 * res.mc_sem
    ok = res.mc_mean <= 6.0 * eps + slack + 1e-12 and elapsed < 60.0
    verdict(
        8,
        ok,
        f"corner rates ({r1:.3g}, {r2:.3g}), mean {res.mc_mean:.4f} vs 6 eps = {6 * eps}, "
        f"{elapsed:.1f}s",
    )
    assert res.mc_mean <= 6.0 * eps + slack + 1e-12
    assert elapsed < 60.0


def test_criterion_9_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        code = cli.main(
            ["mac", "cq", CQ_CONFIG, "--trials", "100", "--seed", "70", "--out", out]
        )
        assert code == 0
        outs.append(out)
    csv_a = open(f"{outs[0]}/trials.csv", "rb").read()
    csv_b = open(f"{outs[1]}/trials.csv", "rb").read()
    json_a = open(f"{outs[0]}/summary.json", "rb").read()
    json_b = open(f"{outs[1]}/summary.json", "rb").read()
    ok = csv_a == csv_b and json_a == json_b
    verdict(9, ok, f"two seeded runs, CSV {len(csv_a)} bytes byte-identical: {csv_a == csv_b}")
    assert csv_a == csv_b
    assert json_a == json_b


def test_criterion_10_cq_packing_with_messages(tmp_path):
    # the adder z = x + y mod 8 at rates (1, 0): two messages for the first
    # sender, and a Hayashi-Nagaoka expansion that could fail, below 1
    t0 = time.time()
    out = str(tmp_path / "adder")
    code = cli.main(["mac", "cq", "configs/cq_adder8.txt", "--trials", "20", "--seed", "0", "--out", out])
    elapsed = time.time() - t0
    with open(f"{out}/summary.json") as fh:
        summary = json.load(fh)
    hn, mean = summary["bounds"]["hn"], summary["mc_mean"]
    ok = code == 0 and hn < 1.0 and mean <= hn
    verdict(
        10,
        ok,
        f"8-letter adder, rates {summary['rates']}, mean {mean:.4f} vs hn = {hn:.4f} "
        f"over 20 codebooks, {elapsed:.1f}s",
    )
    assert code == 0
    assert summary["rates"] == [1.0, 0.0]
    assert hn < 1.0
    assert mean <= hn
