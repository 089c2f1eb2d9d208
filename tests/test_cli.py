import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dh_oracle import bisection_test
from oneshot import audits, cli, hyptest, mac, rand, typicality


def run(args):
    return cli.main(args)


@pytest.fixture()
def outdir(tmp_path):
    return str(tmp_path / "out")


class TestParsing:
    def test_parse_kv_comments_and_blank(self):
        cfg = cli.parse_kv("# comment\n\na = 1\nb = two words # trailing\n")
        assert cfg == {"a": "1", "b": "two words"}

    def test_parse_kv_rejects_garbage(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_kv("not a key value line\n")

    def test_complex_matrix_round_trip(self):
        m = np.array([[1 + 2j, 0], [0.5j, -1]])
        lines = cli.format_complex_matrix(m)
        cfg = {"m.dims": lines[0].split("=")[1], "m": lines[1].split("=")[1]}
        back = cli.parse_complex_matrix(cfg, "m")
        np.testing.assert_allclose(back, m)


class TestParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_runs_parse_independently(self, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run(["audit", "hn", "--trials", "3", "--seed", "2", "--out", out_a]) == 0
        assert run(["audit", "hn", "--trials", "4", "--out", out_b]) == 0
        a = json.load(open(os.path.join(out_a, "audit_hn.json")))
        b = json.load(open(os.path.join(out_b, "audit_hn.json")))
        assert (a["seed"], len(a["checks"])) == (2, 3)
        assert (b["seed"], len(b["checks"])) == (0, 4)

    def test_patched_handler_runs_after_first_call(self, monkeypatch, outdir):
        cfg = "configs/classical_mac_small.txt"
        assert run(["mac", "classical", cfg, "--trials", "1", "--out", outdir]) == 0
        calls = []
        original = cli.cmd_mac

        def wrapper(args):
            calls.append(args.mode)
            return original(args)

        monkeypatch.setattr(cli, "cmd_mac", wrapper)
        assert run(["mac", "classical", cfg, "--trials", "1", "--out", outdir]) == 0
        assert calls == ["classical"]


class TestDh:
    def test_classical(self, tmp_path, outdir, capsys):
        path = tmp_path / "in.txt"
        path.write_text("mode = classical\np = 1 0\nq = 0.5 0.5\nepsilon = 0\n")
        assert run(["dh", str(path), "--out", outdir]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(1.0, abs=1e-12)
        assert os.path.exists(os.path.join(outdir, "test.txt"))

    def test_quantum_equal_states(self, tmp_path, outdir, capsys):
        path = tmp_path / "in.txt"
        path.write_text(
            "mode = quantum\n"
            "rho.dims = 2 2\nrho = 0.5 0 0 0 0 0 0.5 0\n"
            "sigma.dims = 2 2\nsigma = 0.5 0 0 0 0 0 0.5 0\n"
            "epsilon = 0.5\n"
        )
        assert run(["dh", str(path), "--out", outdir]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(1.0, abs=1e-9)

    def test_quantum_matches_classical_on_diagonals(self, tmp_path, outdir, capsys):
        qpath = tmp_path / "q.txt"
        qpath.write_text(
            "mode = quantum\n"
            "rho.dims = 2 2\nrho = 0.7 0 0 0 0 0 0.3 0\n"
            "sigma.dims = 2 2\nsigma = 0.2 0 0 0 0 0 0.8 0\n"
            "epsilon = 0.1\n"
        )
        cpath = tmp_path / "c.txt"
        cpath.write_text("mode = classical\np = 0.7 0.3\nq = 0.2 0.8\nepsilon = 0.1\n")
        run(["dh", str(qpath), "--out", outdir])
        vq = float(capsys.readouterr().out.strip())
        run(["dh", str(cpath), "--out", outdir])
        vc = float(capsys.readouterr().out.strip())
        assert vq == pytest.approx(vc, abs=1e-8)

    def test_quantum_near_singular_config(self, outdir, capsys):
        # the alternate's smallest eigenvalue is 3.3e-9 and the multiplier about 3e8
        assert run(["dh", "configs/dh_near_singular.txt", "--out", outdir]) == 0
        value = float(capsys.readouterr().out.strip())
        with open("configs/dh_near_singular.txt") as fh:
            cfg = cli.parse_kv(fh.read())
        rho = cli.parse_complex_matrix(cfg, "rho")
        sigma = cli.parse_complex_matrix(cfg, "sigma")
        ref = bisection_test(rho, sigma, float(cfg["epsilon"]))
        # the alternate mass is 3.2e-9, and either solver's Tr[Pi sigma]
        # carries rounding of about ulp * ||sigma|| ~ 1e-17: 5e-9 of it, or
        # 7e-9 bits, so the masses are compared, not the bits
        assert abs(2.0**-value - ref.reject_mass) <= 1e-16

    def test_malformed_exits_2(self, tmp_path, outdir, capsys):
        path = tmp_path / "in.txt"
        path.write_text("mode = classical\np = 1 0\n")  # missing q, epsilon
        assert run(["dh", str(path), "--out", outdir]) == 2
        assert "error:" in capsys.readouterr().err

    HALF = ("2 2", "0.5 0 0 0 0 0 0.5 0")
    WIDE = ("2 3", "0.5 0 0 0 0 0 0 0 0.5 0 0 0")

    @pytest.mark.parametrize(
        "rho, sigma, message",
        [
            # trace 1 but an eigenvalue -1
            (("2 2", "2 0 0 0 0 0 -1 0"), HALF, "rho: minimum eigenvalue"),
            # off-diagonals 0.7 and 0.2
            (("2 2", "0.5 0 0.7 0 0.2 0 0.5 0"), HALF, "rho: matrix is not Hermitian"),
            # an alternate of any trace is solved, but not one with an eigenvalue -0.5
            (HALF, ("2 2", "1.5 0 0 0 0 0 -0.5 0"), "sigma: minimum eigenvalue"),
            (WIDE, WIDE, "rho: expected a square matrix"),
        ],
    )
    def test_quantum_invalid_matrix_exits_2(self, tmp_path, outdir, capsys, rho, sigma, message):
        path = tmp_path / "in.txt"
        path.write_text(
            "mode = quantum\n"
            f"rho.dims = {rho[0]}\nrho = {rho[1]}\n"
            f"sigma.dims = {sigma[0]}\nsigma = {sigma[1]}\n"
            "epsilon = 0.1\n"
        )
        assert run(["dh", str(path), "--out", outdir]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: {message}" in captured.err
        assert not os.path.exists(os.path.join(outdir, "test.txt"))


class TestAudit:
    def test_tilting_passes(self, outdir, capsys):
        assert run(["audit", "tilting", "--trials", "30", "--out", outdir]) == 0
        payload = json.load(open(os.path.join(outdir, "audit_tilting.json")))
        assert payload["pass"] is True
        assert all("seed" in c["params"] for c in payload["checks"])

    def test_hn_and_gao(self, outdir):
        assert run(["audit", "hn", "--trials", "25", "--out", outdir]) == 0
        assert run(["audit", "gao", "--trials", "25", "--out", outdir]) == 0

    def test_typicality_report_lists_claims(self, outdir):
        assert run(
            ["audit", "typicality", "--trials", "1", "--k", "1", "--c", "0",
             "--L", "2", "--out", outdir]
        ) == 0
        payload = json.load(open(os.path.join(outdir, "audit_typicality.json")))
        names = {c["name"] for c in payload["checks"]}
        for expected in (
            "claim1_trace_norm",
            "claim2_m_norm",
            "claim2_n_norm",
            "claim3_l1_distance",
            "claim4_prop6_chain",
            "claim5_identity",
            "claim6_soundness",
            "lemma_claim4_soundness",
        ):
            assert expected in names


class TestMac:
    def test_classical_small_config(self, outdir):
        assert run(
            ["mac", "classical", "configs/classical_mac_small.txt",
             "--trials", "30", "--out", outdir]
        ) == 0
        summary = json.load(open(os.path.join(outdir, "summary.json")))
        assert summary["pass"] is True
        lines = open(os.path.join(outdir, "trials.csv")).read().splitlines()
        assert lines[0] == ",".join(cli.CSV_COLUMNS)
        assert len(lines) == 31

    def test_cq_small_config(self, outdir):
        assert run(
            ["mac", "cq", "configs/cq_mac_small.txt", "--trials", "3", "--out", outdir]
        ) == 0
        summary = json.load(open(os.path.join(outdir, "summary.json")))
        assert summary["pass"] is True

    def test_wide_label_alphabet_in_little_memory(self, outdir):
        # |L| = 2^20 gives dim Z' = 8388612 rows; the decoder only touches
        # the 6 dz rows of each label pair
        tracemalloc.start()
        try:
            rc = run(["mac", "cq", "configs/cq_mac_wide.txt", "--trials", "2", "--out", outdir])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 50e6

    def test_seed_determinism(self, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out_a, out_b):
            run(["mac", "classical", "configs/classical_mac_small.txt",
                 "--trials", "20", "--seed", "7", "--out", out])
        assert open(os.path.join(out_a, "trials.csv")).read() == open(
            os.path.join(out_b, "trials.csv")
        ).read()
        assert open(os.path.join(out_a, "summary.json")).read() == open(
            os.path.join(out_b, "summary.json")
        ).read()

    def test_expect_fail_flag(self, tmp_path, outdir, capsys):
        # rates far above the region: the decoder cannot keep up; with the
        # flag the violation is reported without the failure exit code
        cfg = open("configs/classical_mac_small.txt").read()
        cfg = cfg.replace("r1 = auto", "r1 = 3.0").replace("r2 = auto", "r2 = 3.0")
        path = tmp_path / "hot.txt"
        path.write_text(cfg)
        code = run(["mac", "classical", str(path), "--trials", "10",
                    "--expect-fail", "--out", outdir])
        assert code == 0
        summary = json.load(open(os.path.join(outdir, "summary.json")))
        assert summary["expect_fail"] is True
        assert summary["pass"] is False
        code2 = run(["mac", "classical", str(path), "--trials", "10", "--out", outdir])
        assert code2 == 1

    def test_malformed_config_exits_2(self, tmp_path, outdir):
        path = tmp_path / "bad.txt"
        path.write_text("mode = classical\nepsilon = 0.05\n")
        assert run(["mac", "classical", str(path), "--out", outdir]) == 2


class TestTypicalityBuild:
    def test_build_report(self, outdir):
        assert run(
            ["typicality-build", "--k", "1", "--c", "0", "--L", "2",
             "--delta", "0.3", "--out", outdir]
        ) == 0
        payload = json.load(open(os.path.join(outdir, "typicality_build.json")))
        assert payload["pass"] is True
        assert payload["soundness"]

    def test_three_sites(self, outdir, capsys):
        # the images are orthonormalised on 960 layout rows of the 8000-row box
        assert run(["typicality-build", "--k", "3", "--c", "0", "--L", "2", "--out", outdir]) == 0
        assert "typicality-build: 208/208 checks passed" in capsys.readouterr().out

    def test_replay_writes_the_same_bytes(self, tmp_path):
        # states share roots through a memo keyed on their bytes; the second
        # run also starts on the shape caches the first one filled
        reports = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert run(["typicality-build", "--out", out]) == 0
            reports.append(open(os.path.join(out, "typicality_build.json"), "rb").read())
        assert reports[0] == reports[1]


@pytest.fixture(scope="module")
def c1_k2_runs(tmp_path_factory):
    """typicality-build and audit typicality at c = 1, k = 2, L = 2, each run once."""
    runs = {}
    for name, argv, report_file in (
        ("build", ["typicality-build"], "typicality_build.json"),
        ("audit", ["audit", "typicality", "--trials", "1"], "audit_typicality.json"),
    ):
        out = str(tmp_path_factory.mktemp(name))
        rc = run(argv + ["--c", "1", "--k", "2", "--L", "2", "--out", out])
        runs[name] = (rc, json.load(open(os.path.join(out, report_file))))
    return runs


class TestTwoSitesOneCoordinate:
    """A'' has 5776 rows here; the block marginals live on 784-row box unions."""

    @pytest.mark.parametrize("name", ["build", "audit"])
    def test_runs_the_audit(self, c1_k2_runs, name):
        rc, payload = c1_k2_runs[name]
        assert rc in (0, 1)  # audited, not rejected
        assert len(payload["checks"]) > 250
        for check in payload["checks"]:
            assert check["pass"], check

    @pytest.mark.parametrize("name", ["build", "audit"])
    def test_exits_0(self, c1_k2_runs, name):
        assert c1_k2_runs[name][0] == 0


class TestRejectedInput:
    def test_dimension_cap_exits_2(self, monkeypatch, outdir, capsys):
        monkeypatch.setenv("ONESHOT_DIM_CAP", "10")
        assert run(["typicality-build", "--out", outdir]) == 2
        assert run(["audit", "typicality", "--trials", "1", "--out", outdir]) == 2
        err = capsys.readouterr().err
        assert err.count("error: per-site dimension") == 2

    def test_oversized_space_rejected_before_any_solve(self, monkeypatch, outdir, capsys):
        # --c 6 --k 1 asks for 250004 rows per site: refused before any D_H solve
        def forbidden(*args, **kwargs):
            raise AssertionError("D_H solve before the size check")

        monkeypatch.setattr(hyptest, "quantum_optimal_test", forbidden)
        assert run(["typicality-build", "--c", "6", "--k", "1", "--out", outdir]) == 2
        assert "error: per-site dimension 250004 exceeds cap" in capsys.readouterr().err

    def test_oversized_space_rejected_before_any_state(self, monkeypatch, outdir, capsys):
        # --c 16 --k 1 would draw 2^16 word states before the space is built
        def forbidden(*args, **kwargs):
            raise AssertionError("state drawn before the size check")

        monkeypatch.setattr(rand, "random_density", forbidden)
        monkeypatch.setattr(audits, "random_density", forbidden)
        assert run(["typicality-build", "--c", "16", "--k", "1", "--out", outdir]) == 2
        assert "error: per-site dimension" in capsys.readouterr().err

    @pytest.mark.parametrize("k, c", [(4, 0), (3, 2)])
    @pytest.mark.parametrize(
        "argv", [["typicality-build"], ["audit", "typicality", "--trials", "1"]]
    )
    def test_widest_array_over_budget_exits_2(self, argv, k, c, monkeypatch, outdir, capsys):
        # each site is within the per-site cap, but the stacked label copies of
        # a block marginal have 6.7e8 entries at --k 4 and 2.1e8 at --k 3 --c 2
        def forbidden(*args, **kwargs):
            raise AssertionError("state drawn before the budget check")

        monkeypatch.setattr(rand, "random_density", forbidden)
        monkeypatch.setattr(audits, "random_density", forbidden)
        assert run(argv + ["--k", str(k), "--c", str(c), "--L", "2", "--out", outdir]) == 2
        assert "error: the widest array of the construction has" in capsys.readouterr().err
        assert not os.path.exists(outdir)

    def test_three_sites_one_coordinate_within_budget(self, monkeypatch, outdir):
        # the tilted images of --k 3 --c 1 --L 2 stack on 3008 layout rows, not
        # on the 46656 box rows, so the budget admits the shape and states are drawn
        class Reached(Exception):
            pass

        def lemma(inst):
            raise Reached

        monkeypatch.setattr(typicality, "intersection_lemma", lemma)
        with pytest.raises(Reached):
            run(["typicality-build", "--k", "3", "--c", "1", "--L", "2", "--out", outdir])

    @pytest.mark.parametrize(
        "c, k, dim_l", [(1, 1, 2), (1, 2, 2), (2, 2, 2), (0, 3, 2), (3, 1, 4), (0, 2, 4)]
    )
    def test_ci_shapes_within_budget(self, c, k, dim_l, monkeypatch):
        # every typicality shape the CI workflow runs, at |H| = 2
        monkeypatch.delenv("ONESHOT_DIM_CAP", raising=False)
        typicality.check_budget("the widest array", typicality.widest_array(c, k, 2, dim_l))

    @pytest.mark.parametrize(
        "argv",
        [
            ["mac", "cq", "configs/cq_mac_small.txt", "--trials", "0"],
            ["mac", "classical", "configs/classical_mac_small.txt", "--trials", "-2"],
            ["audit", "hn", "--trials", "-3"],
            ["audit", "typicality", "--trials", "0"],
        ],
    )
    def test_nonpositive_trials_exit_2(self, argv, outdir, capsys):
        # a non-positive count is rejected, not replaced by the default count
        # or run as an empty (vacuously passing) audit
        assert run(argv + ["--out", outdir]) == 2
        assert "error: trials must be at least 1" in capsys.readouterr().err
        assert not os.path.exists(outdir)

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--eps", "4"], "eps_total 4.0 / splits 4 = share 1.0 per split"),
            (["--k", "1", "--c", "0", "--eps", "1.5"], "eps_total 1.5 / splits 1 = share 1.5 per split"),
            (["--eps", "-0.1"], "eps_total -0.1 / splits 4 = share -0.025 per split"),
        ],
    )
    @pytest.mark.parametrize("argv", [["typicality-build"], ["audit", "typicality", "--trials", "1"]])
    def test_eps_share_outside_unit_interval_exits_2(self, argv, extra, message, monkeypatch, outdir, capsys):
        # eps is split over the psp_count(c, k) - 1 splits; a share outside
        # [0, 1) is refused from the closed form, before any state is drawn
        def forbidden(*args, **kwargs):
            raise AssertionError("state drawn before the eps check")

        monkeypatch.setattr(rand, "random_density", forbidden)
        monkeypatch.setattr(audits, "random_density", forbidden)
        assert run(argv + extra + ["--out", outdir]) == 2
        assert f"error: {message}, outside [0, 1)" in capsys.readouterr().err
        assert not os.path.exists(outdir)

    def test_eps_share_below_one_runs(self, outdir, capsys):
        # 3.99 over the 4 splits of the default shape is 0.9975 per split
        assert run(["typicality-build", "--eps", "3.99", "--out", outdir]) == 0
        assert "typicality-build: 61/61 checks passed" in capsys.readouterr().out

    @pytest.mark.parametrize("delta", ["0", "-0.3"])
    @pytest.mark.parametrize(
        "argv", [["typicality-build", "--k", "1"], ["audit", "typicality", "--trials", "1"]]
    )
    def test_nonpositive_delta_exits_2(self, argv, delta, outdir, capsys):
        # delta = 0 divided by zero in the stated floor of claim 4; a negative
        # delta gave claim3_l1_distance a negative bound, which failed (exit 1)
        assert run(argv + ["--delta", delta, "--out", outdir]) == 2
        assert "error: delta must be positive" in capsys.readouterr().err
        assert not os.path.exists(outdir)

    @pytest.mark.parametrize(
        "argv",
        [
            ["typicality-build", "--delta", "inf"],
            ["typicality-build", "--delta", "nan"],
            ["audit", "typicality", "--trials", "1", "--delta", "inf"],
            ["typicality-build", "--delta", "1e-200"],
            ["mac", "cq", "delta = 1e-300"],
        ],
    )
    def test_unusable_delta_exits_2_before_any_solve(
        self, argv, monkeypatch, tmp_path, outdir, capsys, recwarn
    ):
        # inf made the tilt weights nan after a numpy warning, and a delta
        # that underflows them to 0 failed only after every solve
        calls = []
        monkeypatch.setattr(hyptest, "quantum_optimal_test", lambda *args: calls.append(args))
        if argv[0] == "mac":
            lines = [
                argv[2] if line.startswith("delta") else line
                for line in Path("configs/cq_mac_small.txt").read_text().splitlines()
            ]
            path = tmp_path / "delta.txt"
            path.write_text("\n".join(lines) + "\n")
            argv = ["mac", "cq", str(path)]
        assert run(argv + ["--out", outdir]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "delta" in err
        assert not [w.message for w in recwarn.list]
        assert not calls
        assert not os.path.exists(outdir)

    @pytest.mark.parametrize("eps", ["0", "-0.1"])
    @pytest.mark.parametrize(
        "mode,config",
        [("classical", "configs/classical_mac_small.txt"), ("cq", "configs/cq_mac_small.txt")],
    )
    def test_epsilon_outside_unit_interval_exits_2(
        self, mode, config, eps, tmp_path, outdir, capsys
    ):
        # eps = 0 divided by zero in the corner rates; in cq mode eps < 0
        # made delta = eps^(1/4) complex
        lines = [
            f"epsilon = {eps}" if line.startswith("epsilon") else line
            for line in open(config).read().splitlines()
        ]
        path = tmp_path / "eps.txt"
        path.write_text("\n".join(lines) + "\n")
        assert run(["mac", mode, str(path), "--out", outdir]) == 2
        assert "error: epsilon must be in (0, 1)" in capsys.readouterr().err
        assert not os.path.exists(outdir)

    def test_cq_zero_delta_exits_2_before_any_solve(self, monkeypatch, tmp_path, outdir, capsys):
        # untilted, the X and Y images fall into the base copy beside the
        # joint test's, so the tilted span has no full-rank stack
        def forbidden(*args, **kwargs):
            raise AssertionError("D_H solved before delta was checked")

        monkeypatch.setattr(hyptest, "cq_optimal_test", forbidden)
        lines = [
            "delta = 0" if line.startswith("delta") else line
            for line in open("configs/cq_mac_small.txt").read().splitlines()
        ]
        path = tmp_path / "delta.txt"
        path.write_text("\n".join(lines) + "\n")
        assert run(["mac", "cq", str(path), "--out", outdir]) == 2
        assert "error: delta must be positive" in capsys.readouterr().err
        assert not os.path.exists(outdir)

    @pytest.mark.parametrize("rate", ["40", "2000"])
    @pytest.mark.parametrize(
        "mode,config,what",
        [
            ("classical", "configs/classical_mac_small.txt", "the decoder grid"),
            ("cq", "configs/cq_mac_small.txt", "the stacked codebook factor"),
        ],
    )
    def test_huge_rate_exits_2_before_sampling(
        self, mode, config, what, rate, monkeypatch, tmp_path, outdir, capsys
    ):
        # r1 = 40 drew 2^40 codewords, one generator each, and never ended;
        # 2^2000 overflows a float
        def forbidden(*args, **kwargs):
            raise AssertionError("codebook sampled before the budget check")

        monkeypatch.setattr(mac.Codebook, "sample", forbidden)
        lines = [
            f"r1 = {rate}" if line.startswith("r1") else line
            for line in open(config).read().splitlines()
        ]
        path = tmp_path / "rate.txt"
        path.write_text("\n".join(lines) + "\n")
        assert run(["mac", mode, str(path), "--out", outdir]) == 2
        want = f"error: {what}" if rate == "40" else "gives too many messages"
        assert want in capsys.readouterr().err
        assert not os.path.exists(outdir)
