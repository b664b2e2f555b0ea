import json
import subprocess
import sys

import pytest

from child_env import src_env
from vcslab import moments
from vcslab.cli import main
from vcslab.structure import ClassSpec

RUN = [sys.executable, "-m", "vcslab.cli"]


def run_cli(args):
    return subprocess.run(RUN + args, capture_output=True, text=True, env=src_env())


# the address-space limit applies to the child process only
UNDER_2GB = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
    "from vcslab.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def run_cli_under_2gb(args):
    return subprocess.run(
        [sys.executable, "-c", UNDER_2GB, *args],
        capture_output=True, text=True, timeout=120, env=src_env(),
    )


class TestList:
    def test_two_dof_listing_has_sixteen_entries(self, tmp_path):
        out = tmp_path / "ids.json"
        rc = main(["list", "--dim", "2", "--dof", "2", "--format", "json", "--out", str(out)])
        assert rc == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 16
        families = {r["id"].rsplit(".", 2)[1] for r in rows}
        assert families == {"plain-plain", "gamma1-plain", "plain-gamma2", "gamma1-gamma2"}

    def test_three_dof_listing(self, tmp_path):
        out = tmp_path / "ids.json"
        assert main(["list", "--dim", "3", "--dof", "3", "--format", "json", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert sorted(r["id"] for r in rows) == ["3d.3dof.max", "3d.3dof.min"]

    def test_unsupported_dimension_exits_2(self):
        proc = run_cli(["list", "--dim", "4"])
        assert proc.returncode == 2

    def test_case13_conditions_listed(self, tmp_path):
        out = tmp_path / "ids.json"
        main(["list", "--dim", "3", "--case", "13", "--format", "json", "--out", str(out)])
        rows = json.loads(out.read_text())
        by_id = {r["id"]: r for r in rows}
        assert any("kappa32 > 0" in c for c in by_id["3d.2dof.gamma13-gamma32"]["conditions"])


class TestDescribe:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "d.json"
        assert main(["describe", "3d.3dof.min", "--out", str(out)]) == 0
        info = json.loads(out.read_text())
        assert info["label"] == "(1,1,1)"
        assert [t["form"] for t in info["towers"]] == ["plain", "plain", "plain"]

    def test_unknown_id_exits_2(self):
        proc = run_cli(["describe", "4d.1dof.plain1.A"])
        assert proc.returncode == 2


class TestVerify:
    def test_single_class_passes(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main([
            "verify", "2d.1dof.plain1.A", "--omega", "1,2", "--nmax", "8",
            "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["summary"]["failed"] == 0
        checks = {r["check"] for r in doc["results"]}
        assert checks == {"norm", "moment", "resolution", "factor", "limits", "convergence"}

    def test_expected_undefined_point_exits_0(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main([
            "verify", "3d.2dof.gamma13-gamma32", "--omega", "1,2,3",
            "--kappa", "32=0", "--nmax", "6", "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["summary"]["undefined"] > 0
        assert doc["summary"]["failed"] == 0

    def test_unachievable_tolerance_exits_1(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main([
            "verify", "2d.1dof.gamma1.A", "--omega", "1,2", "--nmax", "6",
            "--tol", "1e-30", "--out", str(out),
        ])
        assert rc == 1

    def test_zero_tolerance_exits_2(self):
        proc = run_cli(["verify", "2d.1dof.plain1.A", "--omega", "1,2", "--tol", "0"])
        assert proc.returncode == 2
        assert proc.stdout == ""

    def test_negative_nmax_exits_2(self):
        proc = run_cli(["verify", "2d.1dof.plain1.A", "--omega", "1,2", "--nmax", "-1"])
        assert proc.returncode == 2
        assert proc.stdout == ""

    def test_non_integer_nmax_in_config_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"classes": ["2d.1dof.plain1.A"], "omegas": [1.0, 2.0], "nmax": 3.0}))
        assert main(["verify", "--config", str(cfg)]) == 2

    def test_large_fixed_index_norm_and_convergence(self, tmp_path):
        # the norm's 1F1(1;b;x) has b = 801 and x up to 5 here, where
        # P(b-1, x) underflows to 0, so only the direct sum can give it
        out = tmp_path / "r.json"
        rc = main([
            "verify", "2d.1dof.gamma1.A", "2d.2dof.gamma1-plain.A", "--omega", "1,2",
            "--fixed", "n2=400", "--checks", "norm,convergence", "--out", str(out),
        ])
        assert rc == 0
        summary = json.loads(out.read_text())["summary"]
        assert (summary["checks"], summary["passed"]) == (4, 4)

    @pytest.mark.parametrize("args", [
        ["2d.1dof.gamma1.A", "--omega", "1,2", "--fixed", "n2=400"],
        ["2d.2dof.gamma1-gamma2.D", "--omega", "1,1e3"],
    ])
    def test_exponents_past_600_pass(self, args, tmp_path):
        # moment exponents here pass q = 600, where the 200-node
        # Gauss-Laguerre route A used to be wrong
        out = tmp_path / "r.json"
        assert main(["verify", *args, "--checks", "moment", "--out", str(out)]) == 0
        (rep,) = json.loads(out.read_text())["results"]
        assert rep["verdict"] == "pass"
        assert max(rep["residuals"].values()) < 1e-12

    @pytest.mark.parametrize("args", [
        ["2d.1dof.gamma1.A", "--omega", "1,2", "--fixed", "n2=400"],
        ["2d.2dof.gamma1-gamma2.D", "--omega", "1,1e3"],
    ])
    def test_route_disagreement_is_a_fail_report(self, args, monkeypatch, tmp_path):
        # the direct route staged off by 1e-3 at the first point it integrates
        direct = moments.log_moment_direct
        staged = []

        def off_once(density, exponents):
            logs = direct(density, exponents)
            if not staged:
                staged.append(density.spec_id)
                logs[0] += 1e-3
            return logs

        monkeypatch.setattr(moments, "log_moment_direct", off_once)
        out = tmp_path / "r.json"
        assert main(["verify", *args, "--checks", "moment", "--out", str(out)]) == 1
        assert len(staged) == 1
        (rep,) = json.loads(out.read_text())["results"]
        assert rep["verdict"] == "fail"
        assert rep["residuals"] == {"evaluation-error": 1.0}
        assert "quadrature routes disagree" in rep["metadata"]["error"]

    def test_norm_check_compiles_each_class_once(self, monkeypatch, tmp_path):
        # the compiled class does not depend on z, so one serves the z grid
        calls = []
        compile_ = ClassSpec.compile

        def counting(spec, *args, **kwargs):
            calls.append(spec.id)
            return compile_(spec, *args, **kwargs)

        monkeypatch.setattr(ClassSpec, "compile", counting)
        out = tmp_path / "r.json"
        assert main(["verify", "3d.2dof.gamma13-gamma3", "--checks", "norm", "--out", str(out)]) == 0
        assert calls == ["3d.2dof.gamma13-gamma3"]

    def test_large_ratio_moments_pass_under_a_2gb_limit(self):
        # moment exponents reach 1e6 here; the adaptive Simpson route that
        # the direct route replaced needed more panels than its budget,
        # and unbudgeted ran out of memory under this 2 GB limit
        proc = run_cli_under_2gb(
            ["verify", "2d.2dof.gamma1-gamma2.D", "--omega", "1,1e6", "--checks", "moment"]
        )
        assert proc.returncode == 0, proc.stderr
        (rep,) = json.loads(proc.stdout)["results"]
        assert rep["verdict"] == "pass"

    def test_small_ratio_2d_norm_series_ends_under_a_2gb_limit(self):
        # the heavier frontier sat at the old 4096 per-axis cap, so the same
        # window was evaluated again without end
        proc = run_cli_under_2gb([
            "verify", "3d.2dof.gamma1-plain3", "--kappa", "12=1e-3", "--checks", "norm",
            "--z-grid", "0.1",
        ])
        assert proc.returncode == 0, proc.stderr
        (rep,) = json.loads(proc.stdout)["results"]
        assert rep["verdict"] == "pass"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_small_ratio_norm_ends_in_a_tail_budget_error(self, tmp_path):
        # the terms still rise past the term budget, so no certificate can
        # be had; a three-ratio heuristic once called these series divergent
        out = tmp_path / "r.json"
        rc = main([
            "verify", "2d.2dof.plain-plain.B", "2d.2dof.gamma1-plain.B", "--omega", "1,1e-3",
            "--checks", "norm", "--out", str(out),
        ])
        assert rc == 1
        results = json.loads(out.read_text())["results"]
        assert [r["verdict"] for r in results] == ["fail", "fail"]
        for r in results:
            assert list(r["residuals"]) == ["evaluation-error"]
            assert "no tail certificate within" in r["metadata"]["error"]
            assert "divergent" not in r["metadata"]["error"]

    def test_overflowing_weight_census_passes(self, tmp_path):
        # at omega2 = 1e5 a 1d term ratio underflows to 0 and a closed-form
        # weight overflows; both once ended in a traceback
        out = tmp_path / "r.json"
        assert main(["verify", "all", "--omega", "1,1e5,3", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert (doc["summary"]["checks"], doc["summary"]["passed"]) == (336, 336)

    def test_large_frequency_census_passes(self, tmp_path):
        # real frequency ratios 100 and 1e4 give moment exponents up to
        # about 1.1e4; 20 of these checks once failed on a quadrature budget
        out = tmp_path / "r.json"
        rc = main([
            "verify", "all", "--omega", "1,100,1e4", "--checks", "moment,resolution",
            "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert (doc["summary"]["checks"], doc["summary"]["passed"]) == (112, 112)

    def test_zero_ratio_with_used_reciprocal_is_undefined(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["verify", "all", "--kappa", "32=0", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert (doc["summary"]["checks"], doc["summary"]["failed"], doc["summary"]["undefined"]) == (336, 0, 72)
        reps = {r["check"]: r for r in doc["results"] if r["class"] == "3d.2dof.gamma12-gamma23"}
        assert {r["verdict"] for r in reps.values()} == {"undefined"}
        assert reps["convergence"]["metadata"]["witness"] == "reciprocal ratio kappa23 diverges"
        assert reps["norm"]["metadata"]["reason"] == "reciprocal ratio kappa23 diverges"

    @pytest.mark.parametrize("args", [
        ["--omega", "nan,1"],
        ["--omega", "1,2", "--fixed", "n2=-3"],
        ["--z-grid", "nan"],
        ["--z-grid", "0"],
        ["--z-grid", "-1"],
        # frequency ratios past the float range
        ["--omega", "1e300,1e-300"],
        ["--omega", "1e300,1e-300,1"],
        # kappa and fixed keys that name no tower pair or tower
        ["--kappa", "123=0.5"],
        ["--kappa", "11=0.5"],
        ["--kappa", "45=0.5"],
        ["--fixed", "n7=3"],
    ])
    def test_invalid_input_exits_2_with_one_line(self, args):
        proc = run_cli(["verify", "2d.1dof.gamma1.A", *args])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("cid,args,config", [
        ("2d.1dof.gamma1.A", ["--kappa", "12=-1.5", "--fixed", "n2=3", "--checks", "convergence"],
         {"kappa": {"12": -1.5}, "fixed": {"2": 3}, "checks": ["convergence"]}),
        ("2d.1dof.plain1.A", ["--kappa", "12=inf", "--checks", "norm"],
         {"kappa": {"12": float("inf")}, "checks": ["norm"]}),
        ("2d.1dof.plain1.A", ["--alpha", "nan,0", "--checks", "norm"],
         {"alphas": [float("nan"), 0.0], "checks": ["norm"]}),
        # keys that name no tower pair or tower were once ignored
        ("2d.1dof.gamma1.A", ["--kappa", "123=0.5"], {"kappa": {"123": 0.5}}),
        ("2d.1dof.gamma1.A", ["--kappa", "45=0.5"], {"kappa": {"45": 0.5}}),
        ("2d.1dof.gamma1.A", ["--fixed", "n7=3"], {"fixed": {"7": 3}}),
    ])
    def test_non_finite_or_negative_parameters_exit_2(self, cid, args, config, tmp_path, capsys):
        # each once ended in a traceback from log_gamma, json or the norm series
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        for argv in (args, ["--config", str(cfg)]):
            assert main(["verify", cid, "--omega", "1,2", *argv]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("config", [
        {"fixed": {"x": 1}},
        {"tol": {"norm": "x"}},
        {"z_grid": [1, "a"]},
        {"omegas": [1, None]},
    ])
    def test_config_field_of_the_wrong_type_exits_2(self, config, tmp_path, capsys):
        # each once ended in a ValueError or TypeError traceback
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["verify", "2d.1dof.gamma1.A", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: config field ") and err.count("\n") == 1
        assert repr(next(iter(config))) in err

    @pytest.mark.parametrize("argv", [
        ["verify", "2d.1dof.gamma1.B", "--alpha", "0.5,0", "--checks", "moment"],
        ["report", "--alpha", "0.5,0,0"],
    ])
    def test_class_set_up_spec_error_exits_2(self, argv):
        # the exponent-variant sub-classes reject a spectrum shift while
        # their density is built; that once ended in a traceback
        proc = run_cli(argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: 2d.1dof.gamma1.B: exponent-variant sub-classes are cataloged"
            " at zero spectrum shift\n"
        )

    @pytest.mark.parametrize("argv,checks", [
        (["2d.1dof.gamma1.A", "--kappa", "12=0", "--fixed", "n2=1000"], 1),
        (["all", "--omega", "1e-3,1,1e3"], 56),
    ])
    def test_factor_relation_with_underflowing_factor_passes(self, argv, checks, tmp_path):
        # the factor underflows to 0 here, and dividing by it once ended
        # in a ZeroDivisionError
        out = tmp_path / "r.json"
        assert main(["verify", *argv, "--checks", "factor", "--out", str(out)]) == 0
        summary = json.loads(out.read_text())["summary"]
        assert (summary["checks"], summary["passed"]) == (checks, checks)

    def test_underflowed_frontier_ratio_adds_no_tail(self, tmp_path):
        # at omega 1,100,1e4 some frontier ratios underflow to 0, whose log
        # ended 22 checks in a math domain error
        out = tmp_path / "r.json"
        rc = main(["verify", "all", "--omega", "1,100,1e4", "--checks", "norm,limits",
                   "--out", str(out)])
        assert rc == 0
        summary = json.loads(out.read_text())["summary"]
        assert (summary["checks"], summary["passed"]) == (112, 112)

    @pytest.mark.parametrize("argv", [
        # a frontier ratio of e^(4.7e6) in the convergence witness
        ["2d.2dof.gamma1-gamma2.B", "--omega", "75.565,0.01693", "--fixed", "n1=5",
         "--kappa", "12=1.47e-7", "--checks", "convergence"],
        # Gram entries whose relative difference passes expm1's range
        ["3d.2dof.plain-gamma32", "--omega", "7.3,1e300,1e100", "--fixed", "n1=20",
         "--checks", "resolution"],
        # factor ratios that overflow or underflow, with an underflowed mean
        ["2d.1dof.gamma1.A", "--omega", "7.3,1e300,1e100", "--fixed", "n1=20",
         "--checks", "factor"],
    ])
    def test_values_past_the_float_range_end_in_json(self, argv, tmp_path):
        # each ended in an OverflowError or ZeroDivisionError traceback
        out = tmp_path / "r.json"
        assert main(["verify", *argv, "--out", str(out)]) in (0, 1)
        doc = json.loads(out.read_text(), parse_constant=lambda c: pytest.fail(f"non-JSON {c}"))
        assert doc["summary"]["checks"] == 1

    def test_unknown_class_exits_2(self):
        proc = run_cli(["verify", "nope.class"])
        assert proc.returncode == 2

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "classes": ["2d.1dof.plain1.A"],
            "omegas": [1.0, 3.0],
            "nmax": 6,
            "checks": ["norm", "moment"],
        }))
        out = tmp_path / "r.json"
        rc = main(["verify", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert {r["check"] for r in doc["results"]} == {"norm", "moment"}


class TestTaxonomyExport:
    def test_dot_parses_as_digraph(self, tmp_path):
        out = tmp_path / "g.dot"
        assert main(["taxonomy", "--dim", "2", "--dof", "2", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("digraph")
        assert text.count("{") == text.count("}")

    def test_3d_graph_has_both_cases(self, tmp_path):
        out = tmp_path / "g.json"
        assert main(["taxonomy", "--dim", "3", "--dof", "2", "--format", "json", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        ancestors = {r["ancestor"] for r in rows}
        assert "3d.2dof.gamma13-gamma23" in ancestors  # case 12
        assert "3d.2dof.gamma13-gamma32" in ancestors  # case 13
        forb = [r for r in rows if r["status"] == "forbidden"]
        assert any(r["parameter"] == "kappa32" for r in forb)

    def test_unsupported_pair_exits_2(self):
        proc = run_cli(["taxonomy", "--dim", "3", "--dof", "1"])
        assert proc.returncode == 2


class TestFigure:
    def test_default_surface_row_count(self, tmp_path):
        out = tmp_path / "surface.csv"
        assert main(["figure", "gamma-ratio", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "m,n,kappa,difference"
        assert len(lines) - 1 == 4 * 51 * 51

    def test_zero_kappa_zero_column(self, tmp_path):
        out = tmp_path / "surface.csv"
        assert main(["figure", "gamma-ratio", "--kappas", "0",
                     "--m-range", "50:55", "--n-range", "50:55", "--out", str(out)]) == 0
        for line in out.read_text().splitlines()[1:]:
            assert line.endswith(",0")

    def test_malformed_range_exits_2(self):
        proc = run_cli(["figure", "gamma-ratio", "--m-range", "100:50"])
        assert proc.returncode == 2


class TestDeterminism:
    def test_reports_byte_identical_across_runs(self, tmp_path):
        args = [
            "verify", "2d.1dof.plain1.A", "2d.1dof.gamma1.A", "3d.2dof.gamma13-gamma23",
            "--omega", "1,2,3", "--nmax", "6",
        ]
        outs = []
        for run in ("1", "2"):
            out = tmp_path / f"r{run}.json"
            proc = run_cli(args + ["--out", str(out)])
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


    def test_non_finite_floats_are_written_as_text(self):
        from vcslab.report import dumps_deterministic

        doc = {"r": {"a": float("inf"), "b": [1.5, float("-inf")]}, "c": float("nan")}
        assert json.loads(dumps_deterministic(doc)) == {"r": {"a": "inf", "b": [1.5, "-inf"]}, "c": "nan"}


class TestReport:
    def test_default_report_never_imports_scipy(self, tmp_path):
        # importing scipy.special was over half of every command's start-up;
        # the standard library's lgamma and a continued fraction replace it
        code = (
            "import sys\n"
            "from vcslab.cli import main\n"
            "assert main(['report', '--out', sys.argv[1]]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "r.json")],
            capture_output=True, text=True, env=src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
