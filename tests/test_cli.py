import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from child_env import src_env
from vcslab import moments
from vcslab.cli import ALL_CHECKS, RunConfig, main, run_class_checks
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

    def test_text_listing_spells_conditions_as_json_does(self, tmp_path):
        out = tmp_path / "ids.txt"
        assert main(["list", "--dim", "3", "--case", "13", "--out", str(out)]) == 0
        (line,) = [r for r in out.read_text().splitlines() if r.startswith("3d.2dof.gamma13-gamma32 ")]
        assert line.endswith("[kappa32 > 0]")


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
        assert proc.stderr == "error: unknown class id: 4d.1dof.plain1.A\n"


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

    @pytest.mark.parametrize("overrides", [{}, {(1, 2): 0.3}])
    def test_one_call_compiles_its_class_once(self, overrides, monkeypatch):
        # norm, moment, resolution and convergence share the compile at the
        # run's point; limits compiles the class again at each edge's kappa
        cid = "2d.2dof.gamma1-gamma2.B"
        calls = []
        compile_ = ClassSpec.compile

        def counting(spec, config, fixed):
            calls.append((spec.id, tuple(fixed), config.pins))
            return compile_(spec, config, fixed)

        monkeypatch.setattr(ClassSpec, "compile", counting)
        reports = run_class_checks(cid, RunConfig(nmax=4, kappa_overrides=dict(overrides)))
        assert [r["check"] for r in reports] == list(ALL_CHECKS)
        assert {r["verdict"] for r in reports} == {"pass"}
        assert calls.count((cid, (1,), tuple(overrides.items()))) == 1

    def test_kappa_reaches_moment_and_resolution(self, tmp_path):
        def run(*extra):
            out = tmp_path / "r.json"
            argv = ["verify", "2d.1dof.gamma1.B", "--omega", "1.3,2.9", "--fixed", "n2=3"]
            assert main([*argv, "--out", str(out), *extra]) == 0
            return {r["check"]: r for r in json.loads(out.read_text())["results"]}

        natural, probed = run(), run("--kappa", "12=0.3")
        for check in ("moment", "resolution"):
            assert probed[check]["residuals"] != natural[check]["residuals"]
        # the report names the ratios each check ran at, only when overridden
        assert not any("ratios" in r["metadata"] for r in natural.values())
        at = {"12": 0.3}
        assert {c: r["metadata"]["ratios"] for c, r in probed.items()} == {
            "norm": at, "moment": at, "resolution": at, "convergence": at,
            "factor": "natural", "limits": "natural",
        }

    @pytest.mark.parametrize("kappa, passed, undefined", [("12=0", 144, 192), ("21=0", 168, 168)])
    def test_zero_ratio_that_a_density_does_not_use_passes(self, kappa, passed, undefined, tmp_path):
        # a density that does not use kappa never reads it, so the classes
        # that do not use the pinned ratio's reciprocal stay defined
        out = tmp_path / "r.json"
        assert main(["verify", "all", "--kappa", kappa, "--out", str(out)]) == 0
        summary = json.loads(out.read_text())["summary"]
        assert (summary["failed"], summary["passed"], summary["undefined"]) == (0, passed, undefined)

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
        # a nan tolerance once failed every check and an infinite one passed them
        ("2d.1dof.plain1.A", ["--tol", "nan"], {"tol": {"norm": "nan"}}),
        ("2d.1dof.plain1.A", ["--tol", "inf"], {"tol": "inf"}),
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

    @pytest.mark.parametrize("args,config", [
        # a ratio pinned together with its reciprocal was once read one way
        # by the compile and the other by the undefined-point rule
        (["all", "--kappa", "12=0.3", "--kappa", "21=0.5"], {"kappa": {"12": 0.3, "21": 0.5}}),
        (["3d.3dof.max", "--kappa", "13=0", "--kappa", "31=2", "--checks", "convergence"],
         {"kappa": {"13": 0, "31": 2}, "checks": ["convergence"]}),
        # a fourth frequency or shift was once dropped while the report echoed it
        (["all", "--omega", "1,2,3,4"], {"omegas": [1, 2, 3, 4]}),
        (["all", "--alpha", "0,0,0,0"], {"alphas": [0, 0, 0, 0]}),
    ])
    def test_contradictory_or_extra_parameters_exit_2(self, args, config, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        for argv in (args, [args[0], "--config", str(cfg)]):
            assert main(["verify", *argv]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("config", [
        {"fixed": {"x": 1}},
        {"tol": {"norm": "x"}},
        {"z_grid": [1, "a"]},
        {"omegas": [1, None]},
        # a misspelled tolerance name was once merged and ignored
        {"tol": {"nrom": 1e-30}},
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

    @staticmethod
    def assert_silent_inf_disagreement(cid, omega):
        """The moment check fails on inf route disagreement, printing no warning."""
        proc = run_cli(["verify", cid, "--omega", omega, "--checks", "moment"])
        assert proc.returncode == 1
        assert proc.stderr == ""
        (result,) = json.loads(proc.stdout)["results"]
        assert result["residuals"] == {"evaluation-error": 1.0}
        assert result["metadata"]["error"] == f"quadrature routes disagree by inf (> 1e-07) ({cid})"

    def test_overflowing_density_factor_prints_no_warning(self):
        # the density's exp factor overflows on the direct route's nodes; it
        # once printed numpy's "overflow encountered in exp" to stderr
        self.assert_silent_inf_disagreement("2d.2dof.plain-gamma2.B", "1e29,1,6.83")

    def test_overflowing_node_weight_prints_no_warning(self):
        # a node weight of the direct route overflows to inf, which is the
        # route's result; numpy's "overflow encountered in exp" once went to stderr
        self.assert_silent_inf_disagreement("2d.2dof.plain-gamma2.D", "7.3,1e-300")

    def test_overflowing_norm_terms_print_no_warning(self):
        # tower 2's exponents grow by 7.3e300 per step: its terms overflow
        # and cancel to nan inside the certified sum, which once printed
        # numpy's overflow and invalid-value warnings to stderr
        proc = run_cli(["verify", "2d.2dof.plain-plain.D", "--omega", "7.3,1e-300,1", "--checks", "norm"])
        assert proc.returncode in (0, 1)
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["summary"]["checks"] == 1

    def test_float_range_point_prints_no_warning_and_keeps_its_bytes(self):
        # the Gamma arguments and moment exponents overflow at omega1 =
        # 1e300; numpy's overflow and invalid-value warnings once went to
        # stderr from the forms on the grid and the moment pieces
        proc = subprocess.run(
            RUN + ["verify", "2d.2dof.plain-plain.D", "--omega", "1e300,1e-8"],
            capture_output=True, env=src_env(),
        )
        assert proc.returncode in (0, 1)
        assert proc.stderr == b""
        assert hashlib.sha256(proc.stdout).hexdigest() == (
            "ce56314403c9e7b10190e1914745ef65c7d1c79fb68433ce8fe77a39e56f9299"
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
        # |z1|^2 = omega1 = 1e300: an axis weight of -inf + inf
        ["2d.2dof.plain-plain.D", "--omega", "1e300,1e-8", "--checks", "convergence"],
        # moment exponents <= -1 built from the ratio 7.3e300
        *[[cid, "--omega", "7.3,1e-300", "--checks", "moment,resolution"]
          for cid in ("2d.2dof.plain-plain.C", "2d.2dof.plain-plain.D",
                      "2d.2dof.gamma1-plain.C", "2d.2dof.gamma1-plain.D")],
    ])
    def test_values_past_the_float_range_end_in_json(self, argv, tmp_path):
        # each ended in an OverflowError, ZeroDivisionError or ValueError traceback
        out = tmp_path / "r.json"
        assert main(["verify", *argv, "--out", str(out)]) in (0, 1)
        doc = json.loads(out.read_text(), parse_constant=lambda c: pytest.fail(f"non-JSON {c}"))
        assert doc["summary"]["checks"] == len(argv[argv.index("--checks") + 1].split(","))

    @pytest.mark.parametrize("argv", [
        ["2d.2dof.plain-plain.D", "--omega", "1e300,1e-8"],
        ["3d.2dof.plain-gamma3", "--omega", "1e300,1,1e-8"],
    ])
    def test_nan_axis_weight_on_a_gamma_axis_is_convergent(self, argv):
        # the log weight of axis 0 is inf - inf, but the axis has a Gamma
        # slope, which converges at any weight
        proc = run_cli(["verify", *argv, "--checks", "convergence"])
        assert proc.returncode == 0
        assert proc.stderr == "" and "nan" not in proc.stdout
        (rep,) = json.loads(proc.stdout)["results"]
        assert rep["verdict"] == "pass"
        assert rep["residuals"] == {"convergent": 0.0}
        assert rep["metadata"]["witness"].startswith("axis 0: Gamma slope ")

    def test_divergent_moment_exponent_is_an_evaluation_error(self, tmp_path):
        out = tmp_path / "r.json"
        argv = ["verify", "2d.2dof.gamma1-plain.D", "--omega", "7.3,1e-300",
                "--checks", "moment,resolution", "--out", str(out)]
        assert main(argv) == 1
        for rep in json.loads(out.read_text())["results"]:
            assert rep["verdict"] == "fail"
            assert rep["residuals"] == {"evaluation-error": 1.0}
            assert "log_gamma requires x > 0" in rep["metadata"]["error"]

    def test_gram_entry_past_the_float_range_is_inf(self):
        # math.exp of an aliased entry's log raised an OverflowError traceback;
        # kappa12 = 2 aliases delta = (2, -1), and omega3 = 1e-300 takes the
        # entry past the float range
        proc = run_cli(["verify", "3d.2dof.gamma1-gamma3", "--omega", "1,2,1e-300",
                        "--checks", "resolution"])
        assert proc.returncode in (0, 1) and "Traceback" not in proc.stderr
        (rep,) = json.loads(proc.stdout)["results"]
        assert rep["max_residual"] == "inf" and rep["residuals"]["G[(0, 6)|(2, 5)]"] == "inf"

    def test_infinite_hyp1f1_argument_is_an_evaluation_error(self):
        # an axis weight of inf reached the 1F1 closed form, whose
        # continued fraction escaped as a bare ArithmeticError traceback
        proc = run_cli(["verify", "3d.2dof.gamma13-gamma23", "--omega", "1e100,1e-8,1e100",
                        "--kappa", "31=1e8", "--z-grid", "1e300", "--checks", "norm"])
        assert proc.returncode in (0, 1) and "Traceback" not in proc.stderr
        (rep,) = json.loads(proc.stdout)["results"]
        assert rep["residuals"] == {"evaluation-error": 1.0}
        assert rep["metadata"]["error"] == "hyp1f1_one_closed requires a finite x >= 0, got inf"

    def test_unknown_class_exits_2(self):
        proc = run_cli(["verify", "nope.class"])
        assert proc.returncode == 2
        assert proc.stderr == "error: unknown class id: nope.class\n"

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


class TestAliasingLattice:
    """`--checks resolution` decides aliasing on the ratios as typed, overrides included."""

    @pytest.mark.parametrize(
        "argv, pairs, ratio",
        [
            # not 1/3: no lattice
            (["all", "--omega", "1,0.3333333333333333,0.7"], 0, "3333333333333333/10000000000000000"),
            (["all", "--omega", "3,1,2.1"], 1128, "1/3"),
            # a tiny ratio is not zero
            (["all", "--omega", "7.3,1e-300,1"], 0, "1/73" + "0" * 299),
            # the natural kappa12 = 2 gives 220 pairs with ratio "2"
            (["3d.2dof.gamma1-gamma2", "--kappa", "12=0.3"], 8, "3/10"),
        ],
    )
    def test_aliased_pairs_and_ratio(self, tmp_path, argv, pairs, ratio):
        out = tmp_path / "r.json"
        assert main(["verify", *argv, "--checks", "resolution", "--out", str(out)]) in (0, 1)
        metas = [doc["metadata"] for doc in json.loads(out.read_text())["results"]]
        assert sum(m.get("aliasing_pairs", 0) for m in metas) == pairs
        assert {r for m in metas for r in m.get("constraint_coefficient_ratios", [])} == {ratio}


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

    @pytest.mark.parametrize("flag, name", [("--kappas", "kappa"), ("--gamma13", "gamma13")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_parameter_is_named(self, flag, name, value, capsys):
        # a nan once reached log_gamma, whose message named no parameter
        assert main(["figure", "gamma-ratio", flag, value]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {name} must be finite") and err.count("\n") == 1

    def test_non_positive_gamma_argument_is_named(self, capsys):
        # gamma13 + m = -50.5 once reached log_gamma unnamed
        argv = ["figure", "gamma-ratio", "--gamma13", "-100.5", "--kappas", "0.5",
                "--m-range", "50:50", "--n-range", "0:0"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: gamma13 + kappa n + m must be > 0") and err.count("\n") == 1
        assert "gamma13 = -100.5 with m range 50:50" in err


def reference_dumps(obj) -> str:
    """The JSON text the report writer must reproduce byte for byte:
    json.dumps with sorted keys and an indent of 2, and where that meets a
    non-finite float, the same with each such value replaced by its repr."""
    def as_text(o):
        if isinstance(o, float) and not math.isfinite(o):
            return repr(o)
        if isinstance(o, dict):
            return {k: as_text(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [as_text(v) for v in o]
        return o

    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        return json.dumps(as_text(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


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

    @pytest.mark.parametrize("argv", [
        ["list", "--format", "json"],
        ["describe", "3d.3dof.max"],
        ["taxonomy", "--dim", "3", "--dof", "2", "--format", "json"],
        ["report", "--nmax", "2"],
    ])
    def test_writer_matches_json_dumps_on_command_documents(self, argv, monkeypatch, tmp_path):
        from vcslab import cli

        # record the document the command hands to the writer
        write, docs = cli.dumps_deterministic, []
        monkeypatch.setattr(cli, "dumps_deterministic", lambda obj: docs.append(obj) or write(obj))
        out = tmp_path / "doc.json"
        assert main([*argv, "--out", str(out)]) == 0
        (doc,) = docs
        assert out.read_text() == reference_dumps(doc)

    def test_writer_matches_json_dumps_on_edge_values(self):
        from vcslab.report import dumps_deterministic

        docs = [
            {}, [], (), {"a": {}, "b": [], "c": [{}, [[]], ()]},
            [True, False, None, 0, -7, 2**70, (1, (2.5, "x"))],
            {"f": [np.float64(0.1), np.float64(-1e-300), -0.0, 5e-324, 1e308, 1.0, 123456789.0]},
            {"r": {"a": math.inf, "b": [1.5, -math.inf, math.nan]}, "c": math.nan},
            [np.float64(math.inf), {"z": np.float64(math.nan)}],
            {"\u00e9t\u00e9": "\u03c9\u2081 \U0001d4b1", "tab\there": "line\nbreak \"quoted\" \\ \x00\x1f\x7f"},
            "top-level text", 3.25, math.inf, None, 42,
        ]
        for doc in docs:
            assert dumps_deterministic(doc) == reference_dumps(doc), doc


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
        # no numpy warning, and no residual or witness that is nan
        assert proc.stderr == ""
        assert "nan" not in (tmp_path / "r.json").read_text()
