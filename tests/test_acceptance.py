"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them inline).
Grids follow the verification contract: moment certification over the
full registry and frequency grid, norm closed-form equivalence on the
z-grid, resolution of identity at one admissible point per class,
convergence verdict domains, figure-surface properties, taxonomy
counts/factors/limits, and byte-reproducible reports.
"""

import json
import math
import subprocess
import sys
import time

from child_env import src_env
from vcslab.convergence import class_verdict, gamma_ratio_surface
from vcslab.frequencies import FrequencyConfig
from vcslab.moments import verify_moments
from vcslab.norms import norm_closed_form, norm_series, term_generator
from vcslab.registry import get, registry
from vcslab.resolution import aliasing_solutions, resolution_residual, selection_rule
from vcslab.taxonomy import (
    class_counts,
    declared_factor_relations,
    deformation_graph,
    verify_edge_continuity,
    verify_factor,
)

OMEGA_2D = [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0)]
OMEGA_3D = [(1.0, 2.0, 3.0), (2.0, 1.0, 3.0)]
FIXED_VALUES = (0, 1, 3)


def _announce(num, name, ok, detail):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} ({detail})"
    print("\n" + line)
    return line


class TestCriterion1Moments:
    def test_moment_certification_full_registry(self):
        t0 = time.time()
        worst = 0.0
        worst_at = ""
        count = 0
        for spec in registry():
            grids = OMEGA_3D if spec.dimension == 3 else OMEGA_2D
            for omegas in grids:
                cfg = FrequencyConfig(omegas)
                for fv in FIXED_VALUES:
                    fixed = (fv,) * len(spec.fixed)
                    rep = verify_moments(spec, cfg, fixed, n_range=20, tol=1e-8)
                    count += 1
                    if rep.max_residual > worst:
                        worst = rep.max_residual
                        worst_at = f"{spec.id} w={omegas} fixed={fv}"
                    assert rep.passed, (spec.id, omegas, fv, rep.max_residual)
        elapsed = time.time() - t0
        ok = worst <= 1e-8 and elapsed < 120.0
        _announce(
            1, "moment certification",
            ok, f"{count} reports, max residual {worst:.3e} at {worst_at}, {elapsed:.1f}s",
        )
        assert ok


class TestCriterion2NormClosedForms:
    def test_norm_equivalence_on_z_grid(self):
        worst = 0.0
        available = 0
        flagged_seen = set()
        for spec in registry():
            grids = [(1.0, 2.0, 3.0)] if spec.dimension == 3 else OMEGA_2D
            for omegas in grids:
                cfg = FrequencyConfig(omegas)
                for fv in FIXED_VALUES:
                    fixed = (fv,) * len(spec.fixed)
                    for scale in (0.1, 1.0, 5.0):
                        z = tuple(math.sqrt(scale * cfg.omega(t)) for t in spec.tower_ids)
                        closed = norm_closed_form(term_generator(spec, cfg, z, fixed))
                        if closed is None:
                            continue
                        available += 1
                        flagged_seen.update(closed.flags)
                        series = norm_series(term_generator(spec, cfg, z, fixed))
                        rel = abs(math.expm1(series.log_norm - closed.log_norm))
                        worst = max(worst, rel)
                        assert rel <= 1e-9, (spec.id, omegas, fv, scale, rel)
        # the two suspect printed forms are certified against the series
        assert "printed-closed-form-suspected-typo" in flagged_seen
        ok = worst <= 1e-9
        _announce(2, "norm closed-form equivalence", ok,
                  f"{available} comparisons, max rel diff {worst:.3e}")
        assert ok


class TestCriterion3Resolution:
    def test_gram_identity_every_class(self):
        worst = 0.0
        for spec in registry():
            if spec.dimension == 2:
                cfg = FrequencyConfig((1.0, 2.0))
            else:
                cfg = FrequencyConfig((1.0, math.sqrt(2.0), math.sqrt(5.0)))
            nmax = 15 if len(spec.summed) == 1 else 12
            fixed = (1,) * len(spec.fixed)
            rep = resolution_residual(spec, cfg, fixed, nmax, tol=1e-6)
            meta = dict(rep.metadata)
            assert meta["aliasing_pairs"] == 0, (spec.id, meta)
            worst = max(worst, rep.max_residual)
            assert rep.passed, (spec.id, rep.max_residual)
        ok = worst <= 1e-6
        _announce(3, "resolution of identity", ok, f"max |G - I| = {worst:.3e}")
        assert ok

    def test_irrational_aliasing_scan_window_100(self):
        cfg = FrequencyConfig((1.0, math.sqrt(2.0), 3.0))  # kappa12 = sqrt(2)
        rule = selection_rule(get("3d.2dof.gamma1-gamma2"), cfg)
        sols = aliasing_solutions(rule, 100)
        ok = sols == []
        _announce(3, "irrational-ratio aliasing scan", ok, f"window 100, {len(sols)} collisions")
        assert ok


class TestCriterion4ConvergenceDomains:
    def test_kappa_domains(self):
        cfg = FrequencyConfig((1.0, 2.0, 3.0))
        checks = []
        spec = get("3d.2dof.gamma13-gamma23")
        for omegas in [(1.0, 2.0, 3.0), (2.0, 1.0, 3.0), (5.0, 0.3, 1.0)]:
            v = class_verdict(spec, FrequencyConfig(omegas), (1,))
            checks.append(v.convergent)
        spec = get("3d.2dof.gamma13-gamma32")
        v0 = class_verdict(spec, cfg, (0,), overrides={(3, 2): 0.0})
        checks.append(v0.divergent)
        for k32 in (1e-3, 1e-2, 0.1, 1.0, 10.0):
            v = class_verdict(spec, cfg, (0,), overrides={(3, 2): k32})
            checks.append(v.convergent)
        spec = get("3d.2dof.gamma1-plain3")
        for k12 in (1.0, 0.5, 0.1, 1e-6):
            v = class_verdict(spec, cfg, (1,), overrides={(1, 2): k12})
            checks.append(v.convergent)
        ok = all(checks)
        _announce(4, "convergence verdict domains", ok, f"{len(checks)} verdicts")
        assert ok


class TestCriterion5GammaRatioSurface:
    def test_surface_depth_decrease_and_zero_column(self):
        details = []
        ok = True
        for k in (1.0, 0.5, 0.1, 1e-6):
            rows = {
                (m, n): d
                for m, n, _, d in gamma_ratio_surface(k, m_range=(50, 100), n_range=(50, 100), step=50)
            }
            shrink = abs(rows[(100, 100)]) < abs(rows[(50, 50)])
            ok = ok and shrink
            details.append(f"k={k}: {abs(rows[(50, 50)]):.2e}->{abs(rows[(100, 100)]):.2e}")
        zero = all(d == 0.0 for _, _, _, d in gamma_ratio_surface(0.0, m_range=(50, 60), n_range=(50, 60)))
        ok = ok and zero
        _announce(5, "Gamma-ratio surfaces", ok, "; ".join(details) + f"; k=0 zero: {zero}")
        assert ok


class TestCriterion6Taxonomy:
    def test_counts_factors_and_limits(self):
        counts_ok = (
            class_counts(3, 2, case="12") == 10
            and class_counts(3, 2) == 22
            and class_counts(3, 3) == 40
        )
        assert counts_ok

        cfg2 = FrequencyConfig((1.0, 2.0))
        worst_var = 0.0
        for rel in declared_factor_relations():
            rep = verify_factor(rel, cfg2, fixed_value=3)
            var = dict(rep.metadata)["ratio_variance"]
            worst_var = max(worst_var, var)
            assert rep.passed, (rel.sub_b, rep.max_residual)
            assert var <= 1e-20, (rel.sub_b, var)

        worst_cont = 0.0
        n_edges = 0
        for dim, dof in ((2, 1), (2, 2), (3, 2)):
            cfg = FrequencyConfig((1.0, 2.0)) if dim == 2 else FrequencyConfig((1.0, 2.0, 3.0))
            for e in deformation_graph(dim, dof):
                if e.status != "defined":
                    continue
                rep = verify_edge_continuity(e, cfg, (1,) * len(get(e.ancestor).fixed))
                n_edges += 1
                worst_cont = max(worst_cont, rep.max_residual)
                assert rep.passed, (e, rep.max_residual)
        ok = counts_ok and worst_var <= 1e-20 and worst_cont <= 1e-4
        _announce(
            6, "taxonomy",
            ok,
            f"counts 10/22/40; factor variance <= {worst_var:.1e}; "
            f"{n_edges} defined edges, continuity <= {worst_cont:.2e}",
        )
        assert ok


class TestCriterion7Determinism:
    def test_reports_byte_identical(self, tmp_path):
        args = [
            sys.executable, "-m", "vcslab.cli", "report",
            "--omega", "1,2,3", "--nmax", "5",
            "--checks", "norm,moment,resolution,convergence,factor,limits",
        ]
        payloads = []
        for run in ("1", "2"):
            out = tmp_path / f"report-{run}.json"
            proc = subprocess.run(
                args + ["--out", str(out)], capture_output=True, text=True, env=src_env()
            )
            assert proc.returncode == 0, proc.stderr
            payloads.append(out.read_bytes())
        ok = payloads[0] == payloads[1]
        doc = json.loads(payloads[0])
        _announce(
            7, "deterministic reports", ok,
            f"{doc['summary']['checks']} checks, two separate runs, "
            f"{len(payloads[0])} bytes each",
        )
        assert ok
