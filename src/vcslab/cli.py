"""Command-line surface: listings, verification runs, graphs, figure data.

Exit codes: 0 = every expectation met (predicted-undefined points count
as met), 1 = a check failed, 2 = usage or configuration error.  Reports
are byte-reproducible for identical configurations: classes run one
after another in id order, and JSON is emitted with sorted keys.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .convergence import (
    Verdict,
    class_verdict,
    gamma_ratio_surface,
    required_positive_conditions,
)
from .frequencies import FrequencyConfig
from .logspace import rel_diff_from_logs
from .moments import density_for, verify_moments
from .norms import DivergenceError, TailBudgetError, TermGenerator, norm_closed_form, norm_series
from .quadrature import QuadratureDisagreement
from .registry import get, registry, select
from .report import dumps_deterministic, make_report
from .resolution import resolution_residual
from .structure import SpecError
from .taxonomy import (
    collapse_to_classes,
    declared_factor_relations,
    deformation_graph,
    graph_to_dot,
    graph_to_json,
    limit_obstruction,
    verify_edge_continuity,
    verify_factor,
)

ALL_CHECKS = ("norm", "moment", "resolution", "factor", "limits", "convergence")


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    classes: list[str] = field(default_factory=lambda: ["all"])
    omegas: list[float] = field(default_factory=lambda: [1.0, 2.0, 3.0])
    alphas: list[float] = field(default_factory=list)
    fixed: dict[int, int] = field(default_factory=dict)
    z_grid: list[float] = field(default_factory=lambda: [0.1, 1.0, 5.0])
    nmax: int = 10
    tol: dict[str, float] = field(
        default_factory=lambda: {
            "norm": 1e-9,
            "moment": 1e-8,
            "resolution": 1e-6,
            "factor": 1e-10,
            "limits": 1e-4,
        }
    )
    checks: list[str] = field(default_factory=lambda: list(ALL_CHECKS))
    kappa_overrides: dict[tuple[int, int], float] = field(default_factory=dict)
    out: str | None = None

    @classmethod
    def from_json(cls, path: str) -> "RunConfig":
        with open(path) as fh:
            raw = json.load(fh)
        cfg = cls()
        # each value converts as the text of its flag would
        num, whole = (lambda v: float(str(v))), (lambda v: int(str(v)))

        def tolerances(v):
            if not isinstance(v, dict):
                return dict.fromkeys(cfg.tol, num(v))
            unknown = sorted(str(k) for k in v if str(k) not in cfg.tol)
            if unknown:
                raise UsageError(f"config field 'tol' names no check {unknown}; known: {sorted(cfg.tol)}")
            return {**cfg.tol, **{str(k): num(x) for k, x in v.items()}}

        convert = {
            "classes": lambda v: [str(x) for x in v],
            "checks": lambda v: [str(x) for x in v],
            "omegas": lambda v: [num(x) for x in v],
            "alphas": lambda v: [num(x) for x in v],
            "z_grid": lambda v: [num(x) for x in v],
            "nmax": whole,
            "out": lambda v: None if v is None else str(v),
            "tol": tolerances,
            "fixed": lambda v: {whole(k): whole(x) for k, x in v.items()},
            "kappa": lambda v: {_kappa_key(k): num(x) for k, x in v.items()},
        }
        for key, to_field in convert.items():
            if key in raw:
                try:
                    value = to_field(raw[key])
                except (AttributeError, TypeError, ValueError):
                    raise UsageError(f"config field {key!r} has a value of the wrong type: {raw[key]!r}")
                setattr(cfg, "kappa_overrides" if key == "kappa" else key, value)
        return cfg

    def validate(self):
        if not self.z_grid and ({"norm", "resolution"} & set(self.checks)):
            raise UsageError("z-grid must be non-empty for norm/resolution checks")
        bad_z = [v for v in self.z_grid if not (math.isfinite(v) and v > 0.0)]
        if bad_z:
            raise UsageError(f"z-grid values must be finite and positive, got {bad_z}")
        bad_tol = {k: t for k, t in sorted(self.tol.items()) if not (math.isfinite(t) and t > 0.0)}
        if bad_tol:
            raise UsageError(f"tolerances must be finite and positive, got {bad_tol}")
        for name, values in (("omegas", self.omegas), ("alphas", self.alphas)):
            if len(values) > 3:
                raise UsageError(f"{name} take at most 3 values, one per tower, got {values}")
        if not isinstance(self.nmax, int) or self.nmax < 0:
            raise UsageError(f"nmax must be a non-negative integer, got {self.nmax!r}")
        bad_fixed = sorted(f"n{k}" for k in self.fixed if k not in (1, 2, 3))
        if bad_fixed:
            raise UsageError(f"fixed indices name a tower in 1-3, got {bad_fixed}")
        negative = {f"n{k}": v for k, v in sorted(self.fixed.items()) if v < 0}
        if negative:
            raise UsageError(f"fixed indices must be non-negative, got {negative}")
        bad_pairs = sorted(
            f"{i}{j}" for i, j in self.kappa_overrides if i == j or not {i, j} <= {1, 2, 3}
        )
        if bad_pairs:
            raise UsageError(f"kappa keys name two distinct towers in 1-3, got {bad_pairs}")
        bad_kappa = {
            f"{i}{j}": v
            for (i, j), v in sorted(self.kappa_overrides.items())
            if not (math.isfinite(v) and v >= 0.0)
        }
        if bad_kappa:
            raise UsageError(f"kappa overrides must be finite and non-negative, got {bad_kappa}")
        unknown = set(self.checks) - set(ALL_CHECKS)
        if unknown:
            raise UsageError(f"unknown checks: {sorted(unknown)}")


def _configs_for(spec, cfg: RunConfig) -> tuple[FrequencyConfig, FrequencyConfig]:
    """spec's parameter point under cfg at its natural ratios, and with
    cfg's kappa pins."""
    omegas = tuple(cfg.omegas[: spec.dimension])
    if len(omegas) < spec.dimension:
        raise UsageError(f"{spec.id} needs {spec.dimension} frequencies, got {cfg.omegas}")
    shifts = tuple(cfg.alphas[: spec.dimension]) if cfg.alphas else ()
    try:
        natural = FrequencyConfig(omegas, shifts)
        return natural, natural.pinned(cfg.kappa_overrides)
    except ValueError as exc:
        raise UsageError(str(exc))


def _fixed_for(spec, cfg: RunConfig) -> tuple[int, ...]:
    return tuple(cfg.fixed.get(t, 1) for t in spec.fixed)


def _expected_undefined(spec, fc: FrequencyConfig) -> str | None:
    """Why this parameter point is predicted non-normalizable, or None:
    the deformation graph's forbidden-limit test on the ratios pinned to zero."""
    return limit_obstruction(spec, [p for p, v in fc.pins if v == 0.0])


def _check_norm(spec, compiled, fc, cfg):
    residuals = []
    method = "series-only"
    for scale in cfg.z_grid:
        gen = TermGenerator.of(compiled, [math.sqrt(scale * fc.omega(t)) for t in spec.tower_ids])
        closed = norm_closed_form(gen)
        series = norm_series(gen)
        if closed is None:
            residuals.append((f"z2={scale}w(tail)", series.tail_bound))
        else:
            method = closed.method
            residuals.append((f"z2={scale}w", rel_diff_from_logs(series.log_norm, closed.log_norm)))
    return make_report(spec.id, "norm", residuals, cfg.tol["norm"], metadata=(("method", method),))


def _check_factor(spec, fc, cfg):
    residuals = []
    for rel in declared_factor_relations():
        if spec.id not in (rel.sub_a, rel.sub_b):
            continue
        rep = verify_factor(rel, fc, fixed_value=_fixed_for(spec, cfg)[0])
        residuals.append((f"{rel.sub_b}~{rel.sub_a}", rep.max_residual))
    if not residuals:
        residuals.append(("no-declared-relations", 0.0))
    return make_report(spec.id, "factor", residuals, cfg.tol["factor"])


def _check_limits(spec, fc, cfg):
    residuals = []
    try:
        edges = deformation_graph(spec.dimension, spec.dof)
    except SpecError:
        edges = ()
    for e in edges:
        if e.ancestor != spec.id or e.status != "defined":
            continue
        rep = verify_edge_continuity(e, fc, _fixed_for(spec, cfg))
        residuals.append((f"->{e.descendant}[k{e.parameter[0]}{e.parameter[1]}]", rep.max_residual))
    if not residuals:
        residuals.append(("no-defined-edges", 0.0))
    return make_report(spec.id, "limits", residuals, cfg.tol["limits"])


def _check_convergence(spec, fc, fixed, compiled, undefined_point):
    if not undefined_point:
        v = class_verdict(spec, fc, fixed, compiled=compiled)
        return make_report(
            spec.id, "convergence",
            ((v.status, 0.0 if v.convergent else 1.0),),
            0.5,
            metadata=(("witness", v.witness), ("conditions", list(v.conditions))),
        )
    # the point is predicted non-normalizable: divergence is the expected
    # outcome; anything else is a regression
    try:
        v = class_verdict(spec, fc, fixed)
    except ZeroDivisionError:
        # a term needs the reciprocal of a zero ratio: undefined as predicted
        v = Verdict("divergent", undefined_point)
    return make_report(
        spec.id, "convergence",
        (("divergence-confirmed", 0.0 if v.divergent else 1.0),),
        0.5,
        metadata=(("witness", v.witness), ("expected", "undefined")),
        undefined=v.divergent,
    )


def run_class_checks(class_id: str, cfg: RunConfig) -> list[dict]:
    spec = get(class_id)
    # factor and limits compile other classes, at the natural ratios; the
    # other checks run at the pinned ones
    natural, fc = _configs_for(spec, cfg)
    fixed = _fixed_for(spec, cfg)
    out = []
    undefined_point = _expected_undefined(spec, fc)
    # one compile serves norm, moment, resolution and convergence; at a
    # predicted-undefined point it would divide by zero
    compiled = None if undefined_point else spec.compile(fc, fixed)
    # the moment and resolution checks share one density, built on first use
    density = functools.cache(lambda: density_for(spec, fc, compiled))
    ratios = _kappa_text(cfg.kappa_overrides)
    # a frequency point near the float range makes inf and nan terms that
    # the checks turn into verdicts; numpy's warnings about them are noise
    with np.errstate(over="ignore", invalid="ignore"):
        for check in cfg.checks:
            if undefined_point and check != "convergence":
                rep = make_report(
                    spec.id, check, (("predicted-undefined", 0.0),), 1.0, undefined=True,
                    metadata=(("reason", undefined_point),),
                )
                out.append(rep.as_dict())
                continue
            try:
                if check == "convergence":
                    rep = _check_convergence(spec, fc, fixed, compiled, undefined_point)
                elif check == "norm":
                    rep = _check_norm(spec, compiled, fc, cfg)
                elif check == "moment":
                    rep = verify_moments(
                        spec, fc, fixed, n_range=cfg.nmax, tol=cfg.tol["moment"],
                        density=density(), compiled=compiled,
                    )
                elif check == "resolution":
                    rep = resolution_residual(
                        spec, fc, fixed, min(cfg.nmax, 12), tol=cfg.tol["resolution"],
                        density=density(), compiled=compiled,
                    )
                elif check == "factor":
                    rep = _check_factor(spec, natural, cfg)
                elif check == "limits":
                    rep = _check_limits(spec, natural, cfg)
                else:
                    raise UsageError(f"unknown check {check}")
            except SpecError:
                raise
            except (DivergenceError, TailBudgetError, QuadratureDisagreement, ValueError) as exc:
                # a ValueError here is an argument outside a special function's
                # domain, such as a moment exponent <= -1 built from a ratio
                # past the float range
                rep = make_report(
                    spec.id, check, (("evaluation-error", 1.0),), 0.5,
                    metadata=(("error", str(exc)),),
                )
            doc = rep.as_dict()
            if ratios:
                doc["metadata"]["ratios"] = "natural" if check in ("factor", "limits") else ratios
            out.append(doc)
    return out


def _kappa_text(pins) -> dict[str, float]:
    """The kappa pins as JSON: {"ij": value}, keys in order."""
    return {f"{i}{j}": v for (i, j), v in sorted(pins.items())}


def _selected_ids(cfg: RunConfig) -> list[str]:
    if cfg.classes == ["all"]:
        return [s.id for s in registry()]
    ids = []
    for cid in cfg.classes:
        get(cid)  # raises KeyError for unknown ids
        ids.append(cid)
    return sorted(set(ids))


def run_verification(cfg: RunConfig) -> dict:
    cfg.validate()
    ids = _selected_ids(cfg)
    flat = [r for cid in sorted(ids) for r in run_class_checks(cid, cfg)]
    summary = {
        "classes": len(ids),
        "checks": len(flat),
        "passed": sum(1 for r in flat if r["verdict"] == "pass"),
        "undefined": sum(1 for r in flat if r["verdict"] == "undefined"),
        "failed": sum(1 for r in flat if r["verdict"] == "fail"),
    }
    return {
        "config": {
            "classes": sorted(ids),
            "omegas": list(cfg.omegas),
            "alphas": list(cfg.alphas),
            "fixed": {str(k): v for k, v in cfg.fixed.items()},
            "z_grid": list(cfg.z_grid),
            "nmax": cfg.nmax,
            "tol": dict(sorted(cfg.tol.items())),
            "checks": list(cfg.checks),
            "kappa": _kappa_text(cfg.kappa_overrides),
        },
        "results": flat,
        "summary": summary,
    }


# -- argument parsing ---------------------------------------------------


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise UsageError(f"expected comma-separated numbers, got {text!r}")


def _parse_fixed(items) -> dict[int, int]:
    out = {}
    for item in items or []:
        try:
            key, val = item.split("=")
            if not key.startswith("n"):
                raise ValueError
            out[int(key[1:])] = int(val)
        except ValueError:
            raise UsageError(f"--fixed expects nK=V, got {item!r}")
    return out


def _kappa_key(key: str) -> tuple[int, int]:
    """The tower pair (i, j) of a kappa key "ij" or "i,j": exactly two digits."""
    key = key.replace(",", "")
    if len(key) != 2:
        raise ValueError(key)
    return int(key[0]), int(key[1])


def _parse_kappa(items) -> dict[tuple[int, int], float]:
    out = {}
    for item in items or []:
        try:
            key, val = item.split("=")
            out[_kappa_key(key)] = float(val)
        except ValueError:
            raise UsageError(f"--kappa expects ij=V, got {item!r}")
    return out


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise UsageError(f"range must be lo:hi, got {text!r}")
    if hi < lo:
        raise UsageError(f"range must be increasing, got {text!r}")
    return lo, hi


def _write_out(text: str, path: str | None):
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="vcslab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list registered classes")
    p_list.add_argument("--dim", type=int, choices=(2, 3))
    p_list.add_argument("--dof", type=int, choices=(1, 2, 3))
    p_list.add_argument("--case", choices=("12", "13"))
    p_list.add_argument("--format", choices=("text", "json"), default="text")
    p_list.add_argument("--out")

    p_desc = sub.add_parser("describe", help="describe one class")
    p_desc.add_argument("class_id")
    p_desc.add_argument("--out")

    p_ver = sub.add_parser("verify", help="run verification checks")
    p_ver.add_argument("classes", nargs="*", default=[])
    p_ver.add_argument("--config", help="JSON run configuration")
    p_ver.add_argument("--omega")
    p_ver.add_argument("--alpha")
    p_ver.add_argument("--fixed", action="append")
    p_ver.add_argument("--kappa", action="append")
    p_ver.add_argument("--nmax", type=int)
    p_ver.add_argument("--tol", type=float)
    p_ver.add_argument("--checks")
    p_ver.add_argument("--z-grid")
    p_ver.add_argument("--out")

    p_rep = sub.add_parser("report", help="full verification report over the registry")
    p_rep.add_argument("--omega")
    p_rep.add_argument("--alpha")
    p_rep.add_argument("--nmax", type=int)
    p_rep.add_argument("--checks")
    p_rep.add_argument("--out")

    p_tax = sub.add_parser("taxonomy", help="export the deformation graph")
    p_tax.add_argument("--dim", type=int, required=True, choices=(2, 3))
    p_tax.add_argument("--dof", type=int, required=True, choices=(1, 2))
    p_tax.add_argument("--format", choices=("dot", "json"), default="dot")
    p_tax.add_argument("--level", choices=("class", "subclass"), default="class")
    p_tax.add_argument("--out")

    p_fig = sub.add_parser("figure", help="emit figure data")
    p_fig.add_argument("name", choices=("gamma-ratio",))
    p_fig.add_argument("--kappas", default="1,0.5,0.1,1e-6")
    p_fig.add_argument("--m-range", default="50:100")
    p_fig.add_argument("--n-range", default="50:100")
    p_fig.add_argument("--gamma13", type=float)
    p_fig.add_argument("--n3", type=int, default=0)
    p_fig.add_argument("--out")
    return p


def cmd_list(args) -> int:
    specs = select(dimension=args.dim, dof=args.dof, case=args.case)
    if args.format == "json":
        rows = [
            {
                "id": s.id,
                "label": s.label,
                "dimension": s.dimension,
                "dof": s.dof,
                "case": s.case,
                "conditions": list(required_positive_conditions(s)),
            }
            for s in specs
        ]
        _write_out(dumps_deterministic(rows), args.out)
    else:
        lines = []
        for s in specs:
            conds = required_positive_conditions(s)
            cond = f"  [{'; '.join(conds)}]" if conds else ""
            lines.append(f"{s.id:36s} {s.label}{cond}")
        _write_out("\n".join(lines) + "\n", args.out)
    return 0


def cmd_describe(args) -> int:
    s = get(args.class_id)
    info = {
        "id": s.id,
        "label": s.label,
        "dimension": s.dimension,
        "dof": s.dof,
        "case": s.case,
        "family": s.family,
        "subclass": s.subclass,
        "quadruple": list(s.quadruple) if s.quadruple else None,
        "summed": list(s.summed),
        "fixed": list(s.fixed),
        "towers": [
            {"tower": tw.tower, "form": tw.form, "normalized": tw.normalized}
            for tw in s.towers
        ],
        "conditions": list(required_positive_conditions(s)),
    }
    _write_out(dumps_deterministic(info), args.out)
    return 0


def _runconfig_from_args(args) -> RunConfig:
    cfg = RunConfig.from_json(args.config) if getattr(args, "config", None) else RunConfig()
    # an explicit positional list overrides the config file; otherwise the
    # config's selection (default "all") stands
    if getattr(args, "classes", None):
        cfg.classes = args.classes
    if getattr(args, "omega", None):
        cfg.omegas = _parse_floats(args.omega)
    if getattr(args, "alpha", None):
        cfg.alphas = _parse_floats(args.alpha)
    if getattr(args, "fixed", None):
        cfg.fixed.update(_parse_fixed(args.fixed))
    if getattr(args, "kappa", None):
        cfg.kappa_overrides.update(_parse_kappa(args.kappa))
    if getattr(args, "nmax", None) is not None:
        cfg.nmax = args.nmax
    if getattr(args, "tol", None) is not None:
        cfg.tol = {k: args.tol for k in cfg.tol}
    if getattr(args, "checks", None):
        cfg.checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    if getattr(args, "z_grid", None):
        cfg.z_grid = _parse_floats(args.z_grid)
    if getattr(args, "out", None):
        cfg.out = args.out
    return cfg


def cmd_verify(args) -> int:
    """`verify` and `report`: run, write the document, exit 1 on a failed check."""
    cfg = _runconfig_from_args(args)
    doc = run_verification(cfg)
    _write_out(dumps_deterministic(doc), cfg.out)
    return 0 if doc["summary"]["failed"] == 0 else 1


def cmd_taxonomy(args) -> int:
    try:
        edges = deformation_graph(args.dim, args.dof)
    except SpecError as exc:
        raise UsageError(str(exc))
    if args.level == "class":
        edges = collapse_to_classes(edges)
    if args.format == "dot":
        _write_out(graph_to_dot(edges), args.out)
    else:
        _write_out(dumps_deterministic(graph_to_json(edges)), args.out)
    return 0


def cmd_figure(args) -> int:
    kappas = _parse_floats(args.kappas)
    m_range = _parse_range(args.m_range)
    n_range = _parse_range(args.n_range)
    lines = ["m,n,kappa,difference"]
    for k in kappas:
        try:
            rows = gamma_ratio_surface(k, gamma13=args.gamma13, n3=args.n3,
                                       m_range=m_range, n_range=n_range)
        except ValueError as exc:
            raise UsageError(str(exc))
        for m, n, kk, d in rows:
            lines.append(f"{m},{n},{kk:.17g},{d:.17g}")
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "list":
            return cmd_list(args)
        if args.command == "describe":
            return cmd_describe(args)
        if args.command in ("verify", "report"):
            return cmd_verify(args)
        if args.command == "taxonomy":
            return cmd_taxonomy(args)
        if args.command == "figure":
            return cmd_figure(args)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:  # registry.get's "unknown class id: ..."
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
