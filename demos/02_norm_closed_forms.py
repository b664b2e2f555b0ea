#!/usr/bin/env python3
"""Norm series against their closed forms.

Where the squared-coefficient sum factorizes, each factor is an
exponential, a confluent hypergeometric value 1F1(1;b;x) (a direct sum
below x = b, the incomplete-Gamma form from there), or a one-index
Gamma-slope sum.
The certified series and the closed route agree to 1e-9; for two
catalog entries whose printed closed forms are inconsistent, the series
is the certifying route and the result carries a flag.
"""

import math

from vcslab import FrequencyConfig, get, norm_closed_form, norm_series, term_generator

cfg2 = FrequencyConfig((1.0, 2.0))
cfg3 = FrequencyConfig((1.0, 2.0, 3.0))

print("== closed forms across the catalog ==")
for cid, fixed in [
    ("2d.1dof.plain1.A", (0,)),
    ("2d.1dof.gamma1.A", (3,)),
    ("2d.2dof.gamma1-plain.D", (2,)),
    ("3d.2dof.gamma13-gamma23", (1,)),
    ("3d.2dof.gamma13-gamma32", (1,)),
]:
    spec = get(cid)
    fc = cfg3 if spec.dimension == 3 else cfg2
    z = tuple(math.sqrt(fc.omega(t)) for t in spec.tower_ids)
    series = norm_series(term_generator(spec, fc, z, fixed))
    closed = norm_closed_form(term_generator(spec, fc, z, fixed))
    rel = abs(math.expm1(series.log_norm - closed.log_norm))
    print(f" {spec.label:12s} [{closed.method:11s}] log N = {series.log_norm:+.12f}"
          f"   series-vs-closed rel diff = {rel:.2e}")

print("\n== the two flagged printed forms ==")
for cid, fixed in [("2d.2dof.plain-plain.A", (3,)), ("3d.3dof.min", (2,))]:
    spec = get(cid)
    fc = cfg3 if spec.dimension == 3 else cfg2
    z = tuple(0.9 * math.sqrt(fc.omega(t)) for t in spec.tower_ids)
    series = norm_series(term_generator(spec, fc, z, fixed))
    closed = norm_closed_form(term_generator(spec, fc, z, fixed))
    print(f" {spec.label:9s} flags={closed.flags}")
    print(f"   direct series log N = {series.log_norm:+.15f}")
    print(f"   corrected closed    = {closed.log_norm:+.15f}")

print("\n== dependent sums have no closed form ==")
for cid in ("2d.2dof.gamma1-gamma2.A", "3d.2dof.gamma1-gamma2", "3d.3dof.max"):
    spec = get(cid)
    fc = cfg3 if spec.dimension == 3 else cfg2
    z = tuple(math.sqrt(fc.omega(t)) for t in spec.tower_ids)
    out = norm_closed_form(term_generator(spec, fc, z, (1,) * len(spec.fixed)))
    series = norm_series(term_generator(spec, fc, z, (1,) * len(spec.fixed)))
    print(f" {spec.label:12s} closed form: {out}   (series window {series.truncation},"
          f" tail {series.tail_bound:.1e})")
