#!/usr/bin/env python3
"""Convergence domains of the double norm series.

The case-(13) classes carry a genuine convergence frontier: their
second summed index enters only through ratio-weighted Gamma arguments,
and sending that ratio to zero leaves constant, non-vanishing terms.
Each verdict is read off the compiled Gamma slopes: an axis with a
positive slope converges at any weight, however small the slope, and
an axis without one is a geometric series in its weight.
"""

from vcslab import FrequencyConfig, class_verdict, gamma_ratio_surface, get

cfg = FrequencyConfig((1.0, 2.0, 3.0))
spec = get("3d.2dof.gamma13-gamma32")
print(f"== {spec.label}: the one-sided ratio domain ==")
for k32 in (0.0, 1e-3, 1e-2, 0.1, 1.0, 10.0):
    v = class_verdict(spec, cfg, (0,), overrides={(3, 2): k32})
    print(f" kappa32 = {k32:<6g} -> {v.status}")
v = class_verdict(spec, cfg, (0,))
print(f" conditions attached to the class: {v.conditions}")

print("\n== per-axis witnesses at the forbidden point ==")
v = class_verdict(spec, cfg, (0,), overrides={(3, 2): 0.0})
for witness in v.witness.split("; "):
    print(f" {witness}")

print("\n== the slow-ratio class converges down to kappa12 = 1e-6 ==")
spec2 = get("3d.2dof.gamma1-plain3")
for k12 in (1.0, 0.5, 0.1, 1e-6):
    v = class_verdict(spec2, cfg, (1,), overrides={(1, 2): k12})
    print(f" kappa12 = {k12:<6g} -> {v.status}  [{v.witness}]")

print("\n== the Gamma-ratio difference surface ==")
print(" kappa    |diff|(50,50)   |diff|(100,100)")
for k in (1.0, 0.5, 0.1, 1e-6):
    rows = {(m, n): d for m, n, _, d in gamma_ratio_surface(k, m_range=(50, 100), n_range=(50, 100), step=50)}
    print(f" {k:<7g} {abs(rows[(50, 50)]):.3e}      {abs(rows[(100, 100)]):.3e}")
print("(the exact Gamma-argument ratio approaches its power-law form as the")
print(" indices grow, so for any kappa > 0 the term ratio falls to 0)")
