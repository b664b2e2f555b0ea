#!/usr/bin/env python3
"""Moment problems: densities, two independent routes, negative control.

Every class's resolution of identity reduces to radial moment
identities.  The density read off the compiled class must reproduce the
generalized factorial targets; two independent routes certify the
integrals (the closed form of the reduced Gamma integrals, and the
density integrated directly in log coordinates), and a deliberately
wrong density fails loudly.
"""

from vcslab import FrequencyConfig, density_for, get, moment_integral, moment_target, verify_moments
from vcslab.logspace import rel_diff_from_logs
from vcslab.moments import nonuniqueness_partner

cfg = FrequencyConfig((1.0, 2.0))

print("== a coupled two-variable density ==")
spec = get("2d.2dof.gamma1-gamma2.D")
compiled = spec.compile(cfg, (2,))
rho = density_for(spec, cfg, compiled)
print(f" {spec.label}: chi(u1,u2) carries powers {dict(rho.powers)} and")
for t in rho.exp_terms:
    print(f"   exp factor on u{t.var}: scale log S = {t.log_scale:+.4f}, couplings {t.couplings}")

print("\n== moment identities, a few indices ==")
for n in [(0,), (3,), (7,), (15,)]:
    val = moment_integral(spec, cfg, (2,), n, density=rho)
    tgt = moment_target(spec, cfg, (2,), n)
    print(f" n1={n[0]:>2d}: integral/target - 1 = {rel_diff_from_logs(val, tgt):+.2e}")

print("\n== full verification report ==")
rep = verify_moments(spec, cfg, (2,), n_range=20)
print(f" verdict: {rep.verdict}, max residual {rep.max_residual:.2e} over {len(rep.residuals)} indices")

print("\n== negative control: 1% frequency tamper ==")
bad = rho.perturbed(1, 1.01)
rep_bad = verify_moments(spec, cfg, (2,), n_range=12, density=bad)
print(f" verdict: {rep_bad.verdict}, max residual {rep_bad.max_residual:.2e}")

print("\n== the recipe reads that density off the compiled class ==")
for ct in compiled.towers:
    (z,), (w,), (g,) = ct.z_exp.slopes, ct.w_exp.slopes, ct.gamma_arg.slopes
    print(f" tower {ct.tower}: slopes in n1 of z {z:g}, omega {w:g}, Gamma {g:g};"
          f" gaps z {ct.z_gap:+g}, omega {ct.w_gap:+g}")
t1, t2 = compiled.towers
(z2,), (g2,) = t2.z_exp.slopes, t2.gamma_arg.slopes
print(f" tower 2's z and omega slopes trail its Gamma slope by {g2 - z2:g}: the u1 factor")
print(f" couples to u2^{z2 - g2:g}, its log S moves by {z2 - g2:g} log w2, and tower 1's Gamma")
print(f" argument at n1 = 0, {t1.gamma_arg.const:g}, turns the coupling into u2's power {rho.power(2):+g}")

print("\n== measure non-uniqueness at a fixed vector index ==")
spec_b = get("2d.2dof.gamma1-plain.B")
d1 = density_for(spec_b, cfg, spec_b.compile(cfg, (2,)))
d2 = nonuniqueness_partner(spec_b, cfg, (2,))
r1 = verify_moments(spec_b, cfg, (2,), n_range=15, density=d1)
r2 = verify_moments(spec_b, cfg, (2,), n_range=15, density=d2)
print(f" recipe density:      {r1.verdict} (max {r1.max_residual:.1e})")
print(f" reshaped partner:    {r2.verdict} (max {r2.max_residual:.1e})")
print(f" pointwise different: |log chi1 - log chi2| at u=(1,1) -> "
      f"{abs(d1.log_value({1:1.0,2:1.0}) - d2.log_value({1:1.0,2:1.0})):.3f}")
