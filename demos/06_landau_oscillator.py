#!/usr/bin/env python3
"""A charged particle in a magnetic field with a harmonic trap.

After diagonalization the system is a 2D oscillator with mode
frequencies +-cyclotron + sqrt(cyclotron^2 + potential^2) and ground
shifts 1/2, so the whole catalog applies verbatim: the vector index is
one helicity sector.  Turning the trap off collapses the lower mode
frequency and the spectrum degenerates.
"""

import math

from vcslab import FrequencyConfig, get, landau_map, verify_moments
from vcslab.moments import moment_target

print("== mode frequencies ==")
for cyc, pot in [(0.0, 3.0), (3.0, 4.0), (1.0, 0.5)]:
    osc = landau_map(cyc, pot)
    print(f" cyclotron={cyc}, potential={pot} -> (O+, O-) = "
          f"({osc.omega_plus:.4f}, {osc.omega_minus:.4f}), shifts {osc.shifts}")

osc = landau_map(3.0, 0.0)
print(f"\n trap off: (O+, O-) = ({osc.omega_plus}, {osc.omega_minus}),"
      f" degenerate = {osc.degenerate}")

print("\n== verifying a deformed class on the trapped-particle spectrum ==")
cfg = landau_map(3.0, 4.0).config()
print(f" frequencies {cfg.omegas}, shifts {cfg.shifts}")
spec = get("2d.1dof.gamma1.A")
# at n1 = 0 the compiled Gamma argument gamma1 + n1 is the offset gamma1 itself
gamma_arg = spec.compile(cfg, (2,)).towers[0].gamma_arg
print(f" shifted Gamma offset at n2=2: {gamma_arg.at((0,)):.6f}")
rep = verify_moments(spec, cfg, (2,), n_range=15)
print(f" moment certification: {rep.verdict} (max residual {rep.max_residual:.2e})")

print("\n== shifted factorial targets ==")
plain = get("2d.1dof.plain1.A")
simple = FrequencyConfig((1.0, 1.0), shifts=(0.5, 0.5))
for n in (1, 2, 4):
    t = moment_target(plain, simple, (0,), (n,))
    print(f" n={n}: target = {math.exp(t):.6f}   (rising factorial of 1 + 1/2)")
