"""Energy quadrature and the characteristic number.

The total energy of every member of the instanton family is 16 pi^2
(conformal invariance: dilations and translations of the chart are
conformal motions of the round four-sphere). The characteristic number
kappa = (int|F-|^2 - int|F+|^2)/(16 pi^2) is -1 under the package
orientation; only |kappa| enters the energy thresholds.
"""

import numpy as np

from ymgap import instanton, quad4

E16 = 16 * np.pi ** 2
grid = quad4.RadialGrid.make()

print("radial rule sanity: 2pi^2 int r^3 (1+r^2)^-4 dr =",
      quad4.integrate_r4(lambda x: (1 + np.sum(x * x, axis=-1)) ** -4.0, grid, quad4.RAY),
      " (pi^2/6 =", np.pi ** 2 / 6, ")")

print("\nstandard instanton energy:", quad4.ym_energy(instanton.STANDARD, grid),
      " vs 16 pi^2 =", E16)

print("\ndilation invariance (radial fast path):")
for s in (0.25, 0.5, 1.0, 2.0, 4.0):
    e = quad4.ym_energy(instanton.InstantonParams(s), grid)
    print(f"  scale {s:4}: rel err {(e-E16)/E16:+.2e}")

print("\ncenter shifts (full angular quadrature about the origin):")
rule = quad4.SphereRule.make(24)
small = quad4.RadialGrid.make(panels=20, order=20)
for scale, center in ((1.0, (0.6, 0, 0, 0)), (0.5, (0.5, 0.2, 0.0, 0.0))):
    e = quad4.ym_energy(instanton.InstantonParams(scale, center), small,
                        rule=rule, about=(0, 0, 0, 0))
    print(f"  scale {scale}, center {center}: rel err {(e-E16)/E16:+.2e}")

plus, minus = quad4.l2_sd_norms(instanton.STANDARD, grid)
print("\nL2 norms of the two curvature parts: ||F+|| =", plus, "(= 4 pi =",
      4 * np.pi, "), ||F-|| =", minus)
print("kappa =", quad4.chern_weil_kappa(instanton.STANDARD, grid),
      " orientation-reversed:", quad4.chern_weil_kappa(instanton.STANDARD, grid,
                                                       reverse_orientation=True))

print("\ngrid refinement audit:")
for row in quad4.energy_convergence_table(instanton.STANDARD, [8, 16, 24, 32]):
    print(f"  panels {row['panels']:3d}: energy {row['energy']:.12f} "
          f"(rel err {row['rel_err_16pi2']:+.1e})")
