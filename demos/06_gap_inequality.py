"""The gap inequality end to end.

For a Yang-Mills connection with F+ not identically zero,

    Y([g]) <= 3 gamma1 ||F+||_L2 + 2 sqrt(6) ||W+||_L2.

The standard su(2) instanton on the round S^4 achieves equality:
Y = 8 sqrt(6) pi on the left, 3 * (4/sqrt 6) * 4 pi on the right. The
corollary thresholds and the flow admissibility gate follow.
"""

import numpy as np

from ymgap import liealg, quad4, report

rep = report.gap_report(report.GapConfig())
print("gap report (standard instanton, su(2), round S^4):")
print(f"  Y                 = {rep.yamabe:.10f}")
print(f"  gamma1            = {rep.gamma1:.10f}")
print(f"  ||F+||_L2         = {rep.f_plus_l2:.10f}   (4 pi = {4*np.pi:.10f})")
print(f"  ||W+||_L2         = {rep.w_plus_l2}")
print(f"  rhs = 3 gamma1 ||F+|| + 2 sqrt(6) ||W+|| = {rep.rhs:.10f}   slack = {rep.slack:+.2e}")
print(f"  verdict: {rep.verdict}   pointwise equality residual: {rep.equality_residual:.2e}")

# the inequality itself is a function of its four numbers
print("\nflat connection (case 1):",
      report.gap_inequality(0.0, liealg.GAMMA1_SU2).verdict)
print("synthetic small ||F+|| (cannot be Yang-Mills with F+ != 0):",
      report.gap_inequality(1.0, liealg.GAMMA1_SU2).verdict)

print("\nenergy thresholds for non-instanton Yang-Mills connections (|kappa| = 1):")
su2 = report.corollary_thresholds(1.0, rep.yamabe, liealg.GAMMA1_SU2)
so3 = report.corollary_thresholds(1.0, rep.yamabe, liealg.GAMMA1_SO3)
print("  general: 16 pi^2 |kappa| + 2 Y^2 / (9 gamma1^2)")
print(f"  su(2): {su2.general:.6f}   the paper's 48 pi^2 = {48*np.pi**2:.6f}")
print(f"  so(3): {so3.general:.6f}   the paper's 80 pi^2 = {80*np.pi**2:.6f}")
print(f"  weak universal bound: 16 pi^2 |kappa| + Y^2/12 = {su2.weak_universal:.6f}")

print("\nflow admissibility gate (energy strictly below 16 pi^2):")
for energy in (0.0, 8 * np.pi ** 2, 16 * np.pi ** 2):
    print(f"  energy {energy:10.4f}: admissible = {report.flow_admissible(energy)}")
e_bpst = quad4.ym_energy(report.GapConfig())
print(f"  computed instanton energy {e_bpst:.6f}: admissible =",
      report.flow_admissible(e_bpst))
