"""The standard instanton in closed form, cross-checked by differencing.

Evaluates the connection and curvature on the flat chart, confirms the
pointwise norm law 96/(1+|x|^2)^4, self-duality, the finite-difference
curvature, the Bianchi identity, the saturated Kato inequality
|nabla F+|^2 = (3/2)|d|F+||^2, and the flat-chart Bochner identity, the
last two from the connection alone.
"""

import numpy as np

from ymgap import instanton, liealg

p = instanton.STANDARD
x = np.array([0.3, -0.1, 0.7, 0.2])
# the differencing layer reads a connection as its theta, its curvature and
# the structure constants of its algebra
c = p.connection

# su(2) values are coefficients on its orthonormal basis (i, j, k)/sqrt2;
# divided by sqrt2 they are the quaternion components of the module display
theta = instanton.connection_at(p, x)
print("theta at x, one row per dx^m, components on (i, j, k):")
print(np.round(theta / np.sqrt(2.0), 6))

f = instanton.curvature_closed_at(p, x)
print("|F|^2 at x:", liealg.lv_norm_sq(f), " norm law:",
      instanton.curvature_norm_sq(p, x))
print("anti-self-dual part:", np.max(np.abs(f - liealg.lv_self_dual(f))))

fd = instanton.curvature_fd_of(c, x, h=1e-4)
print("finite-difference vs closed form:", np.max(np.abs(fd - f)))
print("halving h shrinks the gap ~4x:",
      np.max(np.abs(instanton.curvature_fd_of(c, x, h=1e-3) - f)) /
      np.max(np.abs(instanton.curvature_fd_of(c, x, h=5e-4) - f)))

nab = instanton.covariant_derivative_of(c, x, h=1e-3, richardson=False)
print("\nBianchi cyclic-sum residual:", instanton.bianchi_residual(nab))


def plus_norm_sq(z):
    """|F+|^2 of the connection c at z."""
    return liealg.lv_norm_sq(liealg.lv_self_dual(c.curvature(z)))


# Kato and Bochner read only the connection: |d|F+|| comes from nabla F+ by
# the chain rule, Lap |F+|^2 from second differences of the curvature


print("\nKato: |nabla F+|^2 - (3/2)|d|F+||^2 (the family saturates it):")
for pt in (np.array([0.5, 0, 0, 0]), x, np.array([-1.2, 0.4, 0.1, -0.3])):
    print(f"  x = {pt}:  residual {float(instanton.kato_residual_at(c, pt, h=1e-4)):+.2e}")

print("\nBochner identity at x:")
lap_half = 0.5 * float(instanton.laplacian_of(plus_norm_sq, x, h=4e-3))
cubic = float(liealg.cubic_form(liealg.lv_self_dual(c.curvature(x)), c.f))
nab_sq = float(instanton.cov_norm_sq(liealg.lv_self_dual(
    instanton.covariant_derivative_of(c, x, h=1e-4))))
print("  (1/2) Lap |F+|^2 =", lap_half)
print("  <F+,[F+,F+]>     =", cubic)
print("  |nabla F+|^2     =", nab_sq)
print("  residual         =", lap_half - nab_sq + cubic)
print("  (1/2) Lap |F+|^2 at the origin:",
      0.5 * float(instanton.laplacian_of(plus_norm_sq, np.zeros(4), h=4e-3)), "(exact: -1536)")

print("\ngeneral family member (scale 0.5, shifted center):")
q = instanton.InstantonParams(0.5, (1.0, 0.0, 0.0, 0.0))
print("  |F|^2 at center:", float(instanton.curvature_norm_sq(q, q.center_array)),
      "= 96/scale^4 =", 96 / 0.5 ** 4)
