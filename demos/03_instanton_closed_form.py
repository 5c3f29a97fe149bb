"""The standard instanton in closed form, cross-checked by differencing.

Evaluates the connection and curvature on the flat chart, confirms the
pointwise norm law 96/(1+|x|^2)^4, self-duality, the finite-difference
curvature, the Bianchi identity, the saturated Kato inequality
|nabla F|^2 = (3/2)|d|F||^2, and the flat-chart Bochner identity.
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

print("\nBianchi cyclic-sum residual:", instanton.bianchi_residual_of(c, x, h=1e-3))

print("\nKato: |nabla F|^2 vs (3/2)|d|F||^2 (the family saturates it):")
for pt in (np.array([0.5, 0, 0, 0]), x, np.array([-1.2, 0.4, 0.1, -0.3])):
    nab = instanton.covariant_derivative_of(c, pt, h=1e-4)
    lhs = instanton.cov_norm_sq(nab)
    rhs = 1.5 * float(instanton.curvature_norm_grad_sq(p, pt))
    print(f"  x = {pt}:  {lhs:.9f} vs {rhs:.9f}  (residual {lhs-rhs:+.2e})")

print("\nBochner identity at the origin:")
print("  (1/2) Lap |F|^2 =", 0.5 * float(instanton.curvature_norm_sq_laplacian(p, np.zeros(4))))
f0 = instanton.curvature_closed_at(p, np.zeros(4))
print("  <F,[F,F]>      =", float(liealg.cubic_form(f0, c.f)))
nab0 = instanton.covariant_derivative_of(c, np.zeros(4), h=1e-4)
print("  |nabla F|^2    =", instanton.cov_norm_sq(nab0))
print("  residual       =", instanton.bochner_residual_at(p, np.zeros(4)))

print("\ngeneral family member (scale 0.5, shifted center):")
q = instanton.InstantonParams(0.5, (1.0, 0.0, 0.0, 0.0))
print("  |F|^2 at center:", float(instanton.curvature_norm_sq(q, q.center_array)),
      "= 96/scale^4 =", 96 / 0.5 ** 4)
