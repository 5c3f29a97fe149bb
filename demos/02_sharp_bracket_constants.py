"""The sharp bracket constants gamma0 and gamma1, found by optimization.

gamma0 bounds |[A,B]|/(|A||B|); it is sqrt(2) on su(2) (attained by Pauli
pairs, and by the search's argmax) and 1 on so(3). gamma1 bounds the
cubic form <w,[w,w]>/|w|^3 over self-dual algebra-valued 2-forms:
4/sqrt(6) for su(2), 2/sqrt(3) for so(3), and never more than 4/sqrt(6)
for any skew algebra. An algebra is its structure constants f, a table
on an orthonormal basis: the searches work on coefficients on that basis,
and brackets on f.
"""

import numpy as np

from ymgap import forms4, liealg

# the quaternion relations in plain numpy, with <A, B> = -tr(AB)/2
i, j, k = liealg.SU2_BASIS
print("quaternion generators: |i|^2 =", -np.trace(i @ i) / 2,
      " [i,j] = 2k:", np.array_equal(i @ j - j @ i, 2 * k))

# the package's three algebras, tabulated once from their matrix bases when
# liealg is imported
ALGEBRAS = {'su(2)': liealg.SU2, 'so(3)': liealg.SO3, 'so(4)': liealg.SO4}
print("structure-constant tables:", {name: f.shape for name, f in ALGEBRAS.items()})
for (name, f), expected in zip(ALGEBRAS.items(), (np.sqrt(2.0), 1.0, np.sqrt(2.0))):
    est = liealg.gamma0_estimate(f, restarts=32, seed=0)
    print(f"gamma0[{name}] = {est.value:.12f}  (expected {expected:.12f}, "
          f"grad norm {est.grad_norm:.1e}, converged={est.converged})")
    # the search returns its maximizing coefficient pair, a witness that the
    # value is attained
    x, y = est.argmax
    c = liealg.bracket_coeffs(x, y, f)
    ratio = np.linalg.norm(c) / (np.linalg.norm(x) * np.linalg.norm(y))
    print(f"  its argmax pair has |[A,B]|/(|A||B|) = {ratio:.12f}")

print()
for (name, f), expected in zip(ALGEBRAS.items(), (4 / np.sqrt(6.0), 2 / np.sqrt(3.0),
                                                 4 / np.sqrt(6.0))):
    est = liealg.gamma1_estimate(f, restarts=16, seed=0)
    print(f"gamma1[{name}] = {est.value:.12f}  (expected {expected:.12f})")

print("\nthe maximizing configuration is the quaternionic one:")
# su(2)'s orthonormal basis is (i, j, k)/sqrt2, so i, j, k have coefficient sqrt2
f = liealg.SU2
p = np.sqrt(2.0) * forms4.sd_basis().T
print("  P = e1(x)i + e2(x)j + e3(x)k,  |P|^2 =", liealg.lv_norm_sq(p))
print("  [P,P] = 4P:", np.allclose(liealg.comm2form(p, p, f), 4 * p))
print("  <P,[P,P]> =", liealg.cubic_form(p, f), " = (4/sqrt 6)|P|^3 =",
      4 / np.sqrt(6) * liealg.lv_norm(p) ** 3)
print("  |[P,P]| =", liealg.lv_norm(liealg.comm2form(p, p, f)), " = 4 sqrt(6) =",
      4 * np.sqrt(6.0))
print("  bound residual (2/sqrt3) gamma0 |P|^2 - |[P,P]| =",
      liealg.bracket_bound_check(p, liealg.GAMMA0_SU2, f))
