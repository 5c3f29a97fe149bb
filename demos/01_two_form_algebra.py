"""Tour of the 2-form algebra on oriented R^4.

Walks through the package conventions: the factor-2 inner product, the
Hodge star table, the self-dual/anti-self-dual split, 2-forms as so(4)
with the circ product as minus its bracket, the circ product basis
rotation, and the sharp 2/sqrt(6) bound for trace-free operators on the
self-dual space.
"""

import numpy as np

from ymgap import forms4, liealg

rng = np.random.default_rng(0)

dx12, dx34 = np.eye(6)[[forms4.PAIR_INDEX[(0, 1)], forms4.PAIR_INDEX[(2, 3)]]]
print("|dx12|^2 =", forms4.inner_2form(dx12, dx12), "(the factor-2 convention)")

# the package applies the star to Lie-algebra-valued forms, stored as
# (6, k) coefficients on an orthonormal basis E_1..E_k of the algebra; a
# scalar form a is the form a (x) E_1 with one coefficient, a[:, None]
print("star(dx12 (x) E_1) = dx34 (x) E_1:",
      np.array_equal(liealg.lv_hodge(dx12[:, None]), dx34[:, None]))

a = rng.standard_normal(6)
plus = liealg.lv_self_dual(a[:, None])[:, 0]
minus = a - plus
print("\nrandom 2-form split: |a|^2 = |a+|^2 + |a-|^2 ->",
      forms4.inner_2form(a, a), "=",
      forms4.inner_2form(plus, plus) + forms4.inner_2form(minus, minus))

# a 2-form is a skew 4x4 matrix: SO4_BASIS is dx^ij in PAIRS order, and
# circ, the 2-form product, is minus the so(4) bracket on those coefficients;
# it agrees with the component formula (a o b)_ij = sum_k (a_ik b_jk - a_jk b_ik)
b = rng.standard_normal(6)
am, bm = (np.einsum('c,cij->ij', v, liealg.SO4_BASIS) for v in (a, b))
formula = (am @ bm.T - bm @ am.T)[forms4.PAIR_I, forms4.PAIR_J]
print("\n2-forms are so(4): SO4_BASIS[c] is dx^PAIRS[c] as a skew matrix;")
print("  a o b = sum_k (a_ik b_jk - a_jk b_ik):",
      np.allclose(liealg.circ(a, b), formula, atol=1e-14))

e = forms4.sd_basis()
print("\ncirc products of the standard self-dual basis:")
print("  e1 o e2 = e3:", np.allclose(liealg.circ(e[0], e[1]), e[2]))
print("  e2 o e3 = e1:", np.allclose(liealg.circ(e[1], e[2]), e[0]))
print("  e1 o e3 = -e2:", np.allclose(liealg.circ(e[0], e[2]), -e[1]))

basis = forms4.random_sd_basis(rng)
prods = np.stack([liealg.circ(basis[0], basis[1]),
                  liealg.circ(basis[0], basis[2]),
                  liealg.circ(basis[1], basis[2])])
gram = 2.0 * prods @ prods.T
print("\nrandom orthonormal basis: circ products are again orthonormal,")
print("  max |Gram - I| =", np.max(np.abs(gram - np.eye(3))))

print("\nsharp bound |<w, W w>| <= (2/sqrt 6)|W||w|^2:")
sup = 0.0
for _ in range(20000):
    w = forms4.random_weyl(rng)
    v = rng.standard_normal(3)
    sup = max(sup, abs(forms4.weyl_quad(w, v)) / (forms4.weyl_norm(w) * float(v @ v)))
print("  sampled supremum of the ratio:", sup)
w, v = forms4.extremal_weyl()
print("  extremal pair attains:", abs(forms4.weyl_quad(w, v)) /
      (forms4.weyl_norm(w) * float(v @ v)), "= 2/sqrt(6) =", forms4.WEYL_BOUND)
