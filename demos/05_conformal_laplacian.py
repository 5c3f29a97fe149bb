"""The modified conformal Laplacian L = -6 Lap + Phi on the round S^4.

Phi = R - 2 sqrt(6)|W+| - 3 gamma1 |F+| plays the role of a scalar
curvature; the sign of the first eigenvalue of L is a conformal
invariant. The instanton data on the round sphere gives |F+| = sqrt(6)
pointwise and hence Phi = 0: the borderline case lambda_1 = 0.
"""

import numpy as np

from ymgap import conformal, liealg

print("round S^4: R =", conformal.ROUND_SCALAR_CURVATURE,
      " vol =", conformal.ROUND_VOLUME,
      " Yamabe invariant =", conformal.YAMABE_S4, "(= 8 sqrt(6) pi)")

lam, vec = conformal.lambda1(conformal.round_problem(12.0, n=2000))
print("\nPhi = 12 (pure scalar curvature): lambda1 =", lam,
      " eigenfunction constant:", np.max(np.abs(vec - vec[0])) < 1e-6)
# the grids' O(h^2) errors cancel in (4 R(2n) - R(n)) / 3
ray = {n: conformal.rayleigh(conformal.round_problem(12.0, n), np.cos) for n in (2000, 4000)}
print("Rayleigh quotient of cos(rho) at 2000 and 4000 cells:", ray[2000], ray[4000])
print("  extrapolated:", (4.0 * ray[4000] - ray[2000]) / 3.0, "(= 24 + 12 from the first harmonic)")

borderline = conformal.phi_of(12.0, 0.0, np.sqrt(6.0), liealg.GAMMA1_SU2, n=2000)
print("\ninstanton data: Phi = 12 - 3*(4/sqrt6)*sqrt6 -> max|Phi| =",
      np.max(np.abs(borderline.phi)))
lam0, _ = conformal.lambda1(borderline)
print("borderline first eigenvalue:", lam0)

print("\nconformal covariance, two independent discretizations:")
print("  (|W+| = 0.2 (1 + cos rho) and |F+| = sqrt 6 scale by u^-2, R by the Laplacian)")
gaps = {}
for n in (1024, 3072):
    field = conformal.phi_of(12.0, lambda r: 0.2 * (1.0 + np.cos(r)), np.sqrt(6.0),
                             liealg.GAMMA1_SU2, n=n)
    # one factor, as its coefficients on 1 and cos(rho)
    (gaps[n],) = conformal.covariance_check([[1.0, 0.3]], field)
print("  u = 1 + 0.3 cos(rho): max gap", gaps[1024], "at 1024 cells,", gaps[3072], "at 3072")
print("  ratio", gaps[1024] / gaps[3072], "(9 when the gap is only the O(h^2) discretization error)")

print("\nsign invariance of lambda1 under conformal change:")
for phi_val in (12.0, -7.0):
    base = conformal.round_problem(phi_val, n=2000)
    lam_base, _ = conformal.lambda1(base)
    hat = conformal.transform_problem(base, lambda r: 1 + 0.4 * np.cos(r))
    lam_hat, _ = conformal.lambda1(hat)
    print(f"  Phi = {phi_val:5}: lambda1 = {lam_base:+.6f} -> transformed {lam_hat:+.6f}"
          f"  (same sign: {np.sign(lam_base) == np.sign(lam_hat)})")

print("\nYamabe quotient (minimized by the round metric and its conformal orbit):")
round_probs = {n: conformal.round_problem(conformal.ROUND_SCALAR_CURVATURE, n)
               for n in (2000, 4000)}
print("  u = 1:            ", conformal.yamabe_quotient(1.0, round_probs[2000]))
dilated = {n: conformal.yamabe_quotient(conformal.dilation_factor(1.5), prob)
           for n, prob in round_probs.items()}
print("  dilation factor:  ", dilated[4000], "at 4000 cells, extrapolated",
      (4.0 * dilated[4000] - dilated[2000]) / 3.0)
print("  u = 1+0.5cos(rho):",
      conformal.yamabe_quotient(lambda r: 1 + 0.5 * np.cos(r), round_probs[4000]),
      " (strictly above)")
