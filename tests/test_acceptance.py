"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import time

import numpy as np

from test_instanton import bochner_pieces, bochner_residual
from ymgap import conformal, forms4, instanton, liealg, quad4, report

E16 = 16 * np.pi ** 2
STD = instanton.STANDARD


def _verdict(num, name, ok, detail):
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_gamma0():
    su2 = liealg.gamma0_estimate(liealg.SU2, restarts=64, seed=0)
    so3 = liealg.gamma0_estimate(liealg.SO3, restarts=64, seed=0)
    err_su2 = abs(su2.value - np.sqrt(2.0))
    err_so3 = abs(so3.value - 1.0)
    ok = err_su2 < 1e-6 and err_so3 < 1e-6
    _verdict(1, "gamma0 constants", ok,
             f"su2 err {err_su2:.2e}, so3 err {err_so3:.2e} over 64 restarts")


def test_criterion_02_gamma1():
    su2 = liealg.gamma1_estimate(liealg.SU2, restarts=64, seed=0)
    so3 = liealg.gamma1_estimate(liealg.SO3, restarts=64, seed=0)
    so4 = liealg.gamma1_estimate(liealg.SO4, restarts=32, seed=0)
    err_su2 = abs(su2.value - 4 / np.sqrt(6.0))
    err_so3 = abs(so3.value - 2 / np.sqrt(3.0))
    excess = so4.value - 4 / np.sqrt(6.0)
    ok = err_su2 < 1e-5 and err_so3 < 1e-5 and excess <= 1e-5
    _verdict(2, "gamma1 constants", ok,
             f"su2 err {err_su2:.2e}, so3 err {err_so3:.2e}, so4 excess {excess:.2e}")


def test_criterion_03_energy():
    grid = quad4.RadialGrid.make()
    e_std = quad4.ym_energy(STD, grid)
    rel = abs(e_std - E16) / E16
    energies = [quad4.ym_energy(instanton.InstantonParams(s), grid)
                for s in (0.25, 0.5, 1.0, 2.0, 4.0)]
    small_grid = quad4.RadialGrid.make(panels=20)
    for scale, center in ((1.0, (0.6, 0, 0, 0)), (0.5, (0.5, 0.2, 0, 0))):
        energies.append(quad4.ym_energy(instanton.InstantonParams(scale, center),
                                        small_grid, about=(0, 0, 0, 0)))
    spread = (max(energies) - min(energies)) / E16
    ok = rel < 1e-8 and spread < 1e-6
    _verdict(3, "energy 16 pi^2 + conformal invariance", ok,
             f"rel err {rel:.2e}, spread {spread:.2e}")


def test_criterion_04_chern_weil():
    plus, minus = quad4.l2_sd_norms(STD)
    kappa = quad4.chern_weil_kappa(plus, minus)
    ok = abs(abs(kappa) - 1.0) < 1e-8 and minus < 1e-10
    _verdict(4, "characteristic number", ok,
             f"|kappa|-1 = {abs(kappa)-1:.2e}, ||F-|| = {minus:.2e}")


def test_criterion_05_kato():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((1000, 4))
    pts *= (rng.random((1000, 1)) * 3.0) / np.linalg.norm(pts, axis=1, keepdims=True)
    worst = min(instanton.kato_residual_at(STD.connection, x, h=1e-4) for x in pts)
    rates_ok = True
    for x in (np.array([0.5, 0, 0, 0]), np.array([0.3, -0.1, 0.7, 0.2]),
              np.array([-1.2, 0.4, 0.1, -0.3])):
        r1 = abs(instanton.kato_residual_at(STD.connection, x, h=2e-3, richardson=False))
        r2 = abs(instanton.kato_residual_at(STD.connection, x, h=1e-3, richardson=False))
        rates_ok = rates_ok and (r2 <= r1 / 3.0 + 1e-9)
    ok = worst >= -1e-8 and rates_ok
    _verdict(5, "improved Kato inequality", ok,
             f"min residual {worst:.2e} over 1000 pts, h=1e-4; order-2 {rates_ok}")


def test_criterion_06_bochner():
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((10, 4)) * 0.8
    rates_ok = True
    for x in pts:
        r1 = abs(bochner_residual(STD.connection, x, h=2e-3))
        r2 = abs(bochner_residual(STD.connection, x, h=1e-3))
        rates_ok = rates_ok and (r2 <= r1 / 3.0 + 1e-8)
    lap_half, _, cubic = (float(v) for v in bochner_pieces(STD.connection, np.zeros(4), h=1e-3))
    vals_ok = abs(lap_half + 1536.0) / 1536.0 < 1e-5 and abs(cubic - 1536.0) / 1536.0 < 1e-5
    ok = rates_ok and vals_ok
    _verdict(6, "flat-chart Bochner identity", ok,
             f"order-2 on 10 pts {rates_ok}; at 0: lap term {lap_half:.1f}, bracket {cubic:.1f}")


def test_criterion_07_pointwise_sharpness():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((300, 4)) * 1.6
    f = instanton.curvature_closed_at(STD, pts)
    fplus = liealg.lv_self_dual(f)
    bracket = liealg.comm2form(fplus, fplus, liealg.SU2)
    cubic = liealg.lv_inner(fplus, bracket)
    norms = liealg.lv_norm(fplus)
    gap1 = float(np.max(np.abs(cubic - (4 / np.sqrt(6.0)) * norms ** 3)))
    bnorm = liealg.lv_norm(bracket)
    gap2 = float(np.max(np.abs(bnorm - (2 / np.sqrt(3.0)) * np.sqrt(2.0) * norms ** 2)))
    ok = gap1 < 1e-10 and gap2 < 1e-10
    _verdict(7, "pointwise bracket sharpness", ok, f"cubic gap {gap1:.2e}, norm gap {gap2:.2e}")


def test_criterion_08_circ_basis():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        basis = forms4.random_sd_basis(rng)
        prods = np.stack([liealg.circ(basis[0], basis[1]),
                          liealg.circ(basis[0], basis[2]),
                          liealg.circ(basis[1], basis[2])])
        gram = 2.0 * prods @ prods.T
        worst = max(worst, float(np.max(np.abs(gram - np.eye(3)))))
    ok = worst < 1e-10
    _verdict(8, "circ products of orthonormal bases", ok, f"worst Gram defect {worst:.2e}")


def test_criterion_09_weyl_bound():
    rng = np.random.default_rng(4)
    worst_gap = -np.inf
    for _ in range(10000):
        w = forms4.random_weyl(rng)
        v = rng.standard_normal(3)
        bound = forms4.WEYL_BOUND * forms4.weyl_norm(w) * float(v @ v)
        worst_gap = max(worst_gap, abs(forms4.weyl_quad(w, v)) - bound)
    w, v = forms4.extremal_weyl(1.3)
    eq_gap = abs(abs(forms4.weyl_quad(w, v))
                 - forms4.WEYL_BOUND * forms4.weyl_norm(w) * float(v @ v))
    ok = worst_gap <= 1e-10 and eq_gap < 1e-12
    _verdict(9, "sharp operator bound on self-dual space", ok,
             f"max excess {worst_gap:.2e} over 1e4 pairs, extremal gap {eq_gap:.2e}")


def test_criterion_10_eigenvalues():
    lam12, _ = conformal.lambda1(conformal.round_problem(12.0, n=2000))
    ray = conformal.rayleigh(conformal.round_problem(12.0, n=16000), np.cos)
    borderline = conformal.phi_of(12.0, 0.0, np.sqrt(6.0), liealg.GAMMA1_SU2, n=2000)
    lam0, _ = conformal.lambda1(conformal.round_problem(borderline.phi, n=2000))
    ok = abs(lam12 - 12.0) < 1e-8 and abs(ray - 36.0) < 1e-6 and abs(lam0) <= 1e-6
    _verdict(10, "radial eigenvalue solver", ok,
             f"lambda1(12)-12 = {lam12-12:.2e} @2000, rayleigh(cos)-36 = {ray-36:.2e}, "
             f"|lambda1(borderline)| = {abs(lam0):.2e}")


def test_criterion_11_covariance():
    # one fine grid against an absolute threshold: the route the covariance suite's
    # two-grid order check replaced, kept here as its independent oracle
    rng = np.random.default_rng(5)
    # nonzero |W+| and |F+|, as in the covariance suite, so route (b)'s u^-2 terms count
    field = conformal.phi_of(12.0, lambda r: 0.2 * (1.0 + np.cos(r)), np.sqrt(6.0),
                             liealg.GAMMA1_SU2, n=65536)
    coeffs = np.ones((20, 4))
    for row in coeffs[:, 1:]:
        row[:] = rng.uniform(-1, 1, 3)
        row *= 0.3 / np.sum(np.abs(row))
    worst = np.max(conformal.covariance_check(coeffs, field))
    ok = worst < 1e-6
    _verdict(11, "conformal covariance", ok, f"worst residual {worst:.2e} over 20 factors")


def test_criterion_12_yamabe_quotient():
    prob = conformal.round_problem(conformal.ROUND_SCALAR_CURVATURE, 20000)
    at_one = conformal.yamabe_quotient(1.0, prob)
    err = abs(at_one - conformal.YAMABE_S4)
    rng = np.random.default_rng(6)
    rho, _ = conformal.cell_grid(20000)
    min_q = at_one
    for _ in range(50):
        amps = rng.uniform(-1, 1, 3)
        amps *= rng.uniform(0.05, 0.4) / np.sum(np.abs(amps))
        u = 1.0 + sum(a * np.cos((k + 1) * rho) for k, a in enumerate(amps))
        min_q = min(min_q, conformal.yamabe_quotient(u, prob))
    ok = err < 1e-8 and min_q >= conformal.YAMABE_S4 - 1e-6
    _verdict(12, "Yamabe quotient", ok,
             f"constant-u err {err:.2e}, family min-excess {min_q-conformal.YAMABE_S4:.2e}")


def test_criterion_13_gap_equality():
    rep = report.gap_report(report.GapConfig())
    identity = abs(12.0 - 3.0 * rep.gamma1 * np.sqrt(6.0))
    ok = (rep.verdict == "equality"
          and abs(rep.slack) / rep.yamabe < 1e-6
          and identity < 1e-8
          and rep.equality_residual is not None and rep.equality_residual < 1e-8)
    _verdict(13, "gap report equality case", ok,
             f"verdict {rep.verdict}, |slack|/Y = {abs(rep.slack)/rep.yamabe:.2e}, "
             f"identity residual {identity:.2e}, pointwise {rep.equality_residual:.2e}")


def test_criterion_14_thresholds_and_flow():
    su2 = report.corollary_thresholds(1.0, conformal.YAMABE_S4, liealg.GAMMA1_SU2)
    so3 = report.corollary_thresholds(1.0, conformal.YAMABE_S4, liealg.GAMMA1_SO3)
    err_su2 = abs(su2.general - 48 * np.pi ** 2)
    err_so3 = abs(so3.general - 80 * np.pi ** 2)
    flow = report.flow_admissible(E16)
    ok = err_su2 < 1e-9 and err_so3 < 1e-9 and flow is False
    _verdict(14, "corollary thresholds and flow gate", ok,
             f"48pi^2 err {err_su2:.2e}, 80pi^2 err {err_so3:.2e}, "
             f"admissible(16pi^2) = {flow}")


def test_full_suite_runtime():
    t0 = time.perf_counter()
    results = report.run_all(report.GapConfig())
    elapsed = time.perf_counter() - t0
    failed = [r.suite for r in results if not r.passed]
    ok = not failed and elapsed < 60.0
    _verdict(0, "end-to-end default suites", ok,
             f"{len(results)} suites in {elapsed:.1f}s, failures: {failed or 'none'}")
