"""Mutation table: each row injects one deliberate defect and asserts that a
named report check fails, so the check is shown to be able to see it.

Rows run only the suites the defect affects. Every check of the report
fails under some row or is exempt, with its reason, in ``EXEMPT``."""

import dataclasses

import numpy as np
import pytest

from test_conformal import cell_volumes_oracle
from test_report import PINNED_TOLERANCES
from ymgap import conformal, forms4, instanton, liealg, quad4, report


def _failed(suites, cfg=None):
    return {c.name for name in suites for c in report.run_suite(name, cfg).checks
            if not c.passed}


def _set(owner, name, value):
    def mutate(monkeypatch):
        monkeypatch.setattr(owner, name, value)
    return mutate


def _scaled(owner, name, factor):
    """owner.name, a function or method, returns factor times its value."""
    fn = getattr(owner, name)
    return _set(owner, name, lambda *args: factor * fn(*args))


def _scaled_constituent(name, factor=1.01):
    def mutate(monkeypatch):
        phi_of = conformal.phi_of

        def scaled(*args, **kwargs):
            field = phi_of(*args, **kwargs)
            return dataclasses.replace(field, **{name: factor * getattr(field, name)})

        monkeypatch.setattr(conformal, "phi_of", scaled)
    return mutate


def _route_b_u_cubed(monkeypatch):
    """|W+| and |F+| scale by u^-3 in place of u^-2 in covariance route (b)."""
    covariance_check = conformal.covariance_check
    monkeypatch.setattr(conformal, "covariance_check", lambda u, field: covariance_check(
        u, dataclasses.replace(field, weyl_norm=field.weyl_norm / u,
                               f_plus_norm=field.f_plus_norm / u)))


def _transform_weight_u3(monkeypatch):
    """The conformally changed problem's masses scale by u^3 in place of u^4."""
    transform_problem = conformal.transform_problem

    def u3(prob, u):
        hat = transform_problem(prob, u)
        return dataclasses.replace(hat, weight=hat.weight / u(prob.rho))

    monkeypatch.setattr(conformal, "transform_problem", u3)


def _regridded(change):
    """Every R^4 integral runs on change(grid) in place of its grid."""
    def mutate(monkeypatch):
        integrate_r4 = quad4.integrate_r4
        monkeypatch.setattr(quad4, "integrate_r4",
                            lambda f, grid, rule: integrate_r4(f, change(grid), rule))
    return mutate


def _tenth_grid(keep_tail):
    """The grid scaled to a tenth of its length (nodes / 10, masses / 10^4),
    its last node, the tail, kept or dropped."""
    end = None if keep_tail else -1
    return lambda g: quad4.RadialGrid(g.nodes[:end] / 10, g.weights[:end] / 1e4)


def _scaled_sphere_weights(monkeypatch):
    zonal = quad4.SphereRule.zonal

    def scaled(axis, n):
        rule = zonal(axis, n)
        return dataclasses.replace(rule, weights=(1 + 1e-5) * rule.weights)

    monkeypatch.setattr(quad4.SphereRule, "zonal", scaled)


def _scaled_sd_norms(monkeypatch):
    l2_sd_norms = quad4.l2_sd_norms
    monkeypatch.setattr(quad4, "l2_sd_norms",
                        lambda p, grid=None: tuple((1 + 1e-5) * n for n in l2_sd_norms(p, grid)))


def _flipped_star(monkeypatch):
    star = forms4.STAR.copy()
    star[2, 3] = star[3, 2] = -1.0
    monkeypatch.setattr(forms4, "STAR", star)


def _scaled_structure_constants(monkeypatch):
    for name in ("SU2", "SO3", "SO4"):
        monkeypatch.setattr(liealg, name, (1 + 1e-4) * getattr(liealg, name))


def _flipped_circ_sign(monkeypatch):
    sign = forms4.CIRC_SIGN.copy()
    sign[0, 0] = -sign[0, 0]
    monkeypatch.setattr(forms4, "CIRC_SIGN", sign)


def _scaled_diagonal_potential(monkeypatch):
    """The solver's diagonal carries (1 + 1e-6) Phi; the quadratic form keeps Phi."""
    tridiagonal = conformal.SLProblem.tridiagonal

    def scaled(prob):
        d, e = tridiagonal(prob)
        return d + 1e-6 * prob.phi, e

    monkeypatch.setattr(conformal.SLProblem, "tridiagonal", scaled)


def _flipped_offdiagonal(monkeypatch):
    """One off-diagonal entry of the symmetrized operator with the wrong sign:
    the spectrum stays, the ground state changes sign past that entry."""
    tridiagonal = conformal.SLProblem.tridiagonal

    def flipped(prob):
        d, e = tridiagonal(prob)
        e = e.copy()
        e[len(e) // 2] *= -1.0
        return d, e

    monkeypatch.setattr(conformal.SLProblem, "tridiagonal", flipped)


def _laplacian_in_r3(monkeypatch):
    """The norm law's Laplacian g'' + 3 g'/r taken as g'' + 2 g'/r, where
    g'/r = -768 scale^4 (scale^2 + r^2)^-5."""
    laplacian = instanton.curvature_norm_sq_laplacian

    def in_r3(p, x):
        u = p.scale ** 2 + np.sum((np.asarray(x) - p.center_array) ** 2, axis=-1)
        return laplacian(p, x) + 768.0 * p.scale ** 4 / u ** 5

    monkeypatch.setattr(instanton, "curvature_norm_sq_laplacian", in_r3)


def _halved_conductivity(monkeypatch):
    """-3 Lap + Phi in place of the conformal Laplacian's -6 Lap + Phi."""
    round_problem = conformal.round_problem

    def halved(phi, n=2000):
        prob = round_problem(phi, n)
        return dataclasses.replace(prob, cond=0.5 * prob.cond)

    monkeypatch.setattr(conformal, "round_problem", halved)


def _row(name, mutate, suites, expected, cfg=None):
    return pytest.param(mutate, suites, expected, cfg, id=name)


MUTATIONS = [
    _row("stiffness-sign", _scaled(conformal.SLProblem, "stiffness_times", -1.0), ["covariance"],
         {"covariance-20-random"}),
    _row("f-plus-norm-x1.01", _scaled_constituent("f_plus_norm"), ["covariance"],
         {"covariance-20-random"}),
    _row("weyl-norm-x1.01", _scaled_constituent("weyl_norm"), ["covariance"],
         {"covariance-20-random"}),
    # the coarse-to-fine gap ratio leaves 9 by 12% against 5%; on one 65 536-cell
    # grid the gap itself reads 9.9e-7, under the 1e-6 that grid was held to
    _row("f-plus-norm-x1.00000003", _scaled_constituent("f_plus_norm", 1 + 3e-8), ["covariance"],
         {"covariance-20-random"}),
    _row("route-b-u-cubed", _route_b_u_cubed, ["covariance"], {"covariance-20-random"}),
    _row("cell-volumes-x2", _scaled(conformal, "cell_volumes", 2.0),
         ["eigenvalue", "yamabe-quotient"],
         {"rayleigh-cos-36", "quotient-at-round"}),
    _row("cubic-tensor-x1.0001", _scaled(liealg, "sd_cubic_tensor", 1 + 1e-4), ["gamma-constants"],
         {"gamma1-su2", "gamma1-so3", "gamma1-so4-bound"}),
    _row("comm2form-sign", _scaled(liealg, "comm2form", -1.0), ["bracket-sharpness", "bochner"],
         {"cubic-form-bpst", "bracket-term-at-0"}),
    # masses / r turn the mass w r^3 into w r^2, and the tail's rmax^4/4 into rmax^3/4
    _row("radial-measure-r2",
         _regridded(lambda g: dataclasses.replace(g, weights=g.weights / g.nodes)),
         ["energy", "chern-weil"],
         {"energy-standard", "energy-dilation-invariance", "kappa-bpst"}),
    # every grid at a tenth of its length, with its last node, the tail at
    # rmax, removed: the tail is 3e-8 of the energy there (3e-12 on the
    # standard grid); test_tail_dropped_control keeps the tail and fails nothing
    _row("tail-dropped", _regridded(_tenth_grid(keep_tail=False)),
         ["energy", "chern-weil"], {"energy-standard", "kappa-bpst"}),
    # relative 1e-5 against the shift checks' tolerance 1e-6
    _row("sphere-weights-x1.00001", _scaled_sphere_weights, ["energy"],
         {"energy-shift-1.0", "energy-shift-0.5"}),
    # slack/Y = 1e-5 against the default equality tolerance 1e-6
    _row("sd-norms-x1.00001", _scaled_sd_norms, ["gap"], {"verdict-equality", "slack-relative"}),
    _row("star-sign-14-23", _flipped_star, ["kato", "chern-weil", "bracket-sharpness"],
         {"kato-floor-1000pts", "kato-order2", "asd-part-vanishes",
          "pointwise-gamma1-attainment"}),
    # general moves by 2e-6 * 32 pi^2 against 1e-9; the borderline Phi is -1.2e-5
    _row("gamma1-su2-x1.000001", _set(liealg, "GAMMA1_SU2", (1 + 1e-6) * liealg.GAMMA1_SU2),
         ["thresholds", "eigenvalue"],
         {"general-vs-weak", "specialized-value", "lambda1-borderline"}),
    # so(3)'s general threshold moves by 2e-6 * 64 pi^2 against 1e-9
    _row("gamma1-so3-x1.000001", _set(liealg, "GAMMA1_SO3", (1 + 1e-6) * liealg.GAMMA1_SO3),
         ["thresholds"], {"specialized-value"}),
    # the instanton's energy, 16 pi^2 to 1e-12, falls below the raised gate
    _row("flow-threshold-x1.000001", _set(quad4, "EPI2_16", (1 + 1e-6) * quad4.EPI2_16),
         ["flow-check"], {"gate-rejects-instanton"}),
    _row("structure-constants-x1.0001", _scaled_structure_constants, ["gamma-constants"],
         {"gamma0-su2", "gamma0-so3"}),
    # the sampled su(2) brackets reach 1.58 |p|^2; so(3)'s constant allows 1.15 |p|^2
    _row("gamma0-su2-from-so3", _set(liealg, "GAMMA0_SU2", liealg.GAMMA0_SO3),
         ["bracket-sharpness"], {"bound-equality-bpst", "bound-nonneg-random"}),
    # the norm cannot see comm2form-sign, but it sees a scale
    _row("comm2form-x1.000001", _scaled(liealg, "comm2form", 1 + 1e-6), ["bracket-sharpness"],
         {"bracket-norm-bpst"}),
    # the one bracket of the package: the differenced curvature's [theta_i, theta_j]
    # and nabla F's [theta_k, F] flip with the bracket of the cubic form
    _row("bracket-coeffs-sign", _scaled(liealg, "bracket_coeffs", -1.0),
         ["bochner", "bracket-sharpness"],
         {"curvature-fd", "bianchi", "bracket-term-at-0", "cubic-form-bpst"}),
    _row("circ-sign-12", _flipped_circ_sign, ["circ-basis"], {"circ-orthonormal-100bases"}),
    # the sampled ratios reach 0.98 of the sharp 2/sqrt(6)
    _row("weyl-bound-x0.95", _set(forms4, "WEYL_BOUND", 0.95 * forms4.WEYL_BOUND),
         ["weyl-bound"], {"weyl-bound-10k", "weyl-equality-extremal"}),
    # lambda1 reads the tridiagonal form, rayleigh the quadratic form
    _row("diagonal-potential-x1.000001", _scaled_diagonal_potential, ["eigenvalue"],
         {"lambda1-const-12"}),
    _row("offdiagonal-sign-mid", _flipped_offdiagonal, ["eigenvalue"],
         {"eigenfunction-positive"}),
    # theta -> -theta: the differenced curvature and its Bianchi sum move by O(1)
    _row("connection-sign", _set(instanton, "_THETA_COEFF", -instanton._THETA_COEFF), ["bochner"],
         {"curvature-fd", "bianchi"}),
    # the transformed borderline problem's lambda1 leaves 0 (to -0.20)
    _row("transform-weight-u3", _transform_weight_u3, ["eigenvalue"],
         {"lambda1-borderline-conformal"}),
    _row("laplacian-in-r3", _laplacian_in_r3, ["bochner"],
         {"laplacian-term-at-0", "bochner-order2", "bochner-residual-default"}),
    # constants do not feel it; the perturbed factors fall below Y, and the
    # dilated ones miss Y by 5.3
    _row("conductivity-x0.5", _halved_conductivity, ["yamabe-quotient"],
         {"quotient-family-floor", "quotient-dilation-family"}),
    # ||F+|| comes from the curvature coefficients, the pointwise identity from the norm law
    _row("norm-law-x1.000001", _scaled(instanton, "curvature_norm_sq", 1 + 1e-6), ["gap"],
         {"equality-identity"}),
]

# checks no row can fail, with the reason
EXEMPT = {
    "flat-is-case-1": "the verdict at ||F+|| = 0 is a branch on a literal in gap_inequality "
                      "that no module attribute reaches; test_gap_report_flat_and_violated "
                      "pins it",
}


@pytest.mark.parametrize("mutate, suites, expected, cfg", MUTATIONS)
def test_mutation_is_caught(monkeypatch, mutate, suites, expected, cfg):
    assert not _failed(suites, cfg)
    mutate(monkeypatch)
    assert expected <= _failed(suites, cfg)


def test_cell_volume_row_leaves_the_cached_table_clean():
    """The cell-volumes-x2 row patches the cached builder; the next reader gets the true table."""
    mutate, suites, expected, cfg = next(row.values for row in MUTATIONS
                                         if row.id == "cell-volumes-x2")
    with pytest.MonkeyPatch.context() as patch:
        mutate(patch)
        assert expected <= _failed(suites, cfg)
    assert np.array_equal(conformal.cell_volumes(2000), cell_volumes_oracle(2000))


def test_tail_dropped_control(monkeypatch):
    _regridded(_tenth_grid(keep_tail=True))(monkeypatch)
    assert not _failed(["energy", "chern-weil"])


# the pointwise suites sample in the configured instanton's units, so a
# member far from the origin must show every defect the standard one shows
FAR_MEMBER = report.GapConfig(scale=2.0, center=(30.0, 0.0, 0.0, 0.0))


@pytest.mark.parametrize("mutate, suites, expected", [
    pytest.param(*row.values[:3], id=row.id) for row in MUTATIONS
    if {"kato", "bochner", "bracket-sharpness"} & set(row.values[1])])
def test_pointwise_mutation_is_caught_far_from_origin(monkeypatch, mutate, suites, expected):
    test_mutation_is_caught(monkeypatch, mutate, suites, expected, FAR_MEMBER)


def test_equality_identity_reported_off_equality(monkeypatch):
    """The pointwise identity is a property of the instanton, not of the L2
    verdict: with the norms off equality the gap suite still reports it."""
    _scaled_sd_norms(monkeypatch)
    checks = report.run_suite("gap").checks
    assert [c.name for c in checks] == ["verdict-equality", "slack-relative",
                                        "equality-identity", "flat-is-case-1"]
    assert [c.passed for c in checks] == [False, False, True, True]


def test_every_check_fails_under_a_row_or_is_exempt():
    caught = set().union(*(row.values[2] for row in MUTATIONS))
    checks = {name for _, name, _ in PINNED_TOLERANCES}
    assert caught <= checks
    assert checks - caught == set(EXEMPT)
