"""Mutation table: each row injects one deliberate defect and asserts that a
named report check fails, so the check is shown to be able to see it.

Rows run only the suites the defect affects."""

import dataclasses

import pytest

from ymgap import conformal, forms4, liealg, quad4, report


def _failed(suites, cfg=None):
    return {c.name for name in suites for c in report.run_suite(name, cfg).checks
            if not c.passed}


def _negated_stiffness(monkeypatch):
    stiffness = conformal.SLProblem.stiffness_times
    monkeypatch.setattr(conformal.SLProblem, "stiffness_times",
                        lambda self, f: -stiffness(self, f))


def _scaled_constituent(name):
    def mutate(monkeypatch):
        phi_of = conformal.phi_of

        def scaled(*args, **kwargs):
            field = phi_of(*args, **kwargs)
            return dataclasses.replace(field, **{name: 1.01 * getattr(field, name)})

        monkeypatch.setattr(conformal, "phi_of", scaled)
    return mutate


def _route_b_u_cubed(monkeypatch):
    """|W+| and |F+| scale by u^-3 in place of u^-2 in covariance route (b)."""
    covariance_check = conformal.covariance_check
    monkeypatch.setattr(conformal, "covariance_check", lambda u, field: covariance_check(
        u, dataclasses.replace(field, weyl_norm=field.weyl_norm / u,
                               f_plus_norm=field.f_plus_norm / u)))


def _doubled_volumes(monkeypatch):
    cell_volumes = conformal.cell_volumes
    monkeypatch.setattr(conformal, "cell_volumes", lambda n: 2.0 * cell_volumes(n))


def _scaled_cubic_tensor(monkeypatch):
    sd_cubic_tensor = liealg.sd_cubic_tensor
    monkeypatch.setattr(liealg, "sd_cubic_tensor", lambda alg: (1 + 1e-4) * sd_cubic_tensor(alg))


def _negated_comm2form(monkeypatch):
    comm2form = liealg.comm2form
    monkeypatch.setattr(liealg, "comm2form", lambda p, q: -comm2form(p, q))


def _regridded(change):
    """Every R^4 integral runs on change(grid) in place of its grid."""
    def mutate(monkeypatch):
        integrate_r4 = quad4.integrate_r4
        monkeypatch.setattr(quad4, "integrate_r4",
                            lambda f, grid, rule, origin=(0.0,) * 4, coarser=None:
                            integrate_r4(f, change(grid), rule, origin, coarser))
    return mutate


def _scaled_sphere_weights(monkeypatch):
    make = quad4.SphereRule.make

    def scaled(n=24):
        rule = make(n)
        return dataclasses.replace(rule, weights=(1 + 1e-5) * rule.weights)

    monkeypatch.setattr(quad4.SphereRule, "make", scaled)


def _scaled_sd_norms(monkeypatch):
    l2_sd_norms = quad4.l2_sd_norms
    monkeypatch.setattr(quad4, "l2_sd_norms",
                        lambda p, grid=None: tuple((1 + 1e-5) * n for n in l2_sd_norms(p, grid)))


def _flipped_star(monkeypatch):
    star = forms4.STAR.copy()
    star[2, 3] = star[3, 2] = -1.0
    monkeypatch.setattr(forms4, "STAR", star)


def _row(name, mutate, suites, expected, cfg=None):
    return pytest.param(mutate, suites, expected, cfg, id=name)


MUTATIONS = [
    _row("stiffness-sign", _negated_stiffness, ["covariance"], {"covariance-20-random"}),
    _row("f-plus-norm-x1.01", _scaled_constituent("f_plus_norm"), ["covariance"],
         {"covariance-20-random"}),
    _row("weyl-norm-x1.01", _scaled_constituent("weyl_norm"), ["covariance"],
         {"covariance-20-random"}),
    _row("route-b-u-cubed", _route_b_u_cubed, ["covariance"], {"covariance-20-random"}),
    _row("cell-volumes-x2", _doubled_volumes, ["eigenvalue", "yamabe-quotient"],
         {"rayleigh-cos-36", "quotient-at-round"}),
    _row("cubic-tensor-x1.0001", _scaled_cubic_tensor, ["gamma-constants"],
         {"gamma1-su2", "gamma1-so3", "gamma1-so4-bound"}),
    _row("comm2form-sign", _negated_comm2form, ["bracket-sharpness", "bochner"],
         {"cubic-form-bpst", "bracket-term-at-0"}),
    # weights w / r turn the mass w r^3 into w r^2
    _row("radial-measure-r2",
         _regridded(lambda g: dataclasses.replace(g, weights=g.weights / g.nodes)),
         ["energy", "chern-weil"], {"energy-standard", "kappa-bpst"}),
    # rmax = 0 gives the tail node zero mass; the tail is 3e-12 of the energy
    # at the default rmax, so the row runs at rmax = 100, where it is 3e-8
    _row("tail-dropped", _regridded(lambda g: dataclasses.replace(g, rmax=0.0)),
         ["energy", "chern-weil"], {"energy-standard", "kappa-bpst"},
         report.GapConfig(rmax=100.0)),
    # relative 1e-5 against the shift checks' tolerance 1e-6
    _row("sphere-weights-x1.00001", _scaled_sphere_weights, ["energy"],
         {"energy-shift-1.0", "energy-shift-0.5"}),
    # slack/Y = 1e-5 against the default equality tolerance 1e-6
    _row("sd-norms-x1.00001", _scaled_sd_norms, ["gap"], {"verdict-equality", "slack-relative"}),
    _row("star-sign-14-23", _flipped_star, ["kato", "chern-weil", "bracket-sharpness"],
         {"kato-floor-1000pts", "asd-part-vanishes", "pointwise-gamma1-attainment"}),
]


@pytest.mark.parametrize("mutate, suites, expected, cfg", MUTATIONS)
def test_mutation_is_caught(monkeypatch, mutate, suites, expected, cfg):
    assert not _failed(suites, cfg)
    mutate(monkeypatch)
    assert expected <= _failed(suites, cfg)
