"""Quadrature: radial/angular rules, energy, characteristic number."""

import warnings
from math import gamma

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from ymgap import instanton, liealg, quad4, report

E16 = quad4.EPI2_16
#: one node carrying the whole of S^3: exact for integrands radial about the origin
ONE_NODE = quad4.SphereRule.zonal(np.eye(4)[1], 1)


def _radial(g):
    """The integrand x -> g(|x|), at the assembled points x = r omega."""
    return lambda r, w: g(np.linalg.norm(r[..., None] * w, axis=-1))


def test_radial_oracle_integrals():
    grid = quad4.RadialGrid.make()
    # int r^3 (1+r^2)^-4 dr = 1/12, times 2 pi^2
    val = quad4.integrate_r4(_radial(lambda r: (1 + r ** 2) ** -4.0), grid, ONE_NODE)
    assert abs(val - np.pi ** 2 / 6.0) < 1e-10
    val = quad4.integrate_r4(_radial(lambda r: np.exp(-r ** 2)), grid, ONE_NODE)
    assert abs(val - np.pi ** 2) < 1e-10
    assert quad4.integrate_r4(_radial(np.zeros_like), grid, ONE_NODE) == 0.0


def test_radial_grid_validation_and_tail():
    grid = quad4.RadialGrid.make()
    assert np.all(grid.weights > 0)
    assert np.all(np.diff(grid.nodes) > 0)
    # the tail is the last node, at rmax: 2 pi^2 f(rmax) rmax^4 / 4
    rmax = grid.nodes[-1]
    f = lambda r: (1 + r ** 2) ** -4.0
    tail = (quad4.integrate_r4(_radial(f), grid, ONE_NODE)
            - quad4.integrate_r4(_radial(lambda r: np.where(r < rmax, f(r), 0.0)),
                                 grid, ONE_NODE))
    assert 0 < tail < 1e-10
    assert abs(tail - 2 * np.pi ** 2 * f(rmax) * rmax ** 4 / 4) < 1e-15
    with pytest.raises(ValueError):
        quad4.integrate_r4(_radial(lambda r: np.where(r > 500, np.inf, 1.0)), grid, ONE_NODE)


def test_stacked_integrands_match_single_integrals():
    grid = quad4.RadialGrid.make()
    gs = (lambda r: (1 + r ** 2) ** -4.0, lambda r: np.exp(-r ** 2),
          lambda r: r ** 2 * (1 + r ** 2) ** -5.0)
    stacked = quad4.integrate_r4(lambda r, w: np.stack([_radial(g)(r, w) for g in gs]),
                                 grid, ONE_NODE)
    assert stacked.shape == (3,)
    for got, g in zip(stacked, gs):
        single = quad4.integrate_r4(_radial(g), grid, ONE_NODE)
        assert type(single) is float and abs(got - single) <= 2 * np.spacing(single)
    # a non-finite value in the second row alone names its radius
    bad = grid.nodes[100]
    with pytest.raises(ValueError, match=f"at r = {bad}$"):
        quad4.integrate_r4(lambda r, w: np.stack([_radial(gs[0])(r, w),
                                                  np.where(r == bad, np.nan, np.ones(len(w))),
                                                  _radial(gs[1])(r, w)]), grid, ONE_NODE)


def _integrand_calls(monkeypatch):
    """Per integral of quad4: the (radii, points) shapes it should evaluate
    at once, and the shapes of the integrand calls it made."""
    seen = []
    integrate_r4 = quad4.integrate_r4

    def recorded(f, grid, rule):
        calls = []
        seen.append(((len(grid.nodes), 1), (len(rule.weights), 4), calls))
        return integrate_r4(lambda r, w: calls.append((r.shape, w.shape)) or f(r, w), grid, rule)

    monkeypatch.setattr(quad4, "integrate_r4", recorded)
    return seen


def test_integrand_is_called_once_per_integral(monkeypatch):
    seen = _integrand_calls(monkeypatch)
    quad4.l2_sd_norms(instanton.STANDARD)     # one integral of both parts
    quad4.ym_energy(instanton.STANDARD)
    # d = 10 scales: 1057 radii x 280 nodes = 295 960 values, past quad4._MAX_POINTS
    far = instanton.InstantonParams(1e-3, (1e-2, 0.0, 0.0, 0.0))
    assert abs(quad4.ym_energy(far, about=np.zeros(4)) - E16) / E16 < 1e-9
    assert [points[0] for _, points, _ in seen] == [1, 1, 280]
    assert seen[-1][0] == (1057, 1)
    for radii, points, calls in seen:
        assert calls == [(radii, points)]


def test_radial_grid_weights_reach_rmax():
    # the last node is rmax with the tail mass rmax^4/4, and 24-node
    # Gauss-Legendre is exact on r^3: the masses sum to rmax^4/4 + rmax^4/4;
    # a wide member's grid reaches 1000 of its scales
    for scale, panels in ((1.0, 2), (1.0, 3), (1.0, 24), (10.0, None)):
        grid = quad4.RadialGrid.make(scale=scale, panels=panels)
        rmax = 1000.0 * scale
        assert grid.nodes[-1] == rmax and grid.weights[-1] == rmax ** 4 / 4
        assert abs(grid.weights.sum() / (rmax ** 4 / 2) - 1.0) < 1e-14
        assert grid.nodes[-2] > 0.9 * rmax
    with pytest.raises(ValueError):
        quad4.RadialGrid.make(panels=1)


def test_radial_grid_uses_the_24_node_rule():
    # the rule is built once at import; every grid is a fresh leggauss(24) per panel
    xs, ws = leggauss(24)
    for scale, panels in ((1.0, None), (1e-3, None), (50.0, 7)):
        grid = quad4.RadialGrid.make(scale=scale, panels=panels)
        rmax = 1000.0 * max(1.0, scale)
        edges = np.concatenate([[0.0], np.geomspace(0.25 * min(1.0, scale), rmax,
                                                    panels or quad4.panel_count(scale))])
        a, h = edges[:-1, None], np.diff(edges)[:, None]
        nodes = (0.5 * (xs + 1.0) * h + a).ravel()
        assert np.array_equal(grid.nodes, np.append(nodes, rmax))
        assert np.array_equal(grid.weights, np.append((0.5 * h * ws).ravel() * nodes ** 3,
                                                      rmax ** 4 / 4))
    with pytest.raises(ValueError):
        quad4._GL_WEIGHTS[0] = 1.0


def _product_rule(n):
    """The independent full-S^3 oracle: the product rule of order n.

    Gauss-Chebyshev of the second kind in cos psi (nodes k pi / (n + 1),
    weights pi / (n + 1) sin^2 psi), Gauss-Legendre in cos theta and 2n
    uniform azimuths; 2n^3 points, exact to degree 2n - 1.
    """
    psi = np.arange(1, n + 1) * np.pi / (n + 1)
    cp, sp = np.cos(psi), np.sin(psi)
    wpsi = np.pi / (n + 1) * sp ** 2
    ct, wtheta = leggauss(n)
    st = np.sqrt(1.0 - ct ** 2)
    m = 2 * n
    phi = np.arange(m) * 2.0 * np.pi / m
    pts = np.empty((4, n, n, m))
    pts[0] = cp[:, None, None]
    pts[1] = (sp[:, None] * ct[None, :])[..., None]
    pts[2] = sp[:, None, None] * st[None, :, None] * np.cos(phi)
    pts[3] = sp[:, None, None] * st[None, :, None] * np.sin(phi)
    w = wpsi[:, None, None] * wtheta[None, :, None] * np.full(m, 2.0 * np.pi / m)
    return quad4.SphereRule(pts.reshape(4, -1).T, w.reshape(-1))


def test_sphere_rule_moments():
    # the integral of (omega . e)^(2k) over S^3 is 2 Gamma(k + 1/2) Gamma(1/2)^3 / Gamma(k + 2)
    for axis in (np.eye(4)[0], np.full(4, 0.5),
                 np.random.default_rng(0).standard_normal(4)):
        axis = axis / np.linalg.norm(axis)
        for n in (1, 2, 5, 19, 32, 64):
            rule = quad4.SphereRule.zonal(axis, n)
            assert rule.points.shape == (n, 4)
            assert abs(rule.weights.sum() - 2 * np.pi ** 2) < 1e-13, n
            assert np.max(np.abs(np.linalg.norm(rule.points, axis=1) - 1.0)) < 1e-14
            t = rule.points @ axis
            for k in range(n):
                exact = 2 * gamma(k + 0.5) * gamma(0.5) ** 3 / gamma(k + 2)
                assert abs(rule.weights @ t ** (2 * k) / exact - 1.0) < 1e-13, (n, k)


def test_product_rule_moments():
    # on S^3 an even monomial of degree 2k is one of degree 2k + 2 times
    # |x|^2 = 1, so exactness at the top even degree 2n - 2 covers all below;
    # x^(2a) integrates to 2 prod Gamma(a_i + 1/2) / Gamma(|a| + 2)
    for n in (4, 6, 8, 12, 16, 20, 24):
        rule = _product_rule(n)
        assert abs(rule.weights.sum() - 2 * np.pi ** 2) < 1e-14, n
        assert np.max(np.abs(np.linalg.norm(rule.points, axis=1) - 1.0)) < 1e-14
        powers = rule.points.T[:, None, :] ** (2 * np.arange(n))[:, None]
        g = np.array([gamma(k + 0.5) for k in range(n)])
        for a0 in range(n):
            for a1 in range(n - a0):
                a2 = np.arange(n - a0 - a1)
                a3 = n - 1 - a0 - a1 - a2
                values = ((powers[2, a2] * powers[3, a3])
                          @ (rule.weights * powers[0, a0] * powers[1, a1]))
                exact = 2 * g[a0] * g[a1] * g[a2] * g[a3] / gamma(n + 1)
                assert np.max(np.abs(values / exact - 1.0)) < 1e-13, (n, a0, a1)


def test_zonal_rule_refuses_more_than_max_points():
    with pytest.raises(ValueError):
        quad4.SphereRule.zonal(np.eye(4)[0], quad4._MAX_POINTS + 1)


@pytest.mark.parametrize("n", [2.5, True, 0, 3.0])
def test_zonal_rule_refuses_a_non_integer_size(n):
    # 2.5 gave 3 nodes at k pi / 3.5, and True a 1-node rule
    with pytest.raises(ValueError, match="^n must be an integer"):
        quad4.SphereRule.zonal(np.eye(4)[1], n)


@pytest.mark.parametrize("axis", [(2.0, 0, 0, 0), (0.0, 0, 0, 0), (np.nan, 0, 0, 0),
                                  (np.inf, 0, 0, 0), (1.0 + 1e-11, 0, 0, 0), (1.0, 0, 0)])
def test_zonal_rule_refuses_an_axis_off_the_unit_sphere(axis):
    # an axis of norm 2 gave nodes of norm 1.72 and 1.13, and a NaN axis NaN nodes
    with pytest.raises(ValueError, match="^axis must be a finite unit 4-vector"):
        quad4.SphereRule.zonal(axis, 4)


@pytest.mark.parametrize("panels", [24.0, True, 1, "24"])
def test_radial_grid_refuses_a_non_integer_panel_count(panels):
    # 24.0 raised numpy's TypeError from geomspace
    with pytest.raises(ValueError, match="^panels must be an integer >= 2"):
        quad4.RadialGrid.make(panels=panels)


@pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf, 1e-300, 1e21, True, "1"],
                         ids=["zero", "minus-1", "nan", "inf", "1e-300", "1e21", "bool", "str"])
@pytest.mark.parametrize("build", [quad4.RadialGrid.make, quad4.panel_count],
                         ids=["make", "panel_count"])
def test_radial_grid_refuses_a_scale_no_instanton_has(build, scale):
    # 0 raised ZeroDivisionError, -1 and nan a NaN-to-integer error, inf OverflowError,
    # 1e-300 "weights must be positive", and True built the scale-1 grid
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^scale must be"):
            build(scale)


def test_far_center_is_refused():
    # the radial panels graded from `about` resolve a center up to 10 scales
    # away: 4.2e-10 here, and at most 9e-10 for scales 1e-3 to 10
    e = quad4.ym_energy(instanton.InstantonParams(0.1, (1.0, 0, 0, 0)), about=np.zeros(4))
    assert abs(e - E16) / E16 < 1e-9
    for scale in (0.099, 1e-3):
        with pytest.raises(ValueError, match="scales from about"):
            quad4.ym_energy(instanton.InstantonParams(scale, (1.0, 0, 0, 0)), about=np.zeros(4))
    for about in ((np.nan, 0.0, 0.0, 0.0), (np.inf, 0.0, 0.0, 0.0)):    # a non-finite offset
        with pytest.raises(ValueError, match="scales from about"):
            quad4.ym_energy(instanton.STANDARD, about=about)


def test_energy_standard_and_grid_refinement():
    grid = quad4.RadialGrid.make()
    e = quad4.ym_energy(instanton.STANDARD, grid)
    assert abs(e - E16) / E16 < 1e-8
    fine = quad4.RadialGrid.make(panels=48)
    assert abs(quad4.ym_energy(instanton.STANDARD, fine) - e) < 1e-10


def test_energy_dilation_invariance():
    grid = quad4.RadialGrid.make()
    energies = [quad4.ym_energy(instanton.InstantonParams(s), grid)
                for s in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert (max(energies) - min(energies)) / E16 < 1e-6


def test_energy_center_shift_angular_path():
    grid = quad4.RadialGrid.make(panels=20)
    for scale, center in ((1.0, (0.6, 0, 0, 0)), (0.5, (0.3, 0.3, 0, 0.2))):
        p = instanton.InstantonParams(scale, center)
        e = quad4.ym_energy(p, grid, about=(0, 0, 0, 0))
        assert abs(e - E16) / E16 < 1e-6


def test_energy_radial_vs_angular_consistency():
    p = instanton.InstantonParams(0.7, (0.4, 0, -0.2, 0))
    grid = quad4.RadialGrid.make(panels=20)
    e_rad = quad4.ym_energy(p, grid)    # about the center, d = 0: one node on every sphere
    e_ang = quad4.ym_energy(p, grid, about=(0, 0, 0, 0))
    assert abs(e_rad - e_ang) / E16 < 1e-10


# d / scale = 4.7: the order-24 product rule misses 16 pi^2 here by 1.3e-3
FAR_PAIR = (0.25, (1.0, -0.5, 0.3, 0.2))


@pytest.mark.parametrize("scale, center", [
    (1.0, (0.6, 0, 0, 0)), (0.5, (0.6, 0, 0, 0)), (0.5, (0.3, 0.3, 0.3, 0.3)),
    (1.0, (0.3, 0.3, 0.3, 0.3)), (4.0, (2.0, 0, 1.0, 0)), (0.25, (0.1, 0, 0, 0)),
    FAR_PAIR, (2.0, (0, 1.2, -1.2, 0.8)),
])
def test_graded_angular_order_matches_uniform_rule(scale, center):
    # the zonal rule against 16 pi^2 and, where it converges, against the
    # oracle: the order-24 product rule on every sphere, on the same radii
    p = instanton.InstantonParams(scale, center)
    grid = quad4.RadialGrid.make(panels=20)
    zonal = quad4.ym_energy(p, grid, about=(0.0, 0.0, 0.0, 0.0))
    assert abs(zonal - E16) / E16 < 1e-12
    if (scale, center) != FAR_PAIR:
        product = _product_rule_energy(p, grid, _product_rule(24))
        assert abs(zonal - product) / product < 1e-12


def _product_rule_energy(p, grid, rule, block=16):
    """The energy of p on grid with rule on every sphere, summed over blocks of
    `block` radii: one integrate_r4 call would hold all radii x nodes at once
    (13.3 M points for the order-24 rule on 481 radii)."""
    total = 0.0
    for start in range(0, len(grid.nodes), block):
        r = grid.nodes[start:start + block, None, None]
        sphere_sums = instanton.curvature_norm_sq(p, r * rule.points) @ rule.weights
        total += sphere_sums @ grid.weights[start:start + block]
    return total


def _off_center_integrand(monkeypatch, p, about):
    """The integrand that ym_energy(p, about=about) hands to integrate_r4."""
    seen = []
    monkeypatch.setattr(quad4, "integrate_r4", lambda f, *args: seen.append(f) or 0.0)
    quad4.ym_energy(p, about=about)
    monkeypatch.undo()
    return seen[0]


@pytest.mark.parametrize("scale, center", [
    (1.0, (0.6, 0, 0, 0)), (0.5, (0.3, 0.3, 0.3, 0.3)), (0.25, (1.0, -0.5, 0.3, 0.2)),
])
def test_law_of_cosines_integrand_matches_norm_law(monkeypatch, scale, center):
    p = instanton.InstantonParams(scale, center)
    about = np.array([0.1, 0.0, -0.2, 0.05])
    f = _off_center_integrand(monkeypatch, p, about)
    w = _product_rule(24).points
    d = np.linalg.norm(p.center_array - about)
    # spheres through, inside and outside the center, and far out
    r = np.array([[0.5 * d], [d], [d + 0.3 * scale], [3.0], [400.0]])
    assembled = instanton.curvature_norm_sq(p, about + r[..., None] * w)
    assert np.max(np.abs(f(r, w) / assembled - 1.0)) < 1e-13


def test_energy_shift_integrals_stay_graded(monkeypatch):
    # the order-24 product rule gives each 577 x 27 648 = 15.95 M points
    seen = []
    integrate_r4, ym_energy = quad4.integrate_r4, quad4.ym_energy

    def counted(f, grid, rule):
        def values(r, w):
            out = f(r, w)
            seen[-1] += out.size
            return out
        return integrate_r4(values if len(rule.weights) > 1 else f, grid, rule)

    def recorded(*args, **kwargs):
        seen.append(0)
        return ym_energy(*args, **kwargs)

    monkeypatch.setattr(quad4, "integrate_r4", counted)
    monkeypatch.setattr(quad4, "ym_energy", recorded)
    assert report.run_suite("energy").passed
    shifts = [n for n in seen if n]      # values of the off-center integrands only
    assert len(shifts) == 2 and max(shifts) <= 50_000


def test_tail_estimate_vs_extended_grid():
    # the standard grid ends at 50 scales of a scale-20 member; its own grid at 1000
    p = instanton.InstantonParams(20.0)
    short, long = quad4.RadialGrid.make(), quad4.RadialGrid.make(scale=p.scale)
    # 2 pi^2 int_rmax^inf 96 r^3 (1+r^2)^-4 dr in closed form, in units of the scale
    s = 1.0 + (short.nodes[-1] / p.scale) ** 2
    true_tail = 2 * np.pi ** 2 * 96.0 * (1.0 / (4.0 * s ** 2) - 1.0 / (6.0 * s ** 3))
    error = quad4.ym_energy(p, short) - quad4.ym_energy(p, long)
    assert abs(error) / true_tail < 2e-3


def test_l2_sd_norms():
    plus, minus = quad4.l2_sd_norms(instanton.STANDARD)
    assert abs(plus - 4 * np.pi) < 1e-7
    assert minus < 1e-10
    grid = quad4.RadialGrid.make()
    # the standard grid's tail is 3e-8 of a scale-10 member's energy: both
    # sides must include it
    for p in (instanton.InstantonParams(0.5, (1.0, 0, 0, 0)),
              instanton.InstantonParams(10.0, (1.0, 0, 0, 0))):
        plus, minus = quad4.l2_sd_norms(p, grid)
        energy = quad4.ym_energy(p, grid)
        assert abs(plus ** 2 + minus ** 2 - energy) < 1e-10


def test_l2_sd_norms_evaluates_the_curvature_once(monkeypatch):
    calls = []
    curvature = instanton.curvature_closed_at
    monkeypatch.setattr(instanton, "curvature_closed_at",
                        lambda p, x: calls.append(x.shape) or curvature(p, x))
    for p in (instanton.STANDARD, instanton.InstantonParams(0.5, (1.0, 0, 0, 0))):
        calls.clear()
        quad4.l2_sd_norms(p)
        assert calls == [(len(quad4.RadialGrid.make(scale=p.scale).nodes), 1, 4)]


def test_chern_weil_kappa():
    # each member on its own grid and on the standard grid, where the tail is
    # 3e-8 of the scale-10 member's energy
    for grid in (None, quad4.RadialGrid.make()):
        for p in (instanton.STANDARD, instanton.InstantonParams(2.0, (0.5, 0, 0, 0)),
                  instanton.InstantonParams(10.0, (0.5, 0, 0, 0))):
            assert abs(quad4.chern_weil_kappa(*quad4.l2_sd_norms(p, grid)) + 1.0) < 1e-8
    # the orientation-bound sign: swapping the two parts negates kappa
    assert abs(quad4.chern_weil_kappa(0.0, 4.0 * np.pi) - 1.0) < 1e-15


def test_convergence_table():
    rows = quad4.energy_convergence_table(instanton.STANDARD, [8, 16, 24])
    assert len(rows) == 3
    assert rows[1]['delta_prev'] is not None
    assert abs(rows[-1]['rel_err_16pi2']) < 1e-8
