"""Quadrature: radial/angular rules, energy, characteristic number."""

import numpy as np
import pytest

from ymgap import instanton, liealg, quad4

E16 = quad4.EPI2_16


def _radial(g):
    """The integrand x -> g(|x|)."""
    return lambda x: g(np.linalg.norm(x, axis=-1))


def test_radial_oracle_integrals():
    grid = quad4.RadialGrid.make()
    # int r^3 (1+r^2)^-4 dr = 1/12, times 2 pi^2
    val = quad4.integrate_r4(_radial(lambda r: (1 + r ** 2) ** -4.0), grid, quad4.RAY)
    assert abs(val - np.pi ** 2 / 6.0) < 1e-10
    val = quad4.integrate_r4(_radial(lambda r: np.exp(-r ** 2)), grid, quad4.RAY)
    assert abs(val - np.pi ** 2) < 1e-10
    assert quad4.integrate_r4(_radial(np.zeros_like), grid, quad4.RAY) == 0.0


def test_radial_grid_validation_and_tail():
    grid = quad4.RadialGrid.make()
    assert np.all(grid.weights > 0)
    assert np.all(np.diff(grid.nodes) > 0)
    # the tail is the node at rmax: 2 pi^2 f(rmax) rmax^4 / 4
    f = lambda r: (1 + r ** 2) ** -4.0
    tail = (quad4.integrate_r4(_radial(f), grid, quad4.RAY)
            - quad4.integrate_r4(_radial(lambda r: np.where(r < grid.rmax, f(r), 0.0)),
                                 grid, quad4.RAY))
    assert 0 < tail < 1e-10
    assert abs(tail - 2 * np.pi ** 2 * f(grid.rmax) * grid.rmax ** 4 / 4) < 1e-15
    with pytest.raises(ValueError):
        quad4.integrate_r4(_radial(lambda r: np.where(r > 500, np.inf, 1.0)), grid, quad4.RAY)


def test_radial_grid_weights_reach_rmax():
    for panels in (2, 3, 24):
        grid = quad4.RadialGrid.make(rmax=1000.0, panels=panels)
        assert abs(grid.weights.sum() - 1000.0) < 1e-9
        assert grid.nodes[-1] > 900.0
    with pytest.raises(ValueError):
        quad4.RadialGrid.make(panels=1)


def test_sphere_rule_moments():
    rule = quad4.SphereRule.make(12)
    assert abs(rule.weights.sum() - 2 * np.pi ** 2) < 1e-12
    for k in range(4):
        m2 = float(np.sum(rule.weights * rule.points[:, k] ** 2))
        assert abs(m2 - np.pi ** 2 / 2.0) < 1e-10
    assert np.max(np.abs(np.linalg.norm(rule.points, axis=1) - 1.0)) < 1e-14


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
    grid = quad4.RadialGrid.make(panels=20, order=20)
    rule = quad4.SphereRule.make(24)
    for scale, center in ((1.0, (0.6, 0, 0, 0)), (0.5, (0.3, 0.3, 0, 0.2))):
        p = instanton.InstantonParams(scale, center)
        e = quad4.ym_energy(p, grid, rule=rule, about=(0, 0, 0, 0))
        assert abs(e - E16) / E16 < 1e-6


def test_energy_radial_vs_angular_consistency():
    p = instanton.InstantonParams(0.7, (0.4, 0, -0.2, 0))
    grid = quad4.RadialGrid.make(panels=20, order=20)
    e_rad = quad4.ym_energy(p, grid)
    e_ang = quad4.ym_energy(p, grid, rule=quad4.SphereRule.make(16))  # about the center
    assert abs(e_rad - e_ang) / E16 < 1e-10


def test_tail_estimate_vs_extended_grid():
    short = quad4.RadialGrid.make(rmax=50.0, panels=20)
    long = quad4.RadialGrid.make(rmax=5000.0, panels=32)
    # 2 pi^2 int_rmax^inf 96 r^3 (1+r^2)^-4 dr in closed form
    s = 1.0 + short.rmax ** 2
    true_tail = 2 * np.pi ** 2 * 96.0 * (1.0 / (4.0 * s ** 2) - 1.0 / (6.0 * s ** 3))
    error = quad4.ym_energy(instanton.STANDARD, short) - quad4.ym_energy(instanton.STANDARD, long)
    assert abs(error) / true_tail < 2e-3


def test_flat_energy_zero():
    assert quad4.flat_energy() == 0.0


def test_l2_sd_norms():
    plus, minus = quad4.l2_sd_norms(instanton.STANDARD)
    assert abs(plus - 4 * np.pi) < 1e-7
    assert minus < 1e-10
    p = instanton.InstantonParams(0.5, (1.0, 0, 0, 0))
    # at rmax = 100 the tail is 3e-8 of the energy: both sides must include it
    for grid in (quad4.RadialGrid.make(), quad4.RadialGrid.make(rmax=100.0)):
        plus, minus = quad4.l2_sd_norms(p, grid)
        energy = quad4.ym_energy(p, grid)
        assert abs(plus ** 2 + minus ** 2 - energy) < 1e-10


def test_chern_weil_kappa():
    for grid in (None, quad4.RadialGrid.make(rmax=100.0)):
        kappa = quad4.chern_weil_kappa(instanton.STANDARD, grid)
        assert abs(kappa + 1.0) < 1e-8
        assert abs(quad4.chern_weil_kappa(instanton.STANDARD, grid,
                                          reverse_orientation=True) - 1.0) < 1e-8
        assert abs(quad4.chern_weil_kappa(instanton.InstantonParams(2.0, (0.5, 0, 0, 0)), grid)
                   + 1.0) < 1e-8


def test_convergence_table(tmp_path):
    rows = quad4.energy_convergence_table(instanton.STANDARD, [8, 16, 24])
    assert len(rows) == 3
    assert rows[1]['delta_prev'] is not None
    assert abs(rows[-1]['rel_err_16pi2']) < 1e-8
    path = tmp_path / "table.csv"
    quad4.write_table_csv(path, rows)
    header = path.read_text().splitlines()[0]
    assert header == "panels,energy,delta_prev,rel_err_16pi2"
