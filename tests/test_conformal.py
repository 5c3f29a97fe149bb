"""Conformal machinery: eigenproblems, covariance, Yamabe quotients."""

import dataclasses
import warnings

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from ymgap import conformal, liealg, report

Y = conformal.YAMABE_S4


def _round_problem():
    """The round problem with Phi = 12 that the Yamabe quotients live on."""
    return conformal.round_problem(conformal.ROUND_SCALAR_CURVATURE, 20000)


def test_round_constants():
    assert conformal.ROUND_SCALAR_CURVATURE == 12.0
    assert abs(conformal.ROUND_VOLUME - 8 * np.pi ** 2 / 3) < 1e-14
    assert abs(Y - 8 * np.sqrt(6) * np.pi) < 1e-12
    assert abs(12.0 * np.sqrt(conformal.ROUND_VOLUME) - Y) < 1e-12


def test_cell_volumes_exact():
    n = 64
    faces = np.arange(n + 1) * np.pi / n
    prim = np.cos(faces) ** 3 / 3 - np.cos(faces)
    assert np.max(np.abs(conformal.cell_volumes(n) - np.diff(prim))) < 1e-15
    # stable at pole cells where the primitive difference loses all digits
    big = conformal.cell_volumes(65536)
    h = np.pi / 65536
    assert abs(big[0] / (h ** 4 / 4) - 1.0) < 1e-6
    assert abs(big.sum() - 4.0 / 3.0) < 1e-14


def cell_volumes_oracle(n):
    """The cell volumes' product form, built afresh on each call."""
    h = np.pi / n
    faces = np.arange(n + 1) * h
    a, b = faces[:-1], faces[1:]
    mid = 0.5 * (a + b)
    sh = np.sin(0.5 * h)
    bracket = (np.sin(a) ** 2 + np.sin(b) ** 2 + sh ** 2 + np.sin(mid) ** 2) / 3.0
    return 2.0 * np.sin(mid) * sh * bracket


def face_conductivities_oracle(n):
    """6 sin^3 at the faces, zero at the poles, built afresh on each call."""
    cond = 6.0 * np.sin(np.arange(n + 1) * (np.pi / n)) ** 3
    cond[[0, -1]] = 0.0
    return cond


def test_round_grids_are_tabulated_once_and_read_only():
    n = 2000
    prob = conformal.round_problem(12.0, n)
    again = conformal.round_problem(lambda r: 12.0 + np.cos(r), n)
    assert again.weight is prob.weight is conformal.cell_volumes(n)
    assert again.cond is prob.cond
    fresh = {"weight": cell_volumes_oracle(n), "cond": face_conductivities_oracle(n)}
    for name, table in fresh.items():
        assert np.array_equal(getattr(prob, name), table), name
        assert np.array_equal(getattr(conformal.round_problem(12.0, np.int64(n)), name), table)
        assert not getattr(prob, name).flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            getattr(prob, name)[n // 2] = 0.0
    # what is built from a round problem shares its tables and leaves them as they were
    u = lambda r: 1.0 + 0.2 * np.cos(r)
    field = conformal.phi_of(12.0, lambda r: 0.2 * (1.0 + np.cos(r)), np.sqrt(6.0),
                             liealg.GAMMA1_SU2, n=n)
    assert field.weight is prob.weight and field.cond is prob.cond
    conformal.transform_problem(field, u)
    conformal.covariance_check([[1.0, 0.2]], field)
    for name, table in fresh.items():
        assert np.array_equal(getattr(prob, name), table), name


def test_grid_size_is_an_integer_of_at_least_8():
    # n = 2000.5 would put the last cell center on the pole and the faces past pi
    with pytest.raises(ValueError, match="integer"):
        conformal.round_problem(12.0, n=2000.5)
    conformal.cell_volumes(np.int64(2000))
    with pytest.raises(ValueError, match="integer"):
        conformal.cell_volumes(2000.0)            # equal to, and hashed as, a cached size
    for flag in (True, np.bool_(True)):
        with pytest.raises(ValueError, match="integer"):
            conformal.cell_grid(flag)
    for n in (0, 7):
        with pytest.raises(ValueError, match="integer >= 8"):
            conformal.cell_volumes(n)
    rho, h = conformal.cell_grid(np.int64(8))
    assert len(rho) == 8 and h == np.pi / 8


def test_phi_of_reconstruction():
    field = conformal.phi_of(12.0, 0.0, np.sqrt(6.0), liealg.GAMMA1_SU2, n=256)
    round_ = conformal.round_problem(field.phi, n=256)   # the field is its round problem
    for name in ("rho", "h", "weight", "cond", "phi"):
        assert np.array_equal(getattr(field, name), getattr(round_, name))
    assert np.max(np.abs(field.phi)) < 1e-13          # the borderline field
    field12 = conformal.phi_of(12.0, 0.0, 0.0, liealg.GAMMA1_SU2, n=256)
    assert np.max(np.abs(field12.phi - 12.0)) == 0.0
    zero = conformal.phi_of(0.0, 0.0, 0.0, 0.0, n=256)
    assert np.max(np.abs(zero.phi)) == 0.0
    with pytest.raises(ValueError):
        conformal.phi_of(12.0, 0.0, 0.0, -1.0)


@pytest.mark.parametrize("args, name", [
    ((12.0, 0.0, np.sqrt(6.0), np.nan), "gamma1"),
    ((12.0, 0.0, np.sqrt(6.0), np.inf), "gamma1"),
    ((12.0, 0.0, np.sqrt(6.0), -1.0), "gamma1"),
    ((np.nan, 0.0, np.sqrt(6.0), 1.0), "scalar_curv"),
    ((12.0, lambda r: np.where(r > 3.0, np.inf, 0.0), np.sqrt(6.0), 1.0), "weyl_norm"),
    ((12.0, 0.0, np.full(256, -np.inf), 1.0), "f_plus_norm"),
    ((12.0, 0.0, np.where(np.arange(256) == 7, np.nan, 1.0), 1.0), "f_plus_norm"),
], ids=["gamma1-nan", "gamma1-inf", "gamma1-negative", "scalar-curv-nan", "weyl-norm-inf",
        "f-plus-norm-minus-inf", "f-plus-norm-one-nan"])
def test_phi_of_refuses_non_finite_input(args, name):
    # refused where the field is built, not later by lambda1's EigenSolveError
    with pytest.raises(ValueError, match=name):
        conformal.phi_of(*args, n=256)


def _asymmetry(prob):
    """Max |<Lf,g>_w - <f,Lg>_w| over a fixed family of test functions,
    normalized by the form magnitude; zero up to roundoff."""
    k = np.arange(4)[:, None]
    tests = np.sin((k + 1) * prob.rho) + 0.25 * np.cos(k * prob.rho)
    forms = (prob.apply(tests) * prob.weight) @ tests.T      # [i, j] = <L f_i, f_j>_w
    scale = np.maximum(np.maximum(np.abs(forms), np.abs(forms.T)), 1.0)
    return float(np.max(np.abs(forms - forms.T) / scale))


def test_problem_symmetry():
    prob = conformal.round_problem(lambda r: 12 + np.cos(2 * r), n=512)
    assert _asymmetry(prob) < 1e-12


def test_lambda1_constant_potentials(monkeypatch):
    # the start sqrt(weight) is the exact ground state of a constant Phi
    monkeypatch.setattr(conformal, "_MAX_ITER", 1)
    lam, vec = conformal.lambda1(conformal.round_problem(12.0, n=2000))
    assert abs(lam - 12.0) < 1e-8
    assert np.min(vec) > 0                     # positive ground state
    assert np.max(np.abs(vec - vec[0])) < 1e-6  # constant eigenfunction
    lam0, _ = conformal.lambda1(conformal.round_problem(0.0, n=2000))
    assert abs(lam0) < 1e-8
    # the eigenvalue suite's borderline field, Phi = 12 - 3 gamma1 sqrt(6) = 0
    borderline = conformal.phi_of(12.0, 0.0, np.sqrt(6.0), liealg.GAMMA1_SU2, n=2000)
    assert abs(conformal.lambda1(borderline)[0]) < 1e-8


def _smooth_plus_noise(seed, n):
    """Round problem for a random smooth potential plus cell-wise noise."""
    rng = np.random.default_rng(seed)
    amps = rng.uniform(-3.0, 3.0, 4)
    rho, _ = conformal.cell_grid(n)
    smooth = 12.0 + sum(a * np.cos((k + 1) * rho) for k, a in enumerate(amps))
    return conformal.round_problem(smooth + rng.uniform(-0.5, 0.5, n), n=n)


def _lapack_gap(prob, lam):
    """|lam - LAPACK's lambda1| of the symmetrized operator, in units of eps ||T||_inf."""
    d, e = prob.tridiagonal()
    ref = eigh_tridiagonal(d, e, select='i', select_range=(0, 0))[0][0]
    norm = np.max(np.abs(d) + np.abs(np.r_[0.0, e]) + np.abs(np.r_[e, 0.0]))
    return abs(lam - ref) / (np.finfo(float).eps * norm)


def test_lambda1_matches_lapack():
    prob = conformal.round_problem(lambda r: 12 + 3 * np.cos(2 * r), n=1500)
    lam, _ = conformal.lambda1(prob)
    d, e = prob.tridiagonal()
    ref = eigh_tridiagonal(d, e, select='i', select_range=(0, 0))[0][0]
    assert abs(lam - ref) < 1e-8
    # general input, to a bound on the scale of the solver's roundoff floor
    for seed in range(12):
        for n in (250, 2000):
            prob = _smooth_plus_noise(seed, n)
            lam, vec = conformal.lambda1(prob)
            assert _lapack_gap(prob, lam) <= 2.0, (seed, n)
            assert np.min(vec) > 0, (seed, n)


@pytest.mark.parametrize("lam", [2.0, 0.5, 0.1, 0.05, 0.02])
def test_lambda1_on_the_dilation_orbit(lam):
    # the Gershgorin shift lay so far below lambda1 here that 0.05 and 0.02
    # reached the step cap; the certified shift converges in under 20 steps
    borderline = conformal.phi_of(12.0, 0.0, np.sqrt(6.0), liealg.GAMMA1_SU2, n=2000)
    prob = conformal.transform_problem(borderline, conformal.dilation_factor(lam))
    value, vec = conformal.lambda1(prob)
    assert np.min(vec) > 0
    assert _lapack_gap(prob, value) <= 2.0


def test_lambda1_widens_to_a_deep_well():
    # one cell at -1e6 puts lambda1 about 1e5 below the start's Rayleigh quotient
    phi = np.full(2000, 12.0)
    phi[700] = -1e6
    prob = conformal.round_problem(phi)
    value, vec = conformal.lambda1(prob)
    assert value < -1e5 and np.min(vec) > 0
    assert _lapack_gap(prob, value) <= 2.0


def test_lambda1_certified_shift_steps(monkeypatch):
    # the eigenvalue suite's transformed borderline problem: 7 steps from the
    # certified shift, where one below the Gershgorin bound took 18
    coarse = conformal.phi_of(12.0, 0.0, np.sqrt(6.0), liealg.GAMMA1_SU2, n=500)
    prob = conformal.transform_problem(coarse, lambda r: 1.0 + 0.2 * np.cos(r))
    monkeypatch.setattr(conformal, "_MAX_ITER", 7)
    assert abs(conformal.lambda1(prob)[0]) < 1e-6


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_lambda1_rejects_a_non_finite_potential(bad):
    # round_problem refuses such a potential; a transformed Phi_hat can still overflow
    phi = np.full(2000, 12.0)
    phi[1000] = bad
    with pytest.raises(conformal.EigenSolveError, match="non-finite"):
        conformal.lambda1(dataclasses.replace(conformal.round_problem(12.0), phi=phi))


@pytest.mark.parametrize("build", [
    lambda: conformal.round_problem(np.nan, 100),
    lambda: conformal.round_problem(np.inf, 100),
    lambda: conformal.round_problem(lambda r: np.where(r > 3.0, -np.inf, 12.0), 100),
    # every constituent is finite, but 12 - 3 * 1e308 overflows to -inf
    lambda: conformal.phi_of(12.0, 0.0, 1e308, 1.0),
], ids=["nan", "inf", "minus-inf-near-a-pole", "phi-of-overflow"])
def test_round_problem_refuses_a_non_finite_potential(build):
    # rayleigh read nan and yamabe_quotient inf from such a problem, without raising
    with pytest.raises(ValueError, match="potential must be finite"):
        build()


def test_lambda1_convergence_order():
    phi = lambda r: 12 + 3 * np.cos(2 * r)
    lams = [conformal.lambda1(conformal.round_problem(phi, n=n))[0]
            for n in (250, 500, 1000)]
    limit = (4 * lams[2] - lams[1]) / 3.0
    order = np.log2(abs(lams[0] - limit) / abs(lams[1] - limit))
    assert order > 1.9


def test_lambda1_monotone_in_potential():
    base = conformal.round_problem(lambda r: 5 + np.cos(r), n=800)
    higher = conformal.round_problem(lambda r: 5 + np.cos(r) + 0.7, n=800)
    l1, _ = conformal.lambda1(base)
    l2, _ = conformal.lambda1(higher)
    assert l2 >= l1 - 1e-10


def test_rayleigh_values():
    prob = conformal.round_problem(12.0, n=16000)
    assert abs(conformal.rayleigh(prob, 1.0) - 12.0) < 1e-10
    assert abs(conformal.rayleigh(prob, np.cos) - 36.0) < 1e-6
    lam, _ = conformal.lambda1(conformal.round_problem(12.0, n=800))
    prob_c = conformal.round_problem(12.0, n=800)
    rng = np.random.default_rng(3)
    for _ in range(10):
        f = 1.0 + 0.5 * np.sin(3 * prob_c.rho) * rng.random()
        assert conformal.rayleigh(prob_c, f) >= lam - 1e-8
    with pytest.raises(ValueError):
        conformal.rayleigh(prob_c, np.zeros_like(prob_c.rho))


def test_covariance_identity_and_constants():
    field = conformal.phi_of(12.0, 0.0, 0.0, liealg.GAMMA1_SU2, n=4096)
    assert np.all(conformal.covariance_check([[1.0], [2.5]], field) < 1e-12)
    phi_hat = conformal.transform_problem(field, lambda r: np.full_like(r, 2.5)).phi
    assert np.max(np.abs(phi_hat - field.phi / 2.5 ** 2)) < 1e-12


def _suite_field(n=65536):
    """The covariance suite's field: nonzero |W+| and |F+| = sqrt 6, so route (b)'s
    u^-2 scaling of both constituents is seen."""
    return conformal.phi_of(12.0, lambda r: 0.2 * (1.0 + np.cos(r)), np.sqrt(6.0),
                            liealg.GAMMA1_SU2, n=n)


def test_covariance_smooth_factor(monkeypatch):
    field = _suite_field()
    u = [[1.0, 0.3]]                                          # 1 + 0.3 cos(rho)
    assert conformal.covariance_check(u, field)[0] < 1e-6      # measured 2.9e-7
    # a 1% slip in |F+| reads 0.245 here; on a zero |F+| it would multiply zero
    slipped = dataclasses.replace(field, f_plus_norm=1.01 * field.f_plus_norm)
    assert conformal.covariance_check(u, slipped)[0] > 0.1
    with pytest.raises(ValueError):
        conformal.covariance_check([[-1.0, -0.3]], field)
    # 1 + 1.001 cos(rho) is negative only within 0.045 of the pole rho = pi
    monkeypatch.setattr(conformal, "pointwise_laplacian", _unreachable)
    monkeypatch.setattr(conformal.SLProblem, "stiffness_times", _unreachable)
    with warnings.catch_warnings():
        warnings.simplefilter("error")         # rejected before any division
        with pytest.raises(ValueError, match="conformal factor must be positive"):
            conformal.covariance_check([[1.0, 0.3], [1.0, 1.001]], field)


def covariance_check_oracle(u, field):
    """The node-value covariance check: both routes to Phi_hat from the node values u
    of one factor, each Laplacian applied to u itself, as ``field.apply`` does."""
    un = np.asarray(u, dtype=float)
    u2, u3 = un ** 2, un ** 3
    route_b = conformal.pointwise_laplacian(un, field)
    route_b *= -6.0
    route_b += field.scalar_curv * un
    route_b /= u3
    route_b -= 2.0 * conformal.SQRT6 * field.weyl_norm / u2
    route_b -= 3.0 * field.gamma1 * field.f_plus_norm / u2
    route_b -= field.apply(un) / u3
    return float(np.max(np.abs(route_b)))


def _suite_like_coeffs(rng, count=20):
    """Rows (1, a_1, a_2, a_3) with sum |a_k| = 0.3, as the covariance suite draws them."""
    coeffs = np.ones((count, 4))
    coeffs[:, 1:] = rng.uniform(-1.0, 1.0, (count, 3))
    coeffs[:, 1:] *= 0.3 / np.sum(np.abs(coeffs[:, 1:]), axis=1, keepdims=True)
    return coeffs


@pytest.mark.parametrize("n", [1024, 3072, 65536])
def test_covariance_modes_match_the_node_value_oracle(n):
    # the mode images and the node values differ only in rounding, which grows like
    # eps / h^2 at the poles: measured up to 5.8 eps / h^2 over 30 seeds of 20 factors
    field = _suite_field(n)
    modes = np.cos(np.arange(4)[:, None] * field.rho)
    # the last row, 0.5 + 0.25 cos(rho) + 0.25 cos(2 rho) >= 0.25, is positive but
    # not by sum |c_k| < c_0, so its node values are checked
    coeffs = np.r_[_suite_like_coeffs(np.random.default_rng(n)), [[0.5, 0.25, 0.25, 0.0]]]
    gaps = conformal.covariance_check(coeffs, field)
    oracle = [covariance_check_oracle(c @ modes, field) for c in coeffs]
    assert gaps.shape == (len(coeffs),)
    assert np.max(np.abs(gaps - oracle)) <= 16.0 * np.finfo(float).eps / field.h ** 2


def _covariance_out_of_place(u, point_lap, flux_lap, field):
    """Both routes to Phi_hat as separate arrays from the node values u and its two
    Laplacians: the arithmetic ``conformal._route_gap`` does in place."""
    route_a = (flux_lap + field.phi * u) / u ** 3
    r_hat = (-6.0 * point_lap + field.scalar_curv * u) / u ** 3
    route_b = (r_hat
               - 2.0 * conformal.SQRT6 * field.weyl_norm / u ** 2
               - 3.0 * field.gamma1 * field.f_plus_norm / u ** 2)
    return float(np.max(np.abs(route_a - route_b)))


def test_covariance_check_is_bit_identical_to_two_arrays():
    # the route core, given the same Laplacians, is the out-of-place arithmetic
    field = _suite_field()
    for c in _suite_like_coeffs(np.random.default_rng(17), 5):
        u = 1.0 + sum(a * np.cos((k + 1) * field.rho) for k, a in enumerate(c[1:]))
        ug = np.concatenate([[u[0]], u, [u[-1]]])
        upp = (ug[2:] - 2.0 * ug[1:-1] + ug[:-2]) / field.h ** 2
        up = (ug[2:] - ug[:-2]) / (2.0 * field.h)
        point = upp + 3.0 * up / np.tan(field.rho)
        assert np.array_equal(conformal.pointwise_laplacian(u, field), point)
        flux = field.stiffness_times(u) / field.weight
        expected = _covariance_out_of_place(u, point, flux, field)
        assert conformal._route_gap(u, point.copy(), flux.copy(), field) == expected


def test_pointwise_laplacian_broadcasts_over_leading_axes():
    field = _suite_field(1024)
    u = np.cos(np.arange(6)[:, None] * field.rho).reshape(2, 3, -1)
    lap = conformal.pointwise_laplacian(u, field)
    assert lap.shape == u.shape
    for i, j in np.ndindex(2, 3):
        assert np.array_equal(lap[i, j], conformal.pointwise_laplacian(u[i, j], field))
    assert not np.any(lap[0, 0])                  # a constant's image is exactly zero


def test_phi_of_scalar_constituents_match_arrays():
    n = 4096
    rho, _ = conformal.cell_grid(n)
    weyl = lambda r: 0.2 * (1.0 + np.cos(r))
    lean = conformal.phi_of(12.0, weyl, np.sqrt(6.0), liealg.GAMMA1_SU2, n=n)
    full = conformal.phi_of(np.full(n, 12.0), weyl, np.full(n, np.sqrt(6.0)),
                            liealg.GAMMA1_SU2, n=n)
    assert type(lean.scalar_curv) is float and type(lean.f_plus_norm) is float
    assert lean.weyl_norm.shape == (n,)
    assert np.array_equal(lean.phi, full.phi)
    u = 1.0 + 0.3 * np.cos(rho) - 0.1 * np.cos(3 * rho)
    coeffs = [[1.0, 0.3, 0.0, -0.1]]
    assert np.array_equal(conformal.covariance_check(coeffs, lean),
                          conformal.covariance_check(coeffs, full))
    factor = lambda r: 1.0 + 0.3 * np.cos(r) - 0.1 * np.cos(3 * r)
    assert np.array_equal(conformal.transform_problem(lean, factor).phi,
                          conformal.transform_problem(full, factor).phi)


def test_covariance_random_family():
    # the second field, as in the covariance suite, has nonzero |W+| and |F+|,
    # so route (b)'s u^-2 scaling of them is seen. One fine grid against an absolute
    # threshold is the route the suite's two-grid order check replaced
    for w_plus, f_plus in ((0.0, 0.0), (lambda r: 0.2 * (1.0 + np.cos(r)), np.sqrt(6.0))):
        rng = np.random.default_rng(7)
        field = conformal.phi_of(12.0, w_plus, f_plus, liealg.GAMMA1_SU2, n=65536)
        coeffs = np.ones((20, 4))
        for row in coeffs[:, 1:]:
            row[:] = rng.uniform(-1, 1, 3)
            row *= 0.3 / np.sum(np.abs(row))
        assert np.all(conformal.covariance_check(coeffs, field) < 1e-6)


def test_sign_invariance_under_conformal_change():
    for phi_val, sign in ((12.0, 1.0), (-7.0, -1.0)):
        base = conformal.round_problem(phi_val, n=2000)
        lam, _ = conformal.lambda1(base)
        assert np.sign(lam) == sign
        for amp in (0.2, 0.45):
            hat = conformal.transform_problem(base, lambda r, a=amp: 1 + a * np.cos(r))
            lam_hat, _ = conformal.lambda1(hat)
            assert np.sign(lam_hat) == sign


def _nan_factor_calls():
    """Each function with a conformal factor, called with u = nan on a 500-cell grid."""
    field = conformal.phi_of(12.0, 0.0, np.sqrt(6.0), liealg.GAMMA1_SU2, n=500)
    nan = np.full(500, np.nan)
    return {
        "yamabe_quotient": lambda: conformal.yamabe_quotient(nan, field),
        "covariance_check": lambda: conformal.covariance_check([[1.0, np.nan]], field),
        "covariance_check-inf": lambda: conformal.covariance_check([[np.inf, 0.1]], field),
        "transform_problem": lambda: conformal.transform_problem(
            field, lambda r: np.full_like(r, np.nan)),
        # nan only at the pole face, which the nodes never sample
        "transform_problem-face": lambda: conformal.transform_problem(
            field, lambda r: np.where(r == 0.0, np.nan, 1.0)),
        "cosine_yamabe_quotients": lambda: conformal.cosine_yamabe_quotients(
            [[1.0, 0.1, np.nan, 0.0]], field),
        "cosine_yamabe_quotients-inf": lambda: conformal.cosine_yamabe_quotients(
            [[1.0, 0.1, 0.0, 0.0], [1.0, -np.inf, 0.0, 0.0]], field),
    }


# the coefficient forms refuse a non-finite coefficient as a malformed array
_MALFORMED = "coeffs must be a non-empty 2-D array"


def _unreachable(*args):
    raise AssertionError("the operator was evaluated before the factor was checked")


@pytest.mark.parametrize("name", list(_nan_factor_calls()))
def test_nan_conformal_factor_is_refused(monkeypatch, name):
    # refused by the function's own guard, before any operator is evaluated
    monkeypatch.setattr(conformal, "pointwise_laplacian", _unreachable)
    monkeypatch.setattr(conformal.SLProblem, "apply", _unreachable)
    monkeypatch.setattr(conformal.SLProblem, "stiffness_times", _unreachable)
    coefficient_form = name.split("-")[0] in ("covariance_check", "cosine_yamabe_quotients")
    message = _MALFORMED if coefficient_form else "conformal factor must be positive"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            _nan_factor_calls()[name]()


def test_transform_problem_validation():
    base = conformal.round_problem(12.0, n=256)
    with pytest.raises(ValueError):
        conformal.transform_problem(base, np.ones(256))     # not callable
    with pytest.raises(ValueError):
        conformal.transform_problem(base, lambda r: np.cos(r))  # not positive


def test_yamabe_quotient_round_and_scaling():
    prob = _round_problem()
    assert abs(conformal.yamabe_quotient(1.0, prob) - Y) < 1e-8
    assert abs(conformal.yamabe_quotient(3.0, prob) - Y) < 1e-8
    val = conformal.yamabe_quotient(lambda r: 1 + 0.5 * np.cos(r), prob)
    assert val > Y
    with pytest.raises(ValueError):
        conformal.yamabe_quotient(lambda r: np.cos(r), prob)


def test_yamabe_quotient_dilation_family():
    prob = _round_problem()
    for lam in (1.5, 2.0):
        val = conformal.yamabe_quotient(conformal.dilation_factor(lam), prob)
        assert abs(val - Y) < 1e-6


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0],
                         ids=["nan", "inf", "minus-inf", "zero", "minus-1"])
def test_dilation_factor_rejects_non_finite_and_nonpositive(lam):
    with pytest.raises(ValueError, match="dilation factor"):
        conformal.dilation_factor(lam)


def test_yamabe_quotient_random_family_floor():
    prob = _round_problem()
    rng = np.random.default_rng(11)
    rho, _ = conformal.cell_grid(20000)
    min_q = np.inf
    for _ in range(50):
        amps = rng.uniform(-1, 1, 3)
        amps *= rng.uniform(0.05, 0.4) / np.sum(np.abs(amps))
        u = 1.0 + sum(a * np.cos((k + 1) * rho) for k, a in enumerate(amps))
        min_q = min(min_q, conformal.yamabe_quotient(u, prob))
    assert min_q >= Y - 1e-6


def _suite_quotient_calls(monkeypatch, seed):
    """(coeffs, prob, quotients) of each cosine_yamabe_quotients call of the
    yamabe-quotient suite at ``seed``: one per grid."""
    calls = []
    assembled = conformal.cosine_yamabe_quotients

    def recorded(coeffs, prob):
        calls.append((coeffs, prob, assembled(coeffs, prob)))
        return calls[-1][2]

    monkeypatch.setattr(conformal, "cosine_yamabe_quotients", recorded)
    assert report.run_suite("yamabe-quotient", report.GapConfig(seed=seed)).passed
    return calls


def _row_by_row_amps(seed):
    """The yamabe-quotient suite's amplitudes at ``seed``, drawn one row at a
    time: three amplitudes, then their l1 norm."""
    rng = np.random.default_rng(seed + 6)
    amps = np.empty((50, 3))
    for row in amps:
        row[:] = rng.uniform(-1.0, 1.0, 3)
        row *= rng.uniform(0.05, 0.4) / np.sum(np.abs(row))
    return amps


@pytest.mark.parametrize("seed", range(10))
def test_assembled_quotients_match_factor_by_factor(monkeypatch, seed):
    calls = _suite_quotient_calls(monkeypatch, seed)
    assert sorted(len(prob.rho) for _, prob, _ in calls) == [2000, 4000]
    for coeffs, prob, quotients in calls:
        # the suite's one batched draw is the row-by-row sample set, bit for bit
        assert np.array_equal(coeffs, np.c_[np.ones(50), _row_by_row_amps(seed)])
        modes = np.cos(np.arange(1, 4)[:, None] * prob.rho)
        direct = [conformal.yamabe_quotient(1.0 + a @ modes, prob) for a in coeffs[:, 1:]]
        assert np.max(np.abs(quotients / direct - 1.0)) <= 1e-12


def _cosine_consumers(n=500):
    """Both consumers of coefficient rows, on n-cell grids."""
    field = conformal.phi_of(12.0, 0.0, np.sqrt(6.0), liealg.GAMMA1_SU2, n=n)
    prob = conformal.round_problem(12.0, n)
    return {"covariance_check": lambda c: conformal.covariance_check(c, field),
            "cosine_yamabe_quotients": lambda c: conformal.cosine_yamabe_quotients(c, prob)}


@pytest.mark.parametrize("coeffs, message", [
    ([[1.0, 0.1, 0.0, 0.0], [1.0, 0.0, 1.5, 0.0]], "conformal factor must be positive"),
    ([1.0, 0.1, 0.0, 0.0], _MALFORMED),
    (np.empty((0, 4)), _MALFORMED),
    ([[1.0, 0.1, np.nan, 0.0]], _MALFORMED),
    ([[1.0, 0.1, 0.0, np.inf]], _MALFORMED),
], ids=["second-row-1.5", "one-dimensional", "no-rows", "nan", "inf"])
def test_assembled_quotients_refuse_a_factor_that_may_vanish(coeffs, message):
    # one rule: covariance_check refuses the same rows with the same message
    for consume in _cosine_consumers().values():
        with pytest.raises(ValueError, match=message):
            consume(coeffs)


@pytest.mark.parametrize("row", [[1.0, 0.5, -0.3, 0.2], [0.5, 0.25, 0.25, 0.0]],
                         ids=["sum-1", "half-constant"])
def test_assembled_quotients_accept_a_positive_factor(row):
    # sum |c_k| >= c_0, so the rows are sampled, and positive at every node: the
    # first one's least node value at n = 500 is 1.7e-5; the rule sum |a_k| < 1 refused it
    consumers = _cosine_consumers()
    prob = conformal.round_problem(12.0, 500)
    u = row[0] + np.asarray(row[1:]) @ np.cos(np.arange(1, 4)[:, None] * prob.rho)
    assert np.sum(np.abs(row[1:])) >= row[0] and np.min(u) > 0.0
    assert np.isfinite(consumers["covariance_check"]([row])[0])
    quotient = consumers["cosine_yamabe_quotients"]([row])[0]
    assert abs(quotient - conformal.yamabe_quotient(u, prob)) <= 1e-12 * quotient


@pytest.mark.parametrize("coeffs", [[1.0, 0.3], np.empty((0, 2)), np.empty((3, 0)), [[[1.0]]],
                                    [[1.0, np.inf]]],
                         ids=["one-dimensional", "no-rows", "no-columns", "three-dimensional",
                              "inf"])
def test_covariance_check_refuses_a_malformed_coefficient_array(monkeypatch, coeffs):
    # the shared check runs before any operator is evaluated
    monkeypatch.setattr(conformal, "pointwise_laplacian", _unreachable)
    monkeypatch.setattr(conformal.SLProblem, "stiffness_times", _unreachable)
    field = conformal.phi_of(12.0, 0.0, np.sqrt(6.0), liealg.GAMMA1_SU2, n=500)
    with pytest.raises(ValueError, match="coeffs must be a non-empty 2-D array"):
        conformal.covariance_check(coeffs, field)


def test_eigen_solver_error_trace(monkeypatch):
    # a non-constant Phi: a constant one converges in the first step
    monkeypatch.setattr(conformal, "_MAX_ITER", 1)
    prob = conformal.round_problem(lambda r: 12 + 3 * np.cos(2 * r), n=256)
    with pytest.raises(conformal.EigenSolveError, match=r"residual \S+ above its floor"):
        conformal.lambda1(prob)
