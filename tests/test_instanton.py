"""Instanton family: closed forms, FD cross-checks, Kato/Bianchi/Bochner."""

import numpy as np
import pytest

from test_liealg import SU2_F, commutator, element, orthonormal_basis, trace_form
from ymgap import forms4, instanton, liealg

STD = instanton.STANDARD
OFF_STANDARD = instanton.InstantonParams(0.7, (0.3, -0.2, 0.1, 0.5))


def constant(value):
    """The evaluator x -> value at every point, broadcast over x's leading axes."""
    return lambda x: np.broadcast_to(value, np.shape(x)[:-1] + np.shape(value))


# the zero su(2) connection, with the curvature it has
FLAT = instanton.Connection(constant(np.zeros((4, 3))), constant(np.zeros((6, 3))), SU2_F)


def display_connection(x):
    """The module docstring's theta as 4x4 matrices (4, 4, 4), dx index first."""
    x1, x2, x3, x4 = x
    dx = np.array([[-x2, x1, -x4, x3],          # theta_1 = x1 dx2 - x2 dx1 + x3 dx4 - x4 dx3
                   [-x3, x4, x1, -x2],          # theta_2 = x1 dx3 - x3 dx1 + x4 dx2 - x2 dx4
                   [-x4, -x3, x2, x1]])         # theta_3 = x1 dx4 - x4 dx1 + x2 dx3 - x3 dx2
    return np.einsum('am,aij->mij', dx, liealg.SU2_BASIS) / (1.0 + x @ x)


def display_curvature(x):
    """The module docstring's F as 4x4 matrices (6, 4, 4), components (12, ..., 34)."""
    i, j, k = liealg.SU2_BASIS
    return 2.0 / (1.0 + x @ x) ** 2 * np.stack([i, j, k, k, -j, i])


def unit_quaternion_rotation(rng):
    """A constant gauge g = a + b i + c j + d k, |g| = 1, and the rotation R
    of su(2) coefficients it induces: element(R c) = g^-1 element(c) g."""
    a = rng.standard_normal(4)
    g = np.einsum('q,qij->ij', a / np.linalg.norm(a),
                  np.concatenate([np.eye(4)[None], liealg.SU2_BASIS]))
    onb = element(liealg.SU2_BASIS, np.eye(3))
    rot = trace_form(g.T @ onb[None, :] @ g, onb[:, None])     # rot[m, a]
    return g, rot


def rotated(fn, rot):
    """Wrap a coefficient-valued evaluator with a constant gauge rotation."""
    def wrapped(x):
        return fn(x) @ rot.T
    return wrapped


def plus_norm_sq(c):
    """The evaluator x -> |F+|^2 of the connection c."""
    return lambda x: liealg.lv_norm_sq(liealg.lv_self_dual(c.curvature(x)))


def bochner_pieces(c, x, h):
    """(1/2) Lap|F+|^2 at step 4h, |nabla F+|^2 at step h without Richardson,
    and <F+, [F+, F+]>: the three terms of the flat-chart Bochner identity."""
    nabla = liealg.lv_self_dual(instanton.covariant_derivative_of(c, x, h, richardson=False))
    return (0.5 * instanton.laplacian_of(plus_norm_sq(c), x, 4.0 * h), instanton.cov_norm_sq(nabla),
            liealg.cubic_form(liealg.lv_self_dual(c.curvature(x)), c.f))


def bochner_residual(c, x, h):
    lap_half, nabla_sq, cubic = bochner_pieces(c, x, h)
    return lap_half - nabla_sq + cubic


# the norm law's derivatives, the oracle of the differenced ones: for
# g(s) = 96 L^4 (L^2 + s)^-4 of s = |x - center|^2,
# |d|F||^2 = g'(s)^2 s / g(s) (0 at the center, as |F| never vanishes) and
# Lap |F|^2 = -3072 L^4 (L^2 + s)^-5 + 7680 L^4 s (L^2 + s)^-6

def _law_args(p, x):
    d = np.asarray(x, dtype=float) - p.center_array
    s = np.einsum('...m,...m->...', d, d)
    return s, p.scale ** 2 + s


def norm_law_grad_sq(p, x):
    s, u = _law_args(p, x)
    law, dlaw = 96.0 * p.scale ** 4 / u ** 4, -384.0 * p.scale ** 4 / u ** 5
    return dlaw * dlaw * s / law


def norm_law_laplacian(p, x):
    s, u = _law_args(p, x)
    return p.scale ** 4 * (-3072.0 / u ** 5 + 7680.0 * s / u ** 6)


# the hand-typed tables the closed forms once read, the oracle of the ones built from
# forms4.sd_basis: quaternion components (i, j, k) of the standard curvature's six form
# components (12, 13, 14, 23, 24, 34), and theta_a = (C_a x) . dx with C_a below
CURV_COEFF_ORACLE = np.array([
    [1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0],
    [0.0, 0.0, 1.0],
    [0.0, -1.0, 0.0],
    [1.0, 0.0, 0.0],
])
THETA_COEFF_ORACLE = np.array([
    [[0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 1.0, 0.0]],
    [[0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0]],
    [[0.0, 0.0, 0.0, -1.0], [0.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]],
])


@pytest.mark.parametrize("name, oracle", [("_CURV_COEFF", CURV_COEFF_ORACLE),
                                          ("_THETA_COEFF", THETA_COEFF_ORACLE)])
def test_tables_come_from_the_self_dual_basis(name, oracle):
    # equal down to signed zeros: -2 e_a as a skew matrix would write -0.0 where 2 e_a^T
    # writes 0.0, and the table would still compare equal
    table = getattr(instanton, name)
    assert np.array_equal(table, oracle)
    assert np.array_equal(np.signbit(table), np.signbit(oracle))
    assert table.flags.c_contiguous and not table.flags.writeable


def test_connection_at_origin_and_unit_point():
    th = instanton.connection_at(STD, np.zeros(4))
    assert th.shape == (4, 3) and np.max(np.abs(th)) == 0.0
    th = instanton.connection_at(STD, np.array([1.0, 0, 0, 0]))
    # dx^3 coefficient of the j-component is x1/(1+|x|^2) = 1/2, times sqrt2 on (i, j, k)/sqrt2
    assert abs(th[2, 1] - 0.5 * np.sqrt(2.0)) < 1e-15
    assert abs(th[1, 0] - 0.5 * np.sqrt(2.0)) < 1e-15


def test_closed_forms_match_the_matrix_display():
    rng = np.random.default_rng(1)
    for x in (np.zeros(4), np.array([1.0, 0, 0, 0]), *rng.standard_normal((20, 4)) * 1.5):
        th = instanton.connection_at(STD, x)
        assert np.max(np.abs(element(liealg.SU2_BASIS, th) - display_connection(x))) < 1e-15
        f = instanton.curvature_closed_at(STD, x)
        assert np.max(np.abs(element(liealg.SU2_BASIS, f) - display_curvature(x))) < 1e-15


def test_connection_dilation_pullback():
    p = instanton.InstantonParams(scale=2.0)
    x = np.array([0.7, -0.3, 0.2, 1.1])
    expected = instanton.connection_at(STD, x / 2.0) / 2.0
    assert np.max(np.abs(instanton.connection_at(p, x) - expected)) < 1e-15


def test_curvature_closed_origin():
    f = instanton.curvature_closed_at(STD, np.zeros(4))
    # coefficient of (dx12+dx34) (x) i is 2, so 2 sqrt2 on i/sqrt2
    assert np.array_equal(f[0], [np.sqrt(8.0), 0.0, 0.0])
    assert np.array_equal(f[5], f[0])
    assert abs(liealg.lv_norm_sq(f) - 96.0) < 1e-12
    f1 = instanton.curvature_closed_at(STD, np.array([1.0, 0, 0, 0]))
    assert abs(liealg.lv_norm_sq(f1) - 6.0) < 1e-13


def test_curvature_self_dual_everywhere():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((50, 4)) * 1.5
    f = instanton.curvature_closed_at(STD, pts)
    assert np.max(np.abs(f - liealg.lv_self_dual(f))) < 1e-12


def test_norm_law_thousand_points():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((1000, 4)) * 2.0
    p = instanton.InstantonParams(1.3, (0.2, -0.4, 0.0, 0.1))
    f = instanton.curvature_closed_at(p, pts)
    law = instanton.curvature_norm_sq(p, pts)
    rel = np.abs(liealg.lv_norm_sq(f) - law) / law
    assert np.max(rel) < 1e-12


def test_curvature_fd_matches_closed():
    x = np.array([0.3, -0.1, 0.7, 0.2])
    closed = instanton.curvature_closed_at(STD, x)
    fd = instanton.curvature_fd_of(STD.connection, x, h=1e-4)
    assert np.max(np.abs(fd - closed)) < 1e-7
    fd0 = instanton.curvature_fd_of(STD.connection, np.zeros(4), h=1e-4)
    assert np.max(np.abs(fd0 - instanton.curvature_closed_at(STD, np.zeros(4)))) < 1e-7


def test_curvature_fd_second_order():
    x = np.array([0.3, -0.1, 0.7, 0.2])
    closed = instanton.curvature_closed_at(STD, x)
    r1 = np.max(np.abs(instanton.curvature_fd_of(STD.connection, x, h=1e-3) - closed))
    r2 = np.max(np.abs(instanton.curvature_fd_of(STD.connection, x, h=5e-4) - closed))
    assert 3.0 < r1 / r2 < 5.0


def test_curvature_fd_flat_connection():
    fd = instanton.curvature_fd_of(FLAT, np.array([0.5, 0.1, 0, 0]), h=1e-4)
    assert np.max(np.abs(fd)) == 0.0


def test_constant_so4_connection():
    """theta_i = A_i, constant in so(4) (k = 6): F_ij = -[A_i, A_j], and the
    Bianchi sum of that curvature is the Jacobi identity."""
    a = np.random.default_rng(37).standard_normal((4, 6))
    mats = element(liealg.SO4_BASIS, a)
    minus_brackets = -commutator(mats[forms4.PAIR_I], mats[forms4.PAIR_J])      # (6, 4, 4)
    curvature = trace_form(minus_brackets[:, None], orthonormal_basis(liealg.SO4_BASIS))
    c = instanton.Connection(constant(a), constant(curvature), liealg.SO4)
    pts = np.random.default_rng(38).standard_normal((5, 4))
    fd = instanton.curvature_fd_of(c, pts, h=1e-3)
    assert fd.shape == (5, 6, 6)
    assert np.max(np.abs(element(liealg.SO4_BASIS, fd) - minus_brackets)) < 1e-14
    nabla = instanton.covariant_derivative_of(c, pts, h=1e-3, richardson=False)
    assert np.max(instanton.bianchi_residual(nabla)) < 1e-13


def test_fd_step_validation():
    with pytest.raises(ValueError):
        instanton.curvature_fd_of(STD.connection, np.zeros(4), h=0.0)
    with pytest.raises(ValueError):
        instanton.covariant_derivative_of(STD.connection, np.zeros(4), h=-1.0)
    for h in (0.0, -1.0):
        with pytest.raises(ValueError):
            instanton.laplacian_of(plus_norm_sq(STD.connection), np.zeros(4), h=h)
    # a non-finite step would difference NaN values, with inf * 0 in the stencil's offsets
    for h in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            instanton.curvature_fd_of(STD.connection, np.zeros(4), h=h)
        with pytest.raises(ValueError, match="finite"):
            instanton.kato_residual_at(STD.connection, np.ones(4), h=h)
        with pytest.raises(ValueError, match="finite"):
            instanton.laplacian_of(plus_norm_sq(STD.connection), np.ones(4), h=h)


def test_covariant_derivative_vanishes_at_center():
    nab = instanton.covariant_derivative_of(STD.connection, np.zeros(4), h=1e-4)
    assert instanton.cov_norm_sq(nab) < 1e-5
    p = instanton.InstantonParams(0.5, (1.0, 0.0, -2.0, 0.3))
    nab = instanton.covariant_derivative_of(p.connection, p.center_array, h=1e-4)
    assert instanton.cov_norm_sq(nab) < 1e-4


def test_covariant_derivative_analytic_profile():
    # |nabla F|^2 = 2304 r^2 / (1+r^2)^6 for the standard member
    for x in (np.array([0.5, 0, 0, 0]), np.array([0.3, -0.1, 0.7, 0.2])):
        nab = instanton.covariant_derivative_of(STD.connection, x, h=1e-4)
        r2 = float(x @ x)
        expected = 2304.0 * r2 / (1.0 + r2) ** 6
        assert abs(instanton.cov_norm_sq(nab) - expected) < 1e-8


def test_flat_connection_constant_form_parallel():
    const_form = instanton.Connection(FLAT.theta, constant(np.sqrt(2.0) * forms4.sd_basis().T),
                                      SU2_F)
    nab = instanton.covariant_derivative_of(const_form, np.array([0.2, 0.4, -0.1, 0.9]), h=1e-3)
    assert instanton.cov_norm_sq(nab) == 0.0


def test_kato_floor_and_equality():
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((200, 4))
    worst = min(instanton.kato_residual_at(STD.connection, x) for x in pts)
    assert worst >= -1e-8
    # this family saturates the inequality: residuals are FD noise only
    assert max(abs(instanton.kato_residual_at(STD.connection, x)) for x in pts[:50]) < 1e-7
    # in the units of a narrow member 2000 scales from the origin, where a
    # difference over x +- h e_k is not 2h in floating point
    p = instanton.InstantonParams(0.005, (10.0, 0.0, 0.0, 0.0))
    far = instanton.kato_residual_at(p.connection, p.center_array + p.scale * pts,
                                     h=1e-4 * p.scale)
    assert np.min(far) * p.scale ** 6 >= -1e-8


def test_kato_gradient_side_matches_fd():
    x = np.array([0.6, -0.2, 0.1, 0.4])
    analytic = norm_law_grad_sq(STD, x)
    h = 1e-5
    grad = np.zeros(4)
    for k in range(4):
        e = np.zeros(4)
        e[k] = h
        fp = np.sqrt(instanton.curvature_norm_sq(STD, x + e))
        fm = np.sqrt(instanton.curvature_norm_sq(STD, x - e))
        grad[k] = (fp - fm) / (2 * h)
    assert abs(float(grad @ grad) - analytic) < 1e-7


def test_kato_second_order_convergence():
    for x in (np.array([0.5, 0, 0, 0]),
              np.array([0.3, -0.1, 0.7, 0.2]),
              np.array([-1.2, 0.4, 0.1, -0.3])):
        r1 = abs(instanton.kato_residual_at(STD.connection, x, h=2e-3, richardson=False))
        r2 = abs(instanton.kato_residual_at(STD.connection, x, h=1e-3, richardson=False))
        assert r2 <= r1 / 3.0 + 1e-9


@pytest.mark.parametrize("p", [STD, OFF_STANDARD], ids=["standard", "off-standard"])
def test_differenced_scalar_side_matches_the_norm_law(p):
    """The chain-rule |d|F+||^2 inside kato_residual_at and laplacian_of(|F+|^2)
    against the norm law's derivatives, in the member's units."""
    c, h = p.connection, 1e-4 * p.scale
    pts = p.center_array + p.scale * np.random.default_rng(5).standard_normal((200, 4)) * 1.5
    nabla = liealg.lv_self_dual(instanton.covariant_derivative_of(c, pts, h))
    chain = (instanton.cov_norm_sq(nabla) - instanton.kato_residual_at(c, pts, h)) / 1.5
    # measured 1.4e-10 and 3.2e-10
    assert np.max(np.abs(chain - norm_law_grad_sq(p, pts))) * p.scale ** 6 < 1e-9
    lap = instanton.laplacian_of(plus_norm_sq(c), pts, 4e-3 * p.scale)
    # measured 6.2e-8 and 4.8e-8 at the Bochner suite's step 4e-3
    assert np.max(np.abs(lap - norm_law_laplacian(p, pts))) * p.scale ** 6 < 2e-7


def test_bochner_identity_origin_values():
    lap_half = 0.5 * norm_law_laplacian(STD, np.zeros(4))
    assert abs(lap_half + 1536.0) / 1536.0 < 1e-12
    f0 = instanton.curvature_closed_at(STD, np.zeros(4))
    cubic = liealg.cubic_form(f0, SU2_F)
    assert abs(cubic - 1536.0) / 1536.0 < 1e-12
    # the differenced Laplacian term reads 1.6e-10 relative
    lap_half, _, _ = bochner_pieces(STD.connection, np.zeros(4), h=1e-3)
    assert abs(lap_half + 1536.0) / 1536.0 < 1e-9
    assert abs(bochner_residual(STD.connection, np.zeros(4), h=1e-3)) < 1e-4


def test_bochner_identity_second_order():
    rng = np.random.default_rng(13)
    pts = rng.standard_normal((12, 4)) * 0.8
    for x in pts:
        r1 = abs(bochner_residual(STD.connection, x, h=2e-3))
        r2 = abs(bochner_residual(STD.connection, x, h=1e-3))
        assert r2 <= r1 / 3.0 + 1e-8


def test_pointwise_cubic_attainment():
    rng = np.random.default_rng(17)
    pts = rng.standard_normal((100, 4)) * 1.5
    f = instanton.curvature_closed_at(STD, pts)
    fplus = liealg.lv_self_dual(f)
    bracket = liealg.comm2form(fplus, fplus, SU2_F)
    cubic = liealg.lv_inner(fplus, bracket)
    norms = liealg.lv_norm(fplus)
    assert np.max(np.abs(cubic - liealg.GAMMA1_SU2 * norms ** 3)) < 1e-10
    bracket_norms = liealg.lv_norm(bracket)
    expected = (2.0 / np.sqrt(3.0)) * np.sqrt(2.0) * norms ** 2
    assert np.max(np.abs(bracket_norms - expected)) < 1e-10


def _bianchi_at(c, x, h):
    return instanton.bianchi_residual(instanton.covariant_derivative_of(c, x, h, richardson=False))


def test_bianchi_residual():
    x = np.array([0.5, 0, 0, 0])
    r = _bianchi_at(STD.connection, x, h=1e-3)
    assert r < 1e-5
    r1 = _bianchi_at(STD.connection, x, h=2e-3)
    r2 = _bianchi_at(STD.connection, x, h=1e-3)
    assert r2 <= r1 / 3.0 + 1e-10
    assert _bianchi_at(FLAT, x, h=1e-3) == 0.0


def test_gauge_conjugation_invariance():
    g, rot = unit_quaternion_rotation(np.random.default_rng(19))
    assert np.max(np.abs(rot @ rot.T - np.eye(3))) < 1e-14 and abs(np.linalg.det(rot) - 1) < 1e-14
    conj = instanton.Connection(rotated(STD.connection.theta, rot),
                                rotated(STD.connection.curvature, rot), SU2_F)
    for x in (np.array([0.4, 0.3, -0.2, 0.7]), np.array([1.4, 0, 0.2, 0])):
        f_conj = conj.curvature(x)
        # g^-1 = g^T: the rotation is the conjugation on matrices
        for fn, display in ((conj.curvature, display_curvature), (conj.theta, display_connection)):
            assert np.max(np.abs(element(liealg.SU2_BASIS, fn(x)) - g.T @ display(x) @ g)) < 1e-14
        assert abs(liealg.lv_norm_sq(f_conj) - instanton.curvature_norm_sq(STD, x)) < 1e-10
        nab_ref = instanton.covariant_derivative_of(STD.connection, x, h=1e-4)
        nab_conj = instanton.covariant_derivative_of(conj, x, h=1e-4)
        assert abs(instanton.cov_norm_sq(nab_conj) - instanton.cov_norm_sq(nab_ref)) < 1e-10
        fd_conj = instanton.curvature_fd_of(conj, x, h=1e-4)
        fd_matrices = element(liealg.SU2_BASIS, fd_conj)
        assert np.max(np.abs(fd_matrices - g.T @ display_curvature(x) @ g)) < 1e-7


def test_kato_and_bochner_pieces_are_gauge_invariant():
    """Under a constant gauge rotation the Kato residual and the three Bochner
    terms are those of the unrotated instanton, to rounding."""
    _, rot = unit_quaternion_rotation(np.random.default_rng(19))
    conj = instanton.Connection(rotated(STD.connection.theta, rot),
                                rotated(STD.connection.curvature, rot), SU2_F)
    pts = np.random.default_rng(23).standard_normal((50, 4)) * 1.5
    kato = [instanton.kato_residual_at(c, pts) for c in (STD.connection, conj)]
    nabla_sq = instanton.cov_norm_sq(
        liealg.lv_self_dual(instanton.covariant_derivative_of(STD.connection, pts, 1e-4)))
    # relative to |nabla F+|^2, of which the residual is a difference: measured 1.0e-12
    assert np.max(np.abs(kato[1] - kato[0]) / nabla_sq) < 1e-11
    # the Laplacian's second differences amplify the norms' rounding: measured
    # 2.4e-10, 5.7e-14 and 1.1e-15
    pieces = zip(bochner_pieces(STD.connection, pts, 1e-3), bochner_pieces(conj, pts, 1e-3))
    for (ref, got), tol in zip(pieces, (1e-9, 1e-12, 1e-12)):
        assert np.max(np.abs(got - ref) / np.abs(ref)) < tol


def test_params_validation():
    with pytest.raises(ValueError):
        instanton.InstantonParams(scale=0.0)
    with pytest.raises(ValueError):
        instanton.InstantonParams(center=(1.0, 2.0))
    for bad in (True, np.True_, "2", None):
        with pytest.raises(ValueError, match="scale must be a real number"):
            instanton.InstantonParams(scale=bad)
    assert type(instanton.InstantonParams(scale=np.float32(0.5)).scale) is float
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="center must be finite"):
            instanton.InstantonParams(1.0, (0.0, bad, 0.0, 0.0))
    # beyond 1e6 scales from the origin, (x - center)/scale loses the sample points' digits
    instanton.InstantonParams(0.5, (3e5, 0.0, 0.0, -4e5))
    with pytest.raises(ValueError, match="1e6"):
        instanton.InstantonParams(0.5, (3e5, 0.0, 0.0, -4.1e5))


# -- batched evaluation: points (..., 4) give results with leading shape (...) --


def _one_point_at_a_time(fn, pts):
    """fn called on each single point (4,), stacked back into pts' leading shape."""
    flat = pts.reshape(-1, 4)
    values = np.stack([np.asarray(fn(x)) for x in flat])
    return values.reshape(pts.shape[:-1] + values.shape[1:])


def _fd_layer(p):
    c = p.connection
    # (name, evaluator of (..., 4) points, tolerance against the pointwise loop)
    return [
        ('covariant_derivative_of',
         lambda z: instanton.covariant_derivative_of(c, z, h=1e-4), 1e-10),
        ('curvature_fd_of', lambda z: instanton.curvature_fd_of(c, z, h=1e-4), 1e-12),
        ('kato_residual_at', lambda z: instanton.kato_residual_at(c, z, h=1e-4), 1e-9),
        ('laplacian_of', lambda z: instanton.laplacian_of(plus_norm_sq(c), z, 4e-3), 1e-9),
        ('bianchi_residual', lambda z: _bianchi_at(c, z, h=1e-3), 1e-12),
    ]


@pytest.mark.parametrize("p", [STD, OFF_STANDARD], ids=["standard", "off-standard"])
@pytest.mark.parametrize("shape", [(40, 4), (2, 3, 4)])
def test_fd_layer_batched_matches_pointwise(p, shape):
    pts = np.random.default_rng(31).standard_normal(shape) * 1.5
    for name, fn, tol in _fd_layer(p):
        batched = fn(pts)
        looped = _one_point_at_a_time(fn, pts)
        assert batched.shape == looped.shape, name
        assert np.max(np.abs(batched - looped)) < tol, name


def test_fd_layer_shapes():
    pts = np.zeros((2, 3, 4))
    nab = instanton.covariant_derivative_of(STD.connection, pts, h=1e-4)
    assert nab.shape == (2, 3, 4, 6, 3)
    assert instanton.curvature_fd_of(STD.connection, pts, h=1e-4).shape == (2, 3, 6, 3)
    assert instanton.connection_at(STD, pts).shape == (2, 3, 4, 3)
    for value in (instanton.kato_residual_at(STD.connection, pts),
                  instanton.laplacian_of(plus_norm_sq(STD.connection), pts, 4e-3),
                  instanton.bianchi_residual(nab), instanton.cov_norm_sq(nab)):
        assert np.shape(value) == (2, 3)
    for value in (instanton.kato_residual_at(STD.connection, np.zeros(4)),
                  instanton.laplacian_of(plus_norm_sq(STD.connection), np.zeros(4), 4e-3),
                  instanton.bianchi_residual(nab[0, 0])):
        assert np.shape(value) == ()


def _per_step_partial(fn, x, k, h, richardson):
    """The differencing oracle: one fn call per stencil point x +- step e_k."""
    ek = np.eye(4)[k]

    def central(step):
        hi, lo = x + step * ek, x - step * ek
        return (fn(hi) - fn(lo)) / (hi[..., k] - lo[..., k])[..., None, None]
    d = central(h)
    return (4.0 * central(h / 2.0) - d) / 3.0 if richardson else d


@pytest.mark.parametrize("p", [STD, OFF_STANDARD], ids=["standard", "off-standard"])
@pytest.mark.parametrize("shape", [(4,), (40, 4), (2, 3, 4)])
@pytest.mark.parametrize("richardson", [True, False], ids=["richardson", "central"])
def test_one_call_stencil_matches_per_step_oracle(monkeypatch, p, shape, richardson):
    pts = p.center_array + p.scale * np.random.default_rng(59).standard_normal(shape)

    def differenced():
        return (instanton.covariant_derivative_of(p.connection, pts, 1e-4 * p.scale, richardson),
                instanton.curvature_fd_of(p.connection, pts, 1e-4 * p.scale, richardson))
    fast = differenced()
    monkeypatch.setattr(instanton, "_partial", _per_step_partial)
    for got, want in zip(fast, differenced()):
        assert got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("richardson", [True, False], ids=["richardson", "central"])
def test_one_evaluator_call_per_difference_direction(richardson):
    calls = {"theta": 0, "curvature": 0}

    def counted(name, fn):
        def evaluator(x):
            calls[name] += 1
            return fn(x)
        return evaluator
    c = STD.connection
    c = instanton.Connection(counted("theta", c.theta), counted("curvature", c.curvature), c.f)
    pts = np.random.default_rng(61).standard_normal((40, 4))
    instanton.covariant_derivative_of(c, pts, 1e-4, richardson)
    assert calls == {"theta": 1, "curvature": 1 + 4}
    calls.update(theta=0, curvature=0)
    instanton.curvature_fd_of(c, pts, 1e-4, richardson)
    assert calls == {"theta": 1 + 4, "curvature": 0}
