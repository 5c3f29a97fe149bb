"""Two-form algebra: star, self-dual split, circ product, operator bound.

The circ product is ``liealg.circ``, minus the so(4) bracket; its loop
oracle ``brute_circ`` stays here, on the form components."""

import numpy as np
import pytest

from ymgap import forms4, liealg


def dx(i, j):
    """Unit-coefficient dx^i ^ dx^j, 1-based with i < j."""
    return np.eye(6)[forms4.PAIR_INDEX[(i - 1, j - 1)]]


def star(a):
    """The Hodge star as the package applies it, ``liealg.lv_hodge``, on
    a (x) E_1, a Lie-valued form with one coefficient; reads the form back."""
    return liealg.lv_hodge(np.asarray(a)[..., None])[..., 0]


def self_dual(a):
    """``liealg.lv_self_dual`` on a (x) E_1, read back like ``star``."""
    return liealg.lv_self_dual(np.asarray(a)[..., None])[..., 0]


def to_matrix(c):
    """Six-component array(s) (..., 6) -> antisymmetric matrices (..., 4, 4)."""
    c = np.asarray(c, dtype=float)
    m = np.zeros(c.shape[:-1] + (4, 4))
    m[..., forms4.PAIR_I, forms4.PAIR_J] = c
    m[..., forms4.PAIR_J, forms4.PAIR_I] = -c
    return m


def from_matrix(m):
    """Antisymmetric matrices (..., 4, 4) -> six-component arrays (..., 6)."""
    return np.asarray(m, dtype=float)[..., forms4.PAIR_I, forms4.PAIR_J]


def brute_circ(a, b):
    """Independent loop implementation of the circ contraction."""
    am = to_matrix(a)
    bm = to_matrix(b)
    out = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            out[i, j] = sum(am[i, k] * bm[j, k] - am[j, k] * bm[i, k] for k in range(4))
    return from_matrix(out)


def require_weyl(w, tol=1e-12):
    """Validate a symmetric trace-free 3x3 operator; returns it as ndarray."""
    w = np.asarray(w, dtype=float)
    if w.shape != (3, 3):
        raise ValueError(f"expected 3x3 operator, got shape {w.shape}")
    if np.max(np.abs(w - w.T)) > tol:
        raise ValueError("operator is not symmetric")
    if abs(np.trace(w)) > tol:
        raise ValueError("operator is not trace-free")
    return w


def test_inner_product_convention():
    assert forms4.inner_2form(dx(1, 2), dx(1, 2)) == 2.0
    assert forms4.inner_2form(dx(1, 2), dx(3, 4)) == 0.0
    assert forms4.inner_2form(dx(1, 2) + dx(3, 4), dx(1, 2) + dx(3, 4)) == 4.0


def test_star_table():
    assert np.array_equal(star(dx(1, 2)), dx(3, 4))
    assert np.array_equal(star(dx(1, 3)), -dx(2, 4))
    assert np.array_equal(star(dx(1, 4)), dx(2, 3))
    sd = dx(1, 2) + dx(3, 4)
    assert np.array_equal(star(sd), sd)


def test_star_involution_and_isometry():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.standard_normal(6)
        b = rng.standard_normal(6)
        assert np.max(np.abs(star(star(a)) - a)) < 1e-15
        gap = forms4.inner_2form(star(a), star(b)) - forms4.inner_2form(a, b)
        assert abs(gap) < 1e-12


def test_sd_project():
    plus = self_dual(dx(1, 2))
    minus = dx(1, 2) - plus
    assert np.allclose(plus, 0.5 * (dx(1, 2) + dx(3, 4)))
    assert np.allclose(minus, 0.5 * (dx(1, 2) - dx(3, 4)))
    sd = dx(1, 2) + dx(3, 4)
    plus = self_dual(sd)
    minus = sd - plus
    assert np.allclose(plus, sd) and np.max(np.abs(minus)) == 0.0


def test_sd_project_idempotent_orthogonal_pythagoras():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.standard_normal(6)
        plus = self_dual(a)
        minus = a - plus
        replus = self_dual(plus)
        reminus = plus - replus
        assert np.max(np.abs(replus - plus)) < 1e-15
        assert np.max(np.abs(reminus)) < 1e-15
        assert abs(forms4.inner_2form(plus, minus)) < 1e-13
        total = forms4.inner_2form(plus, plus) + forms4.inner_2form(minus, minus)
        assert abs(total - forms4.inner_2form(a, a)) < 1e-12


# the standard self-dual basis e1, e2, e3 as literals: the oracle for
# forms4.sd_basis, which reads it off STAR
SD_BASIS = np.array([
    [0.5, 0.0, 0.0, 0.0, 0.0, 0.5],
    [0.0, 0.5, 0.0, 0.0, -0.5, 0.0],
    [0.0, 0.0, 0.5, 0.5, 0.0, 0.0],
])


def test_sd_basis_is_the_literal_basis():
    # bit for bit, with one -0.5 and no -0.0
    e = forms4.sd_basis()
    assert np.array_equal(e, SD_BASIS)
    assert np.array_equal(np.signbit(e), np.signbit(SD_BASIS))
    assert np.count_nonzero(np.signbit(e)) == 1


def test_sd_basis_orthonormal_and_self_dual():
    e = forms4.sd_basis()
    for a in range(3):
        assert np.max(np.abs(star(e[a]) - e[a])) == 0.0
        for b in range(3):
            assert abs(forms4.inner_2form(e[a], e[b]) - (a == b)) < 1e-15


def test_so4_basis_is_the_two_form_basis():
    # SO4_BASIS[c] is the skew matrix of dx^PAIRS[c], so 2-forms are so(4)
    # coefficient vectors in the package's component order
    for c, (i, j) in enumerate(forms4.PAIRS):
        assert np.array_equal(liealg.SO4_BASIS[c], to_matrix(dx(i + 1, j + 1)))


def test_circ_standard_basis():
    e = forms4.sd_basis()
    assert np.allclose(liealg.circ(e[0], e[1]), e[2], atol=1e-15)
    assert np.allclose(liealg.circ(e[1], e[2]), e[0], atol=1e-15)
    assert np.allclose(liealg.circ(e[0], e[2]), -e[1], atol=1e-15)
    assert np.max(np.abs(liealg.circ(e[0], e[0]))) == 0.0


def test_circ_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(30):
        a = rng.standard_normal(6)
        b = rng.standard_normal(6)
        assert np.max(np.abs(liealg.circ(a, b) - brute_circ(a, b))) < 1e-12


def test_circ_basis_orthonormal_for_random_bases():
    rng = np.random.default_rng(19)
    for _ in range(100):
        basis = forms4.random_sd_basis(rng)
        prods = np.stack([liealg.circ(basis[0], basis[1]),
                          liealg.circ(basis[0], basis[2]),
                          liealg.circ(basis[1], basis[2])])
        gram = np.array([[forms4.inner_2form(p, q) for q in prods] for p in prods])
        assert np.max(np.abs(gram - np.eye(3))) < 1e-10


def test_weyl_validation():
    with pytest.raises(ValueError):
        require_weyl(np.eye(3))          # not trace-free
    with pytest.raises(ValueError):
        require_weyl(np.triu(np.ones((3, 3))))
    require_weyl(np.diag([1.0, 1.0, -2.0]))


def test_weyl_extremal_equality():
    w, v = forms4.extremal_weyl(scale=0.7)
    lhs = abs(forms4.weyl_quad(w, v))
    rhs = forms4.WEYL_BOUND * forms4.weyl_norm(w) * float(v @ v)
    assert abs(lhs - rhs) < 1e-12
    assert abs(forms4.weyl_quad(w, v) - (-2 * 0.7)) < 1e-12
    assert forms4.weyl_quad(np.zeros((3, 3)), v) == 0.0


def test_weyl_bound_random_and_sup():
    rng = np.random.default_rng(29)
    sup_ratio = 0.0
    for _ in range(10000):
        w = forms4.random_weyl(rng)
        v = rng.standard_normal(3)
        bound = forms4.WEYL_BOUND * forms4.weyl_norm(w) * float(v @ v)
        val = abs(forms4.weyl_quad(w, v))
        assert val <= bound + 1e-10
        sup_ratio = max(sup_ratio, val / bound)
    # extremal configuration pushes the sampled supremum onto the constant
    w, v = forms4.extremal_weyl()
    sup_ratio = max(sup_ratio, abs(forms4.weyl_quad(w, v)) /
                    (forms4.WEYL_BOUND * forms4.weyl_norm(w) * float(v @ v)))
    assert sup_ratio > 1.0 - 1e-3


def test_weyl_helpers_batched_match_scalar_calls():
    w = forms4.random_weyl(np.random.default_rng(41), size=(4, 5))
    assert w.shape == (4, 5, 3, 3)
    assert np.max(np.abs(w - np.swapaxes(w, -2, -1))) == 0.0
    assert np.max(np.abs(np.trace(w, axis1=-2, axis2=-1))) < 1e-15
    v = np.random.default_rng(43).standard_normal((4, 5, 3))
    quad = forms4.weyl_quad(w, v)
    norm = forms4.weyl_norm(w)
    assert quad.shape == norm.shape == (4, 5)
    for idx in np.ndindex(4, 5):
        require_weyl(w[idx])
        assert abs(quad[idx] - forms4.weyl_quad(w[idx], v[idx])) < 1e-14
        assert abs(norm[idx] - forms4.weyl_norm(w[idx])) < 1e-15
    # one operator against many triples broadcasts
    one = forms4.weyl_quad(w[0, 0], v)
    assert abs(one[2, 3] - forms4.weyl_quad(w[0, 0], v[2, 3])) < 1e-14


def test_weyl_quad_matches_the_three_operand_contraction():
    rng = np.random.default_rng(53)
    w = forms4.random_weyl(rng, size=(10000,))
    v = rng.standard_normal((10000, 3))
    want = np.einsum('...a,...ab,...b->...', v, w, v)
    size = forms4.weyl_norm(w) * np.einsum('...a,...a->...', v, v)
    assert np.max(np.abs(forms4.weyl_quad(w, v) - want) / size) <= 1e-15
    frobenius = np.sqrt(np.sum(w * w, axis=(-2, -1)))
    assert np.max(np.abs(forms4.weyl_norm(w) - frobenius) / frobenius) <= 1e-15


def test_random_weyl_is_the_gathered_symmetrization():
    def gathered(rng, size):
        m = rng.standard_normal(tuple(size) + (9,))
        m = 0.5 * (m + m[..., [0, 3, 6, 1, 4, 7, 2, 5, 8]])
        m[..., ::4] -= ((m[..., 0] + m[..., 4] + m[..., 8]) / 3.0)[..., None]
        return m.reshape(tuple(size) + (3, 3))

    for size in ((), (7,), (2, 3)):
        for seed in (0, 1, 59):
            w = forms4.random_weyl(np.random.default_rng(seed), size)
            assert w.shape == size + (3, 3)
            assert np.array_equal(w, gathered(np.random.default_rng(seed), size))


def test_random_helpers_batched_draw_the_scalar_stream():
    batched = forms4.random_weyl(np.random.default_rng(47), size=(6,))
    rng = np.random.default_rng(47)
    assert np.array_equal(batched, np.stack([forms4.random_weyl(rng) for _ in range(6)]))
    bases = forms4.random_sd_basis(np.random.default_rng(53), size=(2, 3))
    assert bases.shape == (2, 3, 3, 6)
    rng = np.random.default_rng(53)
    looped = np.stack([forms4.random_sd_basis(rng) for _ in range(6)]).reshape(2, 3, 3, 6)
    assert np.max(np.abs(bases - looped)) < 1e-15
    gram = 2.0 * bases @ np.swapaxes(bases, -2, -1)
    assert np.max(np.abs(gram - np.eye(3))) < 1e-12
