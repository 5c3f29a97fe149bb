"""The charge-one instanton family on the flat chart R^4 = S^4 minus a point.

The standard connection is the su(2)-valued 1-form

    theta = (theta_1 (x) i + theta_2 (x) j + theta_3 (x) k) / (1 + |x|^2),

    theta_1 = x1 dx2 - x2 dx1 + x3 dx4 - x4 dx3
    theta_2 = x1 dx3 - x3 dx1 + x4 dx2 - x2 dx4
    theta_3 = x1 dx4 - x4 dx1 + x2 dx3 - x3 dx2,

whose curvature is the self-dual form

    F = 2 (1 + |x|^2)^-2 { (dx12 + dx34) (x) i
                         + (dx13 - dx24) (x) j
                         + (dx14 + dx23) (x) k },

with |F|^2 = 96 (1 + |x|^2)^-4 and total energy 16 pi^2. These two
displays pair under the right-action conventions used throughout this
module:

    F_ij      = d_i theta_j - d_j theta_i - [theta_i, theta_j]
    nabla_k F = d_k F - [theta_k, F]

(the opposite bracket sign is not a curvature of any connection with this
display; see README). The general family is the pullback under
x -> (x - center)/scale, which multiplies connection coefficients by
1/scale and curvature coefficients by 1/scale^2.

Every evaluator takes points x of shape (..., 4) and broadcasts over the
leading axes: a single point (4,) is the case ... = (). Forms come back as
(..., 6, n, n), covariant derivatives as (..., 4, 6, n, n), scalars and
residuals as (...). Finite-difference evaluators use central differences
with optional Richardson extrapolation (on by default where a tight
tolerance matters); convergence-order checks should pass
``richardson=False``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import forms4, liealg

#: constant matrix-valued components of the standard curvature, index order
#: (12, 13, 14, 23, 24, 34); the scalar profile multiplies all six.
CURV_COMPONENTS = np.stack([
    liealg.SU2_I,
    liealg.SU2_J,
    liealg.SU2_K,
    liealg.SU2_K,
    -liealg.SU2_J,
    liealg.SU2_I,
])
CURV_COMPONENTS.setflags(write=False)

# 1-form coefficient matrices: theta_a = (C_a x) . dx with C_a below
_THETA_COEFF = np.array([
    [[0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 1.0, 0.0]],
    [[0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0]],
    [[0.0, 0.0, 0.0, -1.0], [0.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]],
])


@dataclass(frozen=True)
class InstantonParams:
    """Scale and center of a member of the conformal orbit of the standard
    connection; scale=1, center=0 is the standard one."""

    scale: float = 1.0
    center: tuple = (0.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        if not 1e-20 <= self.scale <= 1e20:        # beyond, the suites' arithmetic overflows
            raise ValueError(f"scale must be in [1e-20, 1e20]; got {self.scale!r}")
        c = np.asarray(self.center, dtype=float)
        if c.shape != (4,):
            raise ValueError("center must be a point in R^4")
        object.__setattr__(self, 'center', tuple(c))

    @property
    def center_array(self):
        return np.asarray(self.center)


STANDARD = InstantonParams()


def connection_at(p, x):
    """Connection coefficients theta_1..theta_4 at x: (..., 4, 4, 4).

    Axis -3 is the dx index; the trailing axes are the su(2)_real matrix.
    """
    x = np.asarray(x, dtype=float)
    y = (x - p.center_array) / p.scale
    f = 1.0 / (1.0 + np.einsum('...m,...m->...', y, y))
    cvals = np.einsum('amn,...n->...am', _THETA_COEFF, y)      # (..., 3, 4)
    theta = np.einsum('...am,aij->...mij', cvals, np.stack([liealg.SU2_I, liealg.SU2_J, liealg.SU2_K]))
    return theta * (f / p.scale)[..., None, None, None]


def curvature_closed_at(p, x):
    """Closed-form curvature at x: (..., 6, 4, 4), self-dual."""
    x = np.asarray(x, dtype=float)
    y = (x - p.center_array) / p.scale
    s = 2.0 / (p.scale * (1.0 + np.einsum('...m,...m->...', y, y))) ** 2
    return s[..., None, None, None] * CURV_COMPONENTS


def norm_law(p, s):
    """The norm law |F|^2 = 96 scale^4 / (scale^2 + s)^4 at s = |x - center|^2."""
    u = p.scale ** 2 + s
    return 96.0 * p.scale ** 4 / np.square(np.square(u))


def curvature_norm_sq(p, x):
    """Pointwise |F|^2 at x, the norm law of |x - center|^2."""
    d = np.asarray(x, dtype=float) - p.center_array
    return norm_law(p, np.einsum('...m,...m->...', d, d))


def curvature_norm_sq_laplacian(p, x):
    """Flat-chart Laplacian of |F|^2, from the norm law.

    For g(r) = 96 L^4 (L^2+r^2)^-4: Delta g = -3072 L^4 (L^2+r^2)^-5
    + 7680 L^4 r^2 (L^2+r^2)^-6.
    """
    x = np.asarray(x, dtype=float)
    d = x - p.center_array
    s = np.einsum('...m,...m->...', d, d)
    u = p.scale ** 2 + s
    return p.scale ** 4 * (-3072.0 / u ** 5 + 7680.0 * s / u ** 6)


def curvature_norm_grad_sq(p, x):
    """|d|F||^2 from the norm law; equals L'(s)^2 s / L(s) with s = r^2.

    Well-defined at the center (value 0) because |F| never vanishes.
    """
    x = np.asarray(x, dtype=float)
    d = x - p.center_array
    s = np.einsum('...m,...m->...', d, d)
    u = p.scale ** 2 + s
    law = 96.0 * p.scale ** 4 / u ** 4
    dlaw = -384.0 * p.scale ** 4 / u ** 5
    return dlaw * dlaw * s / law


def _partial(fn, x, k, h, richardson):
    ek = np.zeros(4)
    ek[k] = 1.0
    def central(step):
        return (fn(x + step * ek) - fn(x - step * ek)) / (2.0 * step)
    d = central(h)
    if richardson:
        d = (4.0 * central(h / 2.0) - d) / 3.0
    return d


def _check_step(h):
    if not h > 0:
        raise ValueError("finite-difference step must be positive")


def curvature_fd_of(conn_fn, x, h, richardson=False):
    """Curvature (..., 6, n, n) from a connection callable via central differences.

    F_ij = d_i theta_j - d_j theta_i - [theta_i, theta_j]; converges to the
    closed form at O(h^2) (O(h^4) with richardson).
    """
    _check_step(h)
    x = np.asarray(x, dtype=float)
    th = conn_fn(x)
    # dth[..., k, j] = d_k theta_j
    dth = np.stack([_partial(conn_fn, x, k, h, richardson) for k in range(4)], axis=-4)
    i, j = forms4.PAIR_I, forms4.PAIR_J
    return (dth[..., i, j, :, :] - dth[..., j, i, :, :]
            - liealg.bracket(th[..., i, :, :], th[..., j, :, :]))


def curvature_fd_at(p, x, h, richardson=False):
    return curvature_fd_of(lambda z: connection_at(p, z), x, h, richardson)


def covariant_derivative_of(curv_fn, conn_fn, x, h, richardson=True):
    """(nabla_1 F, ..., nabla_4 F) as a (..., 4, 6, n, n) array.

    nabla_k F_ij = d_k F_ij - [theta_k, F_ij] on the flat chart (the
    Levi-Civita terms vanish).
    """
    _check_step(h)
    x = np.asarray(x, dtype=float)
    th = conn_fn(x)
    f0 = curv_fn(x)
    out = np.empty(x.shape[:-1] + (4,) + f0.shape[-3:])
    for k in range(4):
        thk = th[..., k:k + 1, :, :]
        out[..., k, :, :, :] = _partial(curv_fn, x, k, h, richardson) - (thk @ f0 - f0 @ thk)
    return out


def cov_norm_sq(nabla):
    """|nabla F|^2 = sum_k |nabla_k F|^2 (combined inner product): (..., 4, 6, n, n) -> (...)."""
    return np.sum(liealg.lv_norm_sq(nabla), axis=-1)


def kato_residual_at(p, x, h=1e-4, richardson=True):
    """|nabla F+|^2 - (3/2)|d|F+||^2 at x.

    The gradient side comes from the norm law (exact); the covariant
    derivative side is finite-difference. Nonnegative up to FD error; this
    family attains equality identically.
    """
    nabla = covariant_derivative_of(lambda z: liealg.lv_self_dual(curvature_closed_at(p, z)),
                                    lambda z: connection_at(p, z), x, h, richardson)
    return cov_norm_sq(nabla) - 1.5 * curvature_norm_grad_sq(p, x)


def bochner_residual_at(p, x, h=1e-3, richardson=False):
    """Flat-chart identity residual (1/2)Lap|F+|^2 - |nabla F+|^2 + <F+,[F+,F+]>.

    The Laplacian term is analytic (norm law), the bracket term closed
    form, the middle term finite-difference; vanishes at O(h^2).
    """
    def plus(z):
        return liealg.lv_self_dual(curvature_closed_at(p, z))

    nabla = covariant_derivative_of(plus, lambda z: connection_at(p, z), x, h, richardson)
    return (0.5 * curvature_norm_sq_laplacian(p, x) - cov_norm_sq(nabla)
            + liealg.cubic_form(plus(x)))


def bianchi_residual_of(curv_fn, conn_fn, x, h):
    """Max norm over index triples of the cyclic sum of nabla_k F_ij, shape (...)."""
    _check_step(h)
    nabla = covariant_derivative_of(curv_fn, conn_fn, x, h, richardson=False)
    i, j = forms4.PAIR_I, forms4.PAIR_J
    # full[..., k, i, j] = nabla_k F_ij, antisymmetric in (i, j)
    full = np.zeros(nabla.shape[:-3] + (4, 4) + nabla.shape[-2:])
    full[..., i, j, :, :] = nabla
    full[..., j, i, :, :] = -nabla
    cyc = full + np.moveaxis(full, -5, -3) + np.moveaxis(full, -3, -5)
    return np.max(liealg.norm_endo(cyc), axis=(-3, -2, -1))


def bianchi_residual_at(p, x, h=1e-3):
    return bianchi_residual_of(lambda z: curvature_closed_at(p, z),
                               lambda z: connection_at(p, z), x, h)
