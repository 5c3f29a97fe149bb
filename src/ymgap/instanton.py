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
display; see README). Both displays are tables of ``forms4.sd_basis``, read
off ``forms4.STAR``, the one place the orientation is written. The general
family is the pullback under x -> (x - center)/scale, which multiplies
connection coefficients by 1/scale and curvature coefficients by 1/scale^2.

Every evaluator takes points x of shape (..., 4) and broadcasts over the
leading axes: a single point (4,) is the case ... = (). Lie-algebra values
are coefficients on the orthonormal basis of an algebra of dimension k,
every bracket ``liealg.bracket_coeffs`` or ``liealg.ad`` on its table f;
the family's are on (i, j, k)/sqrt2 of ``liealg.SU2``, sqrt2 times the
quaternion entries. Connections come back as (..., 4, k), forms as
(..., 6, k), covariant derivatives as (..., 4, 6, k), scalars and residuals
as (...). The finite-difference evaluators read a ``Connection`` (the
family's is ``InstantonParams.connection``) or a scalar evaluator, never the
family's parameters, and take central differences with optional Richardson
extrapolation (on by default where a tight tolerance matters);
convergence-order checks should pass ``richardson=False``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import forms4, liealg

# from the self-dual basis e_a: F's components (12, ..., 34) on (i, j, k) are 2 e_a, and
# theta_a = (C_a x) . dx with C_a = 2 e_a^T as a skew matrix; C-contiguous, read-only
_CURV_COEFF = np.ascontiguousarray(2.0 * forms4.sd_basis().T)
_THETA_COEFF = 2.0 * np.einsum('ac,cnm->amn', forms4.sd_basis(), liealg.SO4_BASIS, order='C')
_CURV_COEFF.flags.writeable = _THETA_COEFF.flags.writeable = False


@dataclass(frozen=True)
class Connection:
    """A connection on the flat chart: ``theta`` maps points (..., 4) to (..., 4, k),
    ``curvature`` to (..., 6, k); ``f`` is the (k, k, k) table of their algebra."""

    theta: object
    curvature: object
    f: np.ndarray


@dataclass(frozen=True)
class InstantonParams:
    """Scale and center of a member of the conformal orbit of the standard
    connection; scale=1, center=0 is the standard one."""

    scale: float = 1.0
    center: tuple = (0.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        if isinstance(self.scale, bool) or not isinstance(self.scale, numbers.Real):
            raise ValueError(f"scale must be a real number; got {self.scale!r}")
        if not 1e-20 <= self.scale <= 1e20:        # beyond, the suites' arithmetic overflows
            raise ValueError(f"scale must be in [1e-20, 1e20]; got {self.scale!r}")
        object.__setattr__(self, 'scale', float(self.scale))
        c = np.asarray(self.center, dtype=float)
        if c.shape != (4,):
            raise ValueError("center must be a point in R^4")
        if not np.all(np.isfinite(c)):
            raise ValueError(f"center must be finite; got {self.center!r}")
        # beyond, (x - center)/scale loses the digits of the sample points
        if np.linalg.norm(c) > 1e6 * self.scale:
            raise ValueError(f"|center| must be at most 1e6 * scale; got {self.center!r}")
        object.__setattr__(self, 'center', tuple(c))

    @property
    def center_array(self):
        return np.asarray(self.center)

    @property
    def connection(self):
        """This member as a ``Connection``: su(2)-valued, curvature in closed form."""
        return Connection(lambda x: connection_at(self, x), lambda x: curvature_closed_at(self, x),
                          liealg.SU2)


STANDARD = InstantonParams()


def connection_at(p, x):
    """Connection coefficients theta_1..theta_4 at x: (..., 4, 3).

    Axis -2 is the dx index, axis -1 the su(2) coefficient.
    """
    x = np.asarray(x, dtype=float)
    y = (x - p.center_array) / p.scale
    # sqrt2: a quaternion is sqrt2 times its vector of the orthonormal basis
    f = np.sqrt(2.0) / (p.scale * (1.0 + np.einsum('...m,...m->...', y, y)))
    return np.einsum('amn,...n->...ma', _THETA_COEFF, y) * f[..., None, None]


def curvature_closed_at(p, x):
    """Closed-form curvature at x: (..., 6, 3), self-dual; the display's
    factor 2 times the sqrt2 of the basis."""
    x = np.asarray(x, dtype=float)
    y = (x - p.center_array) / p.scale
    s = np.sqrt(8.0) / (p.scale * (1.0 + np.einsum('...m,...m->...', y, y))) ** 2
    return s[..., None, None] * _CURV_COEFF


def norm_law(p, s):
    """The norm law |F|^2 = 96 scale^4 / (scale^2 + s)^4 at s = |x - center|^2."""
    u = p.scale ** 2 + s
    return 96.0 * p.scale ** 4 / np.square(np.square(u))


def curvature_norm_sq(p, x):
    """Pointwise |F|^2 at x, the norm law of |x - center|^2."""
    d = np.asarray(x, dtype=float) - p.center_array
    return norm_law(p, np.einsum('...m,...m->...', d, d))


def _partial(fn, x, k, h, richardson):
    if not 0 < h < np.inf:
        raise ValueError(f"finite-difference step must be positive and finite; got {h!r}")
    # the direction's whole stencil x +- step e_k, each step's pair adjacent, in one call
    steps = np.array([h, -h, h / 2.0, -h / 2.0] if richardson else [h, -h])
    pts = x + (steps[:, None] * np.eye(4)[k]).reshape((len(steps),) + (1,) * (x.ndim - 1) + (4,))
    vals = fn(pts)
    # divide by the step actually taken, not 2 step, which x[k] >> step rounds; in place,
    # as stencil-sized temporaries cost page faults at a thousand points
    d = vals[0::2] - vals[1::2]
    d /= (pts[0::2, ..., k] - pts[1::2, ..., k])[..., None, None]
    if richardson:
        d[1] *= 4.0
        d[1] -= d[0]
        d[1] /= 3.0
    return d[-1]


def curvature_fd_of(c, x, h, richardson=False):
    """Curvature (..., 6, k) of the connection c via central differences.

    F_ij = d_i theta_j - d_j theta_i - [theta_i, theta_j]; converges to the
    closed form at O(h^2) (O(h^4) with richardson).
    """
    x = np.asarray(x, dtype=float)
    th = c.theta(x)
    # dth[..., k, j] = d_k theta_j
    dth = np.stack([_partial(c.theta, x, k, h, richardson) for k in range(4)], axis=-3)
    i, j = forms4.PAIR_I, forms4.PAIR_J
    return (dth[..., i, j, :] - dth[..., j, i, :]
            - liealg.bracket_coeffs(th[..., i, :], th[..., j, :], c.f))


def covariant_derivative_of(c, x, h, richardson=True):
    """(nabla_1 F, ..., nabla_4 F) of the connection c as a (..., 4, 6, k) array.

    nabla_k F_ij = d_k F_ij - [theta_k, F_ij] on the flat chart (the
    Levi-Civita terms vanish). The four brackets [theta_k, F] are one batched
    product of F with the matrices ``liealg.ad(theta_k, f)``.
    """
    x = np.asarray(x, dtype=float)
    out = np.matmul(c.curvature(x)[..., None, :, :], liealg.ad(c.theta(x), c.f))
    for k in range(4):
        np.subtract(_partial(c.curvature, x, k, h, richardson), out[..., k, :, :],
                    out=out[..., k, :, :])
    return out


def cov_norm_sq(nabla):
    """|nabla F|^2 = sum_k |nabla_k F|^2 (combined inner product): (..., 4, 6, k) -> (...)."""
    return np.sum(liealg.lv_norm_sq(nabla), axis=-1)


def kato_residual_at(c, x, h=1e-4, richardson=True):
    """|nabla F+|^2 - (3/2)|d|F+||^2 at x for the connection c.

    nabla F+ is the self-dual part of the differenced nabla F (the chart's
    star is constant), and d_k|F+| = <F+, nabla_k F+>/|F+| wherever F+ != 0,
    as <F+, [theta_k, F+]> = 0. Nonnegative up to FD error; the instanton
    family attains equality.
    """
    nabla = liealg.lv_self_dual(covariant_derivative_of(c, x, h, richardson))
    fp = liealg.lv_self_dual(c.curvature(x))
    grad = liealg.lv_inner(fp[..., None, :, :], nabla)
    return cov_norm_sq(nabla) - 1.5 * np.sum(grad * grad, axis=-1) / liealg.lv_norm_sq(fp)


def laplacian_of(g, x, h):
    """Flat-chart Laplacian (...) of the scalar evaluator g at x (..., 4).

    Central second differences at h and h/2 over the steps actually taken,
    Richardson-combined; x and its 16 stencil points go through g in one call.
    """
    if not 0 < h < np.inf:
        raise ValueError(f"finite-difference step must be positive and finite; got {h!r}")
    x = np.asarray(x, dtype=float)
    lead = (1,) * (x.ndim - 1)
    steps = np.array([h, -h, h / 2.0, -h / 2.0]).reshape((4,) + lead + (1,))
    # x, then x + steps[s] e_k as row 1 + 4s + k
    stencil = (x + steps[:, None] * np.eye(4).reshape((4,) + lead + (4,))).reshape((16,) + x.shape)
    vals = g(np.concatenate([x[None], stencil]))
    taken = (x + steps) - x                       # (step, ..., k)
    slope = np.moveaxis(vals[1:].reshape((4, 4) + vals.shape[1:]), 1, -1) - vals[0][..., None]
    slope /= taken
    lap = np.sum(2.0 * (slope[0::2] - slope[1::2]) / (taken[0::2] - taken[1::2]), axis=-1)
    return (4.0 * lap[1] - lap[0]) / 3.0


def bianchi_residual(nabla):
    """Max norm over index triples of the cyclic sum of nabla_k F_ij: (..., 4, 6, k) -> (...)."""
    i, j = forms4.PAIR_I, forms4.PAIR_J
    # full[..., k, i, j, :] = nabla_k F_ij, antisymmetric in (i, j)
    full = np.zeros(nabla.shape[:-2] + (4, 4) + nabla.shape[-1:])
    full[..., i, j, :] = nabla
    full[..., j, i, :] = -nabla
    cyc = full + np.moveaxis(full, -4, -2) + np.moveaxis(full, -2, -4)
    return np.max(np.linalg.norm(cyc, axis=-1), axis=(-3, -2, -1))
