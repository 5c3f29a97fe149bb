"""Verification toolkit for the sharp conformally invariant energy gap of
Yang-Mills connections in dimension four.

Subpackages:

* ``forms4``    -- 2-form algebra on oriented R^4 (star table, self-dual
                   basis, circ product, operators on the self-dual space)
* ``liealg``    -- skew matrix algebras, bracket constants gamma0/gamma1
* ``instanton`` -- the charge-one instanton family in closed form plus
                   finite-difference cross-checks
* ``quad4``     -- energy / characteristic-number quadrature over R^4
* ``conformal`` -- modified scalar curvature, conformal Laplacian,
                   radial eigenvalue problems, Yamabe quotients
* ``report``    -- gap-inequality evaluator, thresholds, suites
* ``cli``       -- ``ymgap`` command-line front end
"""

from . import conformal, forms4, instanton, liealg, quad4, report
from .conformal import ROUND_SCALAR_CURVATURE, YAMABE_S4
from .instanton import InstantonParams
from .liealg import (AlgebraSpec, GAMMA0_SO3, GAMMA0_SU2, GAMMA1_MAX,
                     GAMMA1_SO3, GAMMA1_SU2, gamma0_estimate, gamma1_estimate)
from .quad4 import RadialGrid, SphereRule, chern_weil_kappa, l2_sd_norms, ym_energy
from .report import (GapConfig, GapReport, corollary_thresholds, flow_admissible,
                     gap_inequality, gap_report, run_all, run_suite)

__version__ = "0.1.0"

__all__ = [
    "forms4", "liealg", "instanton", "quad4", "conformal", "report",
    "InstantonParams", "AlgebraSpec", "RadialGrid", "SphereRule",
    "GapConfig", "GapReport",
    "GAMMA0_SU2", "GAMMA0_SO3", "GAMMA1_SU2", "GAMMA1_SO3", "GAMMA1_MAX",
    "ROUND_SCALAR_CURVATURE", "YAMABE_S4",
    "gamma0_estimate", "gamma1_estimate", "ym_energy", "l2_sd_norms",
    "chern_weil_kappa", "gap_inequality", "gap_report", "corollary_thresholds",
    "flow_admissible", "run_suite", "run_all",
]
