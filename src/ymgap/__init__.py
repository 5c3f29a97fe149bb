"""Verification toolkit for the sharp conformally invariant energy gap of
Yang-Mills connections in dimension four.

Subpackages:

* ``forms4``    -- 2-form algebra on oriented R^4 (star table, self-dual
                   basis, operators on the self-dual space)
* ``liealg``    -- Lie algebras as structure constants, the bracket of
                   coefficient vectors and circ of 2-forms, gamma0/gamma1
* ``instanton`` -- the charge-one instanton family in closed form plus
                   finite-difference cross-checks
* ``quad4``     -- energy / characteristic-number quadrature over R^4
* ``conformal`` -- modified scalar curvature, conformal Laplacian,
                   radial eigenvalue problems, Yamabe quotients
* ``report``    -- gap-inequality evaluator, thresholds, suites
* ``cli``       -- ``ymgap`` command-line front end
"""

from . import conformal, forms4, instanton, liealg, quad4, report

__version__ = "0.1.0"
