"""Bivariate polynomial-expansion densities and their correlation structure.

Construct joints f1(x) f2(y) (1 + sum_n rho_n phi_n(x) psi_n(y)) from
marginals with bounded support, verify their regression and spectral
identities, and estimate maximal correlation three independent ways
(closed form, kernel SVD, alternating conditional expectations).

The public names are those of each module's ``__all__``, re-exported here.
"""

from . import correlation, lancaster, orthopoly, quadrature, regression
from .correlation import *  # noqa: F401,F403
from .lancaster import *  # noqa: F401,F403
from .orthopoly import *  # noqa: F401,F403
from .quadrature import *  # noqa: F401,F403
from .regression import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for module in (correlation, lancaster, orthopoly, quadrature, regression) for name in module.__all__]
