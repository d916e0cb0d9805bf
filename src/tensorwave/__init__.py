"""Rank-2 tensor spherical harmonics and radial Maxwell solutions.

The package builds the tensor harmonic family F_lm from the scalar
harmonics Y_lm and transverse vector harmonics X_lm, provides the
quadrature machinery that realizes their orthonormality, solves the
first-order radial system the Maxwell equations separate into, and
assembles, projects and boundary-matches full vector fields from
partial waves.
"""

from . import harmonics, maxwell_radial, specfun, synthesis, tensor3
from .harmonics import *  # noqa: F403
from .maxwell_radial import *  # noqa: F403
from .specfun import *  # noqa: F403
from .synthesis import *  # noqa: F403
from .tensor3 import *  # noqa: F403

__version__ = "0.1.0"

# each module's public names, re-exported
__all__ = [
    *harmonics.__all__,
    *maxwell_radial.__all__,
    *specfun.__all__,
    *synthesis.__all__,
    *tensor3.__all__,
    "__version__",
]
