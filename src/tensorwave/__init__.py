"""Rank-2 tensor spherical harmonics and radial Maxwell solutions.

The package builds the tensor harmonic family F_lm from the scalar
harmonics Y_lm and transverse vector harmonics X_lm, provides the
quadrature machinery that realizes their orthonormality, solves the
first-order radial system the Maxwell equations separate into, and
assembles, projects and boundary-matches full vector fields from
partial waves.
"""

from .harmonics import (
    QuadratureRule,
    flm,
    flm_explicit,
    l_dot_er_cross_xlm_residual,
    l_dot_xlm_residual,
    l_squared_check,
    lz_check,
    xlm,
)
from .maxwell_radial import (
    Medium,
    RadialProfile,
    fundamental_matrix,
    longitudinal_components,
    propagate,
    radial_flux,
    system_matrix,
    wtheta_ode_residual,
)
from .specfun import (
    ModeIndex,
    RadialKind,
    ladder_minus,
    ladder_plus,
    spherical_radial_seq,
    ylm,
)
from .synthesis import (
    KINDS,
    WaveTable,
    match_sphere,
    project_sampled,
    recover_coefficients,
    synthesize,
)
from .tensor3 import (
    E_PHI,
    E_R,
    E_THETA,
    IDENTITY,
    adjoint,
    det,
    dual,
    dyad,
    trace,
)

__version__ = "0.1.0"

__all__ = [
    "QuadratureRule",
    "flm",
    "flm_explicit",
    "l_dot_er_cross_xlm_residual",
    "l_dot_xlm_residual",
    "l_squared_check",
    "lz_check",
    "xlm",
    "Medium",
    "RadialProfile",
    "fundamental_matrix",
    "longitudinal_components",
    "propagate",
    "radial_flux",
    "system_matrix",
    "wtheta_ode_residual",
    "ModeIndex",
    "RadialKind",
    "ladder_minus",
    "ladder_plus",
    "spherical_radial_seq",
    "ylm",
    "KINDS",
    "WaveTable",
    "match_sphere",
    "project_sampled",
    "recover_coefficients",
    "synthesize",
    "E_PHI",
    "E_R",
    "E_THETA",
    "IDENTITY",
    "adjoint",
    "det",
    "dual",
    "dyad",
    "trace",
    "__version__",
]
