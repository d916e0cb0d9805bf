"""Rank-2 tensor spherical harmonics and radial Maxwell solutions.

The package builds the tensor harmonic family F_lm from the scalar
harmonics Y_lm and transverse vector harmonics X_lm, provides the
quadrature machinery that realizes their orthonormality, solves the
first-order radial system the Maxwell equations separate into, and
assembles, projects and boundary-matches full vector fields from
partial waves.
"""

from .harmonics import (
    AngularPoint,
    QuadratureRule,
    flm,
    flm_explicit,
    flm_grid,
    l_dot_er_cross_xlm_residual,
    l_dot_xlm_residual,
    l_squared_check,
    lz_check,
    ortho_matrix,
    xlm,
    xlm_grid,
)
from .maxwell_radial import (
    Medium,
    RadialProfile,
    TangentialState,
    fundamental_matrix,
    longitudinal_components,
    propagate,
    radial_flux,
    system_matrix,
    transfer_closed_form,
    wtheta_ode_residual,
)
from .specfun import (
    ModeIndex,
    RadialKind,
    ladder_minus,
    ladder_plus,
    spherical_radial,
    spherical_radial_seq,
    ylm,
)
from .synthesis import (
    FieldSample,
    MultipoleAmplitudes,
    PartialWave,
    match_sphere,
    multipole_amplitudes,
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
    "AngularPoint",
    "QuadratureRule",
    "flm",
    "flm_explicit",
    "flm_grid",
    "l_dot_er_cross_xlm_residual",
    "l_dot_xlm_residual",
    "l_squared_check",
    "lz_check",
    "ortho_matrix",
    "xlm",
    "xlm_grid",
    "Medium",
    "RadialProfile",
    "TangentialState",
    "fundamental_matrix",
    "longitudinal_components",
    "propagate",
    "radial_flux",
    "system_matrix",
    "transfer_closed_form",
    "wtheta_ode_residual",
    "ModeIndex",
    "RadialKind",
    "ladder_minus",
    "ladder_plus",
    "spherical_radial",
    "spherical_radial_seq",
    "ylm",
    "FieldSample",
    "MultipoleAmplitudes",
    "PartialWave",
    "match_sphere",
    "multipole_amplitudes",
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
