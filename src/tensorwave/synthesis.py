"""Partial-wave synthesis, angular projection, multipole amplitudes, and
the homogeneous-sphere boundary match.

A partial wave is one (l, m) term of the field expansion: a pair of
constant coefficient 2-vectors (c1, c2) over (e_theta, e_phi) attached to
two radial function kinds.  Fields are assembled as

    E(r, theta, phi) = sum_waves  F_lm(theta, phi) @ El(r)
    H(r, theta, phi) = sum_waves  F_lm(theta, phi) @ Hl(r)

where the tangential parts of El, Hl come from the closed-form radial
blocks and the radial parts from the longitudinal reconstruction.  Each
F_lm is a theta-part times e^{i m phi}, so synthesis sums over l at each
m on the distinct (r, theta) rows and then over m with the phase at each
point.  Projection inverts this with the angular Gram identity of F_lm:
for each m one sum over phi, then one contraction over the theta nodes of
a quadrature sphere at fixed radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .harmonics import QuadratureRule, _f_apply, _theta_columns
from .maxwell_radial import (
    Medium,
    _as_k,
    _basis,
    fundamental_matrix,
    longitudinal_components,
)
from .specfun import ModeIndex, RadialKind, spherical_radial_seq

__all__ = [
    "PartialWave",
    "FieldSample",
    "MultipoleAmplitudes",
    "synthesize",
    "project_sampled",
    "recover_coefficients",
    "multipole_amplitudes",
    "match_sphere",
]


@dataclass(frozen=True, eq=False)
class PartialWave:
    """Coefficients (c1, c2) and radial kinds of a single (l, m) wave."""

    mode: ModeIndex
    c1: np.ndarray
    c2: np.ndarray
    kinds: tuple

    def __post_init__(self):
        if self.mode.l < 1:
            raise ValueError(
                "partial waves need l >= 1; the (0,0) harmonic carries no "
                "transverse field"
            )
        for name in ("c1", "c2"):
            v = np.array(getattr(self, name), dtype=complex)
            if v.shape != (2,):
                raise ValueError(f"{name} must be a 2-vector on (e_theta, e_phi)")
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        kinds = tuple(self.kinds)
        if len(kinds) != 2 or not all(isinstance(kk, RadialKind) for kk in kinds):
            raise ValueError("kinds must be a pair of RadialKind values")
        object.__setattr__(self, "kinds", kinds)


@dataclass(frozen=True, eq=False)
class FieldSample:
    """Full E, H vectors in the local spherical frame at one point."""

    r: float
    theta: float
    phi: float
    e: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError("field samples require r > 0")
        for name in ("e", "h"):
            v = np.array(getattr(self, name), dtype=complex)
            if v.shape != (3,):
                raise ValueError(f"{name} must have shape (3,)")
            v.setflags(write=False)
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class MultipoleAmplitudes:
    """Electric/magnetic multipole strengths keyed by (l, m)."""

    a_e: dict = field(default_factory=dict)
    a_m: dict = field(default_factory=dict)


def _radial_tables(kind_l, k: float, radii, med: Medium) -> dict:
    """(f_l, d(x f_l)/dx) at x = n k r for each kind, one sequence per radius.

    `kind_l` yields (kind, l) pairs; each kind's table runs to the largest
    l paired with it, so no kind is evaluated past the entries in use.
    Returns {kind: array of shape (len(radii), 2, lmax + 1)}.
    """
    lmax: dict = {}
    for kind, l in kind_l:
        lmax[kind] = max(lmax.get(kind, 0), l)
    xs = med.n * k * np.asarray(radii)
    return {
        kind: np.array([spherical_radial_seq(kind, top, x) for x in xs])
        for kind, top in lmax.items()
    }


def _radial_vectors(wave: PartialWave, k: float, med: Medium, radii, tables):
    """(Hl, El) full 3-vectors of one wave, arrays of shape (len(radii), 3)."""
    l = wave.mode.l
    (f1, d1), (f2, d2) = (tables[kind][:, :, l].T for kind in wave.kinds)
    u = _basis(f1, d1, f2, d2, k, radii, med) @ np.concatenate([wave.c1, wave.c2])
    w = u / radii[:, None]
    e_r, h_r = longitudinal_components(l, k, radii, med, w)
    return (
        np.column_stack([h_r, w[:, 0], w[:, 1]]),
        np.column_stack([e_r, w[:, 2], w[:, 3]]),
    )


def _by_order(modes) -> dict:
    """Indices of `modes` grouped by m, in increasing m."""
    groups: dict = {}
    for i, mode in enumerate(modes):
        groups.setdefault(mode.m, []).append(i)
    return dict(sorted(groups.items()))


def synthesize(waves, k, med: Medium, points) -> list:
    """Evaluate the summed field of `waves` at the given (r, theta, phi) points.

    `points` is an (N, 3) array-like of finite positions with r > 0 and
    theta in [0, pi]; the medium is homogeneous (layered problems are
    synthesized region by region with the coefficient sets belonging to
    each region).  Returns FieldSample objects in input order.
    """
    k = _as_k(k)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must be an (N, 3) array of (r, theta, phi)")
    bad = np.argwhere(~np.isfinite(pts))
    if len(bad):
        i, j = bad[0]
        raise ValueError(
            f"synthesis points must be finite; point {i} has "
            f"{('r', 'theta', 'phi')[j]} = {pts[i, j]}"
        )
    if np.any(pts[:, 0] <= 0):
        raise ValueError("synthesis points require r > 0")
    waves = list(waves)
    n = len(pts)
    e_out = np.zeros((n, 3), dtype=complex)
    h_out = np.zeros((n, 3), dtype=complex)
    rows, row_of = np.unique(pts[:, :2], axis=0, return_inverse=True)
    radii, radius_of = np.unique(rows[:, 0], return_inverse=True)
    phis, phi_of = np.unique(pts[:, 2], return_inverse=True)
    tables = _radial_tables(
        ((kind, w.mode.l) for w in waves for kind in w.kinds), k, radii, med
    )
    for m, group in _by_order([w.mode for w in waves]).items():
        lmax = max(waves[i].mode.l for i in group)
        cols = _theta_columns(m, lmax, rows[:, 1])
        h_rows = np.zeros((len(rows), 3), dtype=complex)
        e_rows = np.zeros((len(rows), 3), dtype=complex)
        for i in group:
            f = [c[waves[i].mode.l - abs(m)] for c in cols]
            hl, el = _radial_vectors(waves[i], k, med, radii, tables)
            h_rows += _f_apply(*f, hl[radius_of])
            e_rows += _f_apply(*f, el[radius_of])
        phase = np.exp(1j * m * phis)[phi_of, None]
        h_out += h_rows[row_of.ravel()] * phase
        e_out += e_rows[row_of.ravel()] * phase
    return [
        FieldSample(pts[i, 0], pts[i, 1], pts[i, 2], e_out[i], h_out[i])
        for i in range(n)
    ]


def project_sampled(
    e_grid: np.ndarray,
    h_grid: np.ndarray,
    modes,
    rule: QuadratureRule,
):
    """Project field values sampled on the rule's (theta, phi) grid.

    `e_grid`, `h_grid` have shape (n_theta, n_phi, 3) in the local frame;
    `modes` is a list of ModeIndex.  Returns (Hl, El), arrays of shape
    (len(modes), 3) holding each mode's radial 3-vectors at the sampling
    radius, in the order of `modes`.
    """
    nt, nphi = len(rule.cos_nodes), rule.n_phi
    e_grid = np.asarray(e_grid, dtype=complex)
    h_grid = np.asarray(h_grid, dtype=complex)
    if e_grid.shape != (nt, nphi, 3) or h_grid.shape != (nt, nphi, 3):
        raise ValueError(
            f"field grids must have shape ({nt}, {nphi}, 3) matching the rule"
        )
    modes = list(modes)
    hl = np.zeros((len(modes), 3), dtype=complex)
    el = np.zeros((len(modes), 3), dtype=complex)
    w = rule.weights[:, None] * (2.0 * math.pi / nphi)
    for m, group in _by_order(modes).items():
        cols = _theta_columns(m, max(modes[i].l for i in group), rule.thetas)
        rows = [modes[i].l - abs(m) for i in group]
        # F^H has the same form as F with (Y*, X_theta*, -X_phi*)
        y, x_theta, x_phi = (c[rows].conj() for c in cols)
        phase = np.exp(-1j * m * rule.phis)
        for grid, out in ((h_grid, hl), (e_grid, el)):
            g = w * np.tensordot(phase, grid, axes=(0, 1))
            out[group] = _f_apply(y, x_theta, -x_phi, g).sum(axis=1)
    return hl, el


def recover_coefficients(
    hl,
    el,
    modes,
    k,
    r: float,
    med: Medium,
    kinds: tuple,
):
    """Invert the radial solution basis at radius r for each mode's (c1, c2).

    `hl`, `el` are the (len(modes), 3) arrays `project_sampled` returns
    for `modes`; only their tangential parts enter (the radial parts are
    determined by them and serve as a consistency check elsewhere).
    Returns (c1, c2), arrays of shape (len(modes), 2) in the order of
    `modes`.
    """
    k = _as_k(k)
    if not r > 0:
        raise ValueError("r must be positive")
    ls = np.array([mode.l for mode in modes])
    if np.any(ls < 1):
        raise ValueError("transverse solutions need l >= 1")
    hl = np.asarray(hl, dtype=complex)
    el = np.asarray(el, dtype=complex)
    u = r * np.column_stack([hl[:, 1], hl[:, 2], el[:, 1], el[:, 2]])
    tables = _radial_tables(((kind, int(ls.max())) for kind in kinds), k, [r], med)
    (f1, d1), (f2, d2) = (tables[kind][0][:, ls] for kind in kinds)
    try:
        c = np.linalg.solve(_basis(f1, d1, f2, d2, k, r, med), u[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"radial basis {kinds} is degenerate at r={r}; cannot recover "
            "coefficients"
        ) from exc
    return c[:, 0:2], c[:, 2:4]


def multipole_amplitudes(waves) -> MultipoleAmplitudes:
    """Read off a_E = c1 . e_theta and a_M = c1 . e_phi per mode.

    Requires every wave to be in multipole form: outgoing Hankel-1 first
    kind and c2 = 0.  Duplicate modes are rejected.
    """
    a_e: dict = {}
    a_m: dict = {}
    for wave in waves:
        key = (wave.mode.l, wave.mode.m)
        if key in a_e:
            raise ValueError(f"duplicate mode {key} in multipole set")
        if wave.kinds[0] is not RadialKind.HANKEL1:
            raise ValueError(
                f"mode {key}: multipole amplitudes need kind1 = hankel1, "
                f"got {wave.kinds[0].value}"
            )
        if np.any(wave.c2 != 0):
            raise ValueError(
                f"mode {key}: multipole amplitudes need c2 = 0 (pure outgoing)"
            )
        a_e[key] = complex(wave.c1[0])
        a_m[key] = complex(wave.c1[1])
    return MultipoleAmplitudes(a_e, a_m)


def match_sphere(
    l: int,
    k,
    sphere: Medium,
    host: Medium,
    radius: float,
    incident: PartialWave,
):
    """Match a regular incident wave on a homogeneous sphere of the given radius.

    Continuity of the tangential state u = r W at r = radius fixes the
    outgoing scattered coefficients s in the host and the regular interior
    ones d:

        Phi_i[J] d - Phi_h[H1] s = Phi_h[J] c

    where Phi_i[J] are the two regular columns of the interior solution
    basis and Phi_h[J], Phi_h[H1] the regular and outgoing columns of the
    host basis, all at r = radius.  Returns (scattered, interior)
    PartialWave objects; scattered carries Hankel-1, interior the regular
    Bessel kind, both with c2 = 0.
    """
    if l < 1:
        raise ValueError("sphere matching needs l >= 1")
    if radius <= 0:
        raise ValueError("sphere radius must be positive")
    k = _as_k(k)
    if incident.mode.l != l:
        raise ValueError(
            f"incident wave has l={incident.mode.l}, expected l={l}"
        )
    if incident.kinds[0] is not RadialKind.BESSEL_J or np.any(incident.c2 != 0):
        raise ValueError(
            "incident wave must be regular: kind1 = bessel_j and c2 = 0"
        )

    J, H1 = RadialKind.BESSEL_J, RadialKind.HANKEL1
    # the interior basis is (J, J): y_l of the interior argument is never
    # evaluated, so it cannot overflow where only j_l is needed
    phi_i = fundamental_matrix(l, J, J, k, radius, sphere)
    phi_h = fundamental_matrix(l, J, H1, k, radius, host)
    a = np.hstack([phi_i[:, :2], -phi_h[:, 2:]])
    try:
        sol = np.linalg.solve(a, phi_h[:, :2] @ incident.c1)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"singular matching matrix at l={l}, k={k}, radius={radius}"
        ) from exc

    scattered = PartialWave(
        incident.mode,
        sol[2:],
        np.zeros(2, dtype=complex),
        (RadialKind.HANKEL1, RadialKind.HANKEL2),
    )
    interior = PartialWave(
        incident.mode,
        sol[:2],
        np.zeros(2, dtype=complex),
        (RadialKind.BESSEL_J, RadialKind.BESSEL_Y),
    )
    return scattered, interior
