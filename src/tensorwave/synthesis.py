"""Partial-wave synthesis, angular projection, multipole amplitudes, and
the homogeneous-sphere boundary match.

A partial wave is one (l, m) term of the field expansion: a pair of
constant coefficient 2-vectors (c1, c2) over (e_theta, e_phi) attached to
two radial function kinds.  Fields are assembled as

    E(r, theta, phi) = sum_waves  F_lm(theta, phi) @ El(r)
    H(r, theta, phi) = sum_waves  F_lm(theta, phi) @ Hl(r)

where the tangential parts of El, Hl come from the closed-form radial
blocks and the radial parts from the longitudinal reconstruction.  Every
radial kind is a fixed combination of the pair (j_l, h1_l) from the table
`specfun._PAIR`, so each wave's (c1, c2) is mapped once onto that pair and
only j and h1 are evaluated, each once for every distinct radius.  Each
F_lm is a theta-part times e^{i m phi}, so synthesis sums over l at each m
on the distinct (r, theta) rows and then over m with the phase at each
point.  Projection inverts this with the angular Gram identity of F_lm:
one sum over phi for every order at once, then one contraction over the
theta nodes of a quadrature sphere at fixed radius for every mode.  Both
slice the theta-parts of every mode from one Legendre table per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .harmonics import QuadratureRule, _legendre_table, _theta_columns
from .maxwell_radial import (
    Medium,
    _as_k,
    _tangential,
    fundamental_matrix,
    longitudinal_components,
)
from .specfun import _PAIR, ModeIndex, RadialKind, spherical_radial_seq

__all__ = [
    "PartialWave",
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


@dataclass(frozen=True)
class MultipoleAmplitudes:
    """Electric/magnetic multipole strengths keyed by (l, m)."""

    a_e: dict = field(default_factory=dict)
    a_m: dict = field(default_factory=dict)


def _pair_tables(waves, ls, k: float, radii, med: Medium) -> tuple:
    """The waves on the (j, h1) pair, and that pair at x = n k r for all radii.

    `ls` holds the degree of each wave.  Every kind is a j_l + b h1_l
    with (a, b) = `_PAIR[kind][0]`, as Im(n k r) >= 0, so a wave with
    coefficients (c1, c2) on its kinds (K1, K2) has (a1 c1 + a2 c2,
    b1 c1 + b2 c2) on (j, h1).  Returns those
    as an array of shape (len(waves), 4) and the radial values as one of
    shape (2, 2, lmax + 1, len(radii)): [part, (f, d(x f)/dx), l, radius]
    for the parts (j, h1).  A part runs to the largest l of a wave whose
    kinds use it and holds zeros past that; a part no wave uses is never
    evaluated.
    """
    ab = np.array([[_PAIR[kind][0] for kind in w.kinds] for w in waves],
                  dtype=complex).reshape(-1, 2, 2)
    c = np.array([[w.c1, w.c2] for w in waves]).reshape(-1, 2, 2)
    xs = med.n * k * np.asarray(radii)
    tables = np.zeros((2, 2, ls.max(initial=0) + 1, len(xs)), dtype=complex)
    for p, kind in enumerate((RadialKind.BESSEL_J, RadialKind.HANKEL1)):
        used = (ab[:, :, p] != 0).any(axis=1)
        if used.any():
            top = int(ls[used].max())
            tables[p, :, :top + 1] = spherical_radial_seq(kind, top, xs)
    return np.einsum("wkp,wkc->wpc", ab, c).reshape(-1, 4), tables


def _by_order(modes) -> dict:
    """Indices of `modes` grouped by m, in increasing m."""
    groups: dict = {}
    for i, mode in enumerate(modes):
        groups.setdefault(mode.m, []).append(i)
    return dict(sorted(groups.items()))


def synthesize(waves, k, med: Medium, points) -> tuple:
    """Evaluate the summed field of `waves` at the given (r, theta, phi) points.

    `points` is an (N, 3) array-like of finite positions with r > 0 and
    theta in [0, pi]; the medium is homogeneous (layered problems are
    synthesized region by region with the coefficient sets belonging to
    each region).  Returns (e, h), the full E and H vectors in the local
    spherical frame: complex arrays of shape (N, 3) in input order.
    A radial value past the double range raises OverflowError naming the
    sequence it came from, bessel_j or hankel1.
    """
    k = _as_k(k)
    try:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        ok = pts.ndim == 2 and pts.shape[1] == 3
    except TypeError:  # an entry that is no number, such as a dict
        ok = False
    if not ok:
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
    # distinct (r, theta) rows, keyed as the complex numbers r + i theta
    keys, row_of = np.unique(
        np.ascontiguousarray(pts[:, :2]).view(complex).ravel(), return_inverse=True
    )
    rows = np.column_stack([keys.real, keys.imag])
    radii, radius_of = np.unique(rows[:, 0], return_inverse=True)
    phis, phi_of = np.unique(pts[:, 2], return_inverse=True)
    all_ls = np.array([w.mode.l for w in waves], dtype=int)
    coeffs, tables = _pair_tables(waves, all_ls, k, radii, med)
    legendre = _legendre_table(all_ls.max(initial=0), rows[:, 1])
    for m, group in _by_order([w.mode for w in waves]).items():
        ls = all_ls[group]
        # (j, d_j, h1, d_h1) of every wave of order m at every radius, and
        # from them u = r W: shape (len(group), len(radii), 4)
        (j, dj), (h, dh) = tables[:, :, ls]
        u = _tangential(j, dj, h, dh, k, radii, med, coeffs[group][:, None])
        w = u[:, radius_of] / rows[:, 0, None]
        e_r, h_r = longitudinal_components(ls[:, None], k, rows[:, 0], med, w)
        y, xt, xp = _theta_columns(ls, m, legendre)
        phase = np.exp(1j * m * phis)[phi_of, None]
        # F @ (v_r, a, b) summed over the waves, one component at a time
        for out, v_r, a, b in ((h_out, h_r, w[..., 0], w[..., 1]),
                               (e_out, e_r, w[..., 2], w[..., 3])):
            sums = [(y * v_r).sum(0), (xt * a - xp * b).sum(0),
                    (xp * a + xt * b).sum(0)]
            out += np.stack(sums, axis=-1)[row_of] * phase
    return e_out, h_out


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
    ls = np.array([mode.l for mode in modes], dtype=int)
    ms = np.array([mode.m for mode in modes], dtype=int)
    orders, order_of = np.unique(ms, return_inverse=True)
    # F^H is F with (Y*, X_theta*, -X_phi*) = (Y, X_theta, X_phi), as Y
    # and X_theta are real and X_phi imaginary
    table = _legendre_table(ls.max(initial=0), rule.thetas)
    y, xt, xp = _theta_columns(ls, ms, table)
    w = rule.weights[:, None] * (2.0 * math.pi / nphi)
    phase = np.exp(-1j * orders[:, None] * rule.phis)

    def dot(a, b):
        return np.einsum("it,it->i", a, b)

    def project(grid):
        # one phi transform for every order, then one contraction over
        # the theta nodes for every mode
        v = (w * np.tensordot(phase, grid, axes=(1, 1)))[order_of]
        return np.stack([dot(y, v[..., 0]), dot(xt, v[..., 1]) - dot(xp, v[..., 2]),
                         dot(xp, v[..., 1]) + dot(xt, v[..., 2])], axis=-1)

    return project(h_grid), project(e_grid)


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
    ls = np.array([mode.l for mode in modes])
    hl = np.asarray(hl, dtype=complex)
    el = np.asarray(el, dtype=complex)
    u = r * np.column_stack([hl[:, 1], hl[:, 2], el[:, 1], el[:, 2]])
    phi = fundamental_matrix(ls, kinds[0], kinds[1], k, r, med)
    try:
        c = np.linalg.solve(phi, u[..., None])[..., 0]
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
    lmax: int,
    k,
    sphere: Medium,
    host: Medium,
    radius: float,
    incident_c1,
):
    """Match regular incident waves on a homogeneous sphere, every l at once.

    For each l = 1 .. lmax, continuity of the tangential state u = r W at
    r = radius fixes the outgoing scattered coefficients s in the host and
    the regular interior ones d:

        Phi_i[J] d - Phi_h[H1] s = Phi_h[J] c

    where c is `incident_c1`, the (e_theta, e_phi) coefficients of the
    regular incident wave (the same for every l), Phi_i[J] are the two
    regular columns of the interior solution basis and Phi_h[J], Phi_h[H1]
    the regular and outgoing columns of the host basis, all at r = radius.
    The lmax 4x4 systems are one batched solve.
    Returns (scattered, interior), arrays of shape (lmax, 2) whose row
    l - 1 holds the Hankel-1 coefficients of the scattered wave and the
    Bessel-j coefficients of the interior wave of degree l.
    """
    if lmax < 1:
        raise ValueError(f"lmax must be >= 1 (matching needs l >= 1), got {lmax}")
    if radius <= 0:
        raise ValueError("sphere radius must be positive")
    c = np.asarray(incident_c1, dtype=complex)
    if c.shape != (2,):
        raise ValueError("incident_c1 must be a 2-vector on (e_theta, e_phi)")

    J, H1 = RadialKind.BESSEL_J, RadialKind.HANKEL1
    ls = np.arange(1, lmax + 1)
    # the interior basis is (J, J): y_l of the interior argument is never
    # evaluated, so it cannot overflow where only j_l is needed
    phi_i = fundamental_matrix(ls, J, J, k, radius, sphere)
    phi_h = fundamental_matrix(ls, J, H1, k, radius, host)
    a = np.concatenate([phi_i[..., :2], -phi_h[..., 2:]], axis=-1)
    try:
        sol = np.linalg.solve(a, (phi_h[..., :2] @ c)[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"singular matching matrix at k={k}, radius={radius}"
        ) from exc
    return sol[:, 2:], sol[:, :2]
