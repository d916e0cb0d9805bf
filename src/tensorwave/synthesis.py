"""Partial-wave synthesis, angular projection, and the homogeneous-sphere
boundary match.

A partial wave is one (l, m) term of the field expansion: a pair of
constant coefficient 2-vectors (c1, c2) over (e_theta, e_phi) attached to
two radial function kinds.  A set of waves travels as one columnar
`WaveTable`.  Fields are assembled as

    E(r, theta, phi) = sum_waves  F_lm(theta, phi) @ El(r)
    H(r, theta, phi) = sum_waves  F_lm(theta, phi) @ Hl(r)

where the tangential parts of El, Hl come from the closed-form radial
blocks and the radial parts from the longitudinal reconstruction.  Every
radial kind is a fixed combination of the pair (j_l, h1_l) from the table
`specfun._PAIR`, so each wave's (c1, c2) is mapped once onto that pair,
and one radial pass (`specfun._radial_pair`) builds j and h1 for every
distinct radius.  Each F_lm is a theta-part times e^{i m phi}, so
synthesis sorts the waves by order once and, in one vectorized pass over
the distinct (r, theta) rows, forms every wave's state and theta-parts
and sums them per order with one `np.add.reduceat`.  The phase stage
then sums over the orders without a pass per order: points on a product
grid of rows and angles phi take one `np.tensordot` into that (phi, row)
grid, scattered points one contraction point by point.  Waves go in
blocks of whole orders of bounded size, each with its own Legendre table
of just its orders.  Projection inverts this with the angular Gram
identity of F_lm: one sum over phi for every order at once, then one
contraction over the theta nodes of a quadrature sphere at fixed radius
for every mode, from one Legendre table per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .harmonics import QuadratureRule, _legendre_table, _theta_columns
from .maxwell_radial import (
    Medium,
    _as_k,
    _tangential,
    fundamental_matrix,
)
from .specfun import _PAIR, RadialKind, _check_theta, _f_and_d, _radial_pair

__all__ = [
    "KINDS",
    "WaveTable",
    "synthesize",
    "project_sampled",
    "recover_coefficients",
    "match_sphere",
]


KINDS = tuple(RadialKind)  # kind code i stands for KINDS[i]

# the most wave x row entries `synthesize` holds at once (a single order
# may hold more), at about 0.35 kB each
_BLOCK = 1 << 17


@dataclass(frozen=True, eq=False)
class WaveTable:
    """Partial waves as read-only columns, entry i belonging to wave i.

    `l`, `m` are integers of shape (W,) with 1 <= l and |m| <= l; `c` is
    complex of shape (W, 2, 2) holding (c1, c2), each a 2-vector on
    (e_theta, e_phi), on the radial kinds KINDS[kinds[i, 0]] and
    KINDS[kinds[i, 1]] of the integer codes `kinds`, shape (W, 2).
    """

    l: np.ndarray
    m: np.ndarray
    c: np.ndarray
    kinds: np.ndarray

    def __post_init__(self):
        l, m, c, kinds = map(np.asarray, (self.l, self.m, self.c, self.kinds))
        n = len(l) if l.ndim == 1 else -1
        if m.shape != (n,) or not all(v.dtype.kind in "iu" or not v.size
                                      for v in (l, m, kinds)):
            raise ValueError("mode indices l, m must be integer arrays of shape (W,)")
        if c.shape != (n, 2, 2):
            raise ValueError("c1 and c2 must be 2-vectors on (e_theta, e_phi)")
        if kinds.shape != (n, 2) or np.any((kinds < 0) | (kinds >= len(KINDS))):
            raise ValueError("kinds must be a pair of RadialKind codes")
        low, wide = l < 1, np.abs(m) > l
        if np.any(low | wide):  # the first faulty wave
            i = np.argmax(low | wide)
            raise ValueError(
                f"|m| <= l required, got l={l[i]}, m={m[i]}" if not low[i] else
                "partial waves need l >= 1; the (0,0) harmonic carries no "
                "transverse field"
            )
        for name, v, dtype in zip(("l", "m", "c", "kinds"), (l, m, c, kinds),
                                  (int, int, complex, int)):
            v = v.astype(dtype)
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    def __len__(self) -> int:
        return len(self.l)


def _pair_tables(waves: WaveTable, k: float, radii, med: Medium) -> tuple:
    """The waves on the (j, h1) pair, and that pair at x = n k r for all radii.

    Every kind is a j_l + b h1_l with (a, b) = `_PAIR[kind][0]`, as
    Im(n k r) >= 0, so a wave with coefficients (c1, c2) on its kinds
    (K1, K2) has (a1 c1 + a2 c2, b1 c1 + b2 c2) on (j, h1).  Returns those
    as an array of shape (len(waves), 4) and, for j then h1, (f, d(x f)/dx
    / r) over [l, radius] from one `_radial_pair`.  A part runs to the
    largest l of a wave whose kinds use it; a part no wave uses is a
    single row of zeros.
    """
    ab = np.array([_PAIR[kind][0] for kind in KINDS], dtype=complex)[waves.kinds]
    tops = [waves.l[used].max(initial=-1) for used in (ab != 0).any(axis=1).T]
    xs = med.n * k * np.asarray(radii, dtype=complex)
    t, *parts = _radial_pair(xs, [(top, top) for top in tops])
    tables = []
    for name, part in zip(("bessel_j", "hankel1"), parts):
        if part is None:
            tables.append(np.zeros((2, 1, len(xs))))
            continue
        seq = part[1] * np.exp(1j * t * xs) if name == "hankel1" else part[1]
        f, d = _f_and_d(name, xs, seq)
        tables.append((f, d / radii))
    return np.einsum("wkp,wkc->wpc", ab, waves.c).reshape(-1, 4), tables


def synthesize(waves: WaveTable, k, med: Medium, points) -> tuple:
    """Evaluate the summed field of `waves` at the given (r, theta, phi) points.

    `waves` is a WaveTable; `points` is an (N, 3) array-like of finite
    positions with r > 0 and theta in [0, pi]; the medium is homogeneous
    (layered problems are synthesized region by region with the
    coefficient sets belonging to each region).  Returns (e, h), the full
    E and H vectors in the local spherical frame: complex arrays of shape
    (N, 3) in input order.  A radial value past the double range raises
    OverflowError naming the sequence it came from, bessel_j or hankel1,
    and a field past it OverflowError naming the first such point.
    Waves go in blocks of whole orders of at most `_BLOCK` wave x row
    entries, so memory stays bounded.
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
    _check_theta(pts[:, 1])
    # distinct (r, theta) rows, keyed as the complex numbers r + i theta
    keys, row_of = np.unique(
        np.ascontiguousarray(pts[:, :2]).view(complex).ravel(), return_inverse=True
    )
    rows = np.column_stack([keys.real, keys.imag])
    radii, radius_of = np.unique(rows[:, 0], return_inverse=True)
    phis, phi_of = np.unique(pts[:, 2], return_inverse=True)
    # points on a product grid of rows and angles phi take the phase sum
    # on that (phi, row) grid, scattered points one by one
    grid = len(rows) * len(phis) <= 2 * len(pts)
    out = np.zeros((len(phis), 6, len(rows)) if grid else (len(pts), 6), dtype=complex)
    by_order = np.lexsort((waves.m, np.abs(waves.m)))
    ls, ms = waves.l[by_order], waves.m[by_order]
    # the first wave of each order, and of each block of whole orders
    starts = np.flatnonzero(np.diff(ms, prepend=ms[:1] - 1))
    blocks = []
    for a, b in zip(starts, [*starts[1:], len(ms)]):
        if not blocks or (b - blocks[-1]) * len(rows) > _BLOCK:
            blocks.append(a)
    edges = [*blocks, len(ms)]
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs, tables = _pair_tables(waves, k, radii, med)
        coeffs = coeffs[by_order]
        for a, b in zip(edges, edges[1:]):
            l, m = ls[a:b], ms[a:b]
            first = starts[(starts >= a) & (starts < b)]
            # the state W = u / r of every wave on every row, as
            # `_tangential` at r = 1 from (f, d / r) of j and h1
            w = _tangential(
                *(v[np.minimum(l, len(v) - 1)[:, None], radius_of]
                  for f_d in tables for v in f_d),
                k, 1.0, med, coeffs[a:b, None],
            )
            lo, hi = max(abs(int(m[0])) - 1, 0), abs(int(m[-1])) + 1
            y, xt, xp = _theta_columns(
                l, m, _legendre_table(int(l.max()), rows[:, 1], lo, hi)
            )
            # F @ (v_r, p, q) = (Y v_r, X_theta p - X_phi q, X_phi p +
            # X_theta q) for E = (E_r, W_2, W_3) and H = (H_r, W_0, W_1) of
            # every wave into one buffer, summed per order.  Y takes the
            # factor sqrt(l(l+1)) / (k r) of `longitudinal_components`:
            # E_r = -Y' W_0 / eps, H_r = Y' W_2 / mu
            y = y * (np.sqrt(l * (l + 1.0))[:, None] / (k * rows[:, 0]))
            xt = xt.astype(complex)  # else each product casts it anew
            f = np.empty((b - a, 6, len(rows)), dtype=complex)
            for i, (c, v, p, q) in enumerate(((-1 / med.eps, w[0], w[2], w[3]),
                                              (1 / med.mu, w[2], w[0], w[1]))):
                np.multiply(y * c, v, out=f[:, 3 * i])
                np.subtract(xt * p, xp * q, out=f[:, 3 * i + 1])
                np.add(xp * p, xt * q, out=f[:, 3 * i + 2])
            sums = np.add.reduceat(f, first - a)
            phase = np.exp(1j * ms[first, None] * phis)
            if grid:
                out += np.tensordot(phase, sums, axes=(0, 0))
            else:
                step = max(1, _BLOCK // len(first))
                for i in range(0, len(pts), step):
                    at = slice(i, i + step)
                    out[at] += np.einsum("mcp,mp->pc", sums[:, :, row_of[at]],
                                         phase[:, phi_of[at]])
    if grid:
        out = out[phi_of, :, row_of]
    bad = ~np.isfinite(out).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise OverflowError(
            f"the field at point {i} (r, theta, phi) = {tuple(pts[i].tolist())} "
            "leaves the double range"
        )
    return out[:, :3], out[:, 3:]


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
