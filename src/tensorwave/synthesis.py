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
and one radial pass (`maxwell_radial._pair_seqs`, the builder every
radial basis shares) makes j and h1 for every distinct radius.  Each
F_lm is a theta-part times e^{i m phi}, so synthesis and projection both
walk the modes in blocks of whole orders of bounded size
(`_order_blocks`).  Synthesis, in one vectorized pass over the distinct
(r, theta) rows, forms every wave's state and theta-parts and sums them
per order with one `np.add.reduceat`.  The phase stage then sums over
the orders without a pass per order: points on a product grid of rows
and angles phi take one `np.tensordot` into that (phi, row) grid,
scattered points one contraction point by point.  Projection inverts
this with the angular Gram identity of F_lm: one sum over phi for every
order at once, then one contraction over the theta nodes of a
quadrature sphere at fixed radius for every mode, from one Legendre
recurrence per block of whole orders, in two rows per order it reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .harmonics import QuadratureRule
from .maxwell_radial import (
    Medium,
    _as_k,
    _coefficients,
    _pair_at,
    _pair_seqs,
    _tangential,
)
from .specfun import _PAIR, _SMALL, RadialKind, _check_theta, _theta_columns

__all__ = [
    "KINDS",
    "WaveTable",
    "synthesize",
    "project_sampled",
    "recover_coefficients",
    "match_sphere",
]


KINDS = tuple(RadialKind)  # kind code i stands for KINDS[i]

# the most mode x angle entries of a block of whole orders (one order may
# hold more): about 0.23 kB each in `synthesize`, 0.13 kB in `project_sampled`
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


def _order_blocks(l, m, theta):
    """The modes (l, m) sorted by (|m|, m) in blocks of whole orders of at most
    `_BLOCK` mode x angle entries (one order may hold more): per block its
    indices into l and m, each order's first offset in it, and its `_theta_columns`."""
    by_order = np.lexsort((m, np.abs(m)))
    starts = np.flatnonzero(np.diff(m[by_order], prepend=np.nan))
    blocks = []
    for a, b in zip(starts, [*starts[1:], len(m)]):
        if not blocks or (b - blocks[-1]) * len(theta) > _BLOCK:
            blocks.append(a)
    for a, b in zip(blocks, [*blocks[1:], len(m)]):
        at = by_order[a:b]
        first = starts[(starts >= a) & (starts < b)] - a
        yield at, first, _theta_columns(l[at], m[at], theta)


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
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # every kind is a j_l + b h1_l with (a, b) = `_PAIR[kind]`, as
        # Im(n k r) >= 0, so a wave's (c1, c2) on its kinds (K1, K2) is (a1
        # c1 + a2 c2, b1 c1 + b2 c2) on (j, h1), and each of j and h1 runs
        # to the largest l of a wave whose kinds use it
        ab = np.array([_PAIR[kind] for kind in KINDS], dtype=complex)[waves.kinds]
        coeffs = np.einsum("wkp,wkc->wpc", ab, waves.c).reshape(-1, 4)
        tops = [waves.l[used].max(initial=-1) for used in (ab != 0).any(axis=1).T]
        xs = med.n * k * np.asarray(radii, dtype=complex)
        tables = [(f, d / radii) for f, d in _pair_seqs(xs, tops)]
        # below `_SMALL` only j is finite, 1/(k r) may overflow and x j_l
        # underflow, so d(r j_l)/dr / r and the E_r, H_r factor f / (k r)
        # come from n j_l(x) / x = n j_{l-1}(x) / (2l+1) of the series there
        small = np.abs(xs) < _SMALL
        near = small[radius_of] & (tops[0] > 0)  # the rows at those radii
        if near.any():
            lj = np.arange(1.0, tops[0] + 1)[:, None]
            j_x = med.n * tables[0][0][:-1] / (2 * lj + 1)
            tables[0][1][1:, small] = k * ((lj + 1) * j_x)[:, small]
        for at, first, (y, xt, xp) in _order_blocks(waves.l, waves.m, rows[:, 1]):
            l, m, c_at = waves.l[at], waves.m[at], coeffs[at]
            # the state W = u / r of every wave on every row, as
            # `_tangential` at r = 1 from (f, d / r) of j and h1
            w = _tangential(
                *(v[np.minimum(l, len(v) - 1)[:, None], radius_of]
                  for f_d in tables for v in f_d),
                k, 1.0, med, c_at[:, None],
            )
            # F @ (v_r, p, q) = (Y v_r, X_theta p - X_phi q, X_phi p +
            # X_theta q) for E = (E_r, W_2, W_3) and H = (H_r, W_0, W_1) of
            # every wave into one buffer, summed per order.  Y takes the
            # factor sqrt(l(l+1)) / (k r) of `longitudinal_components`:
            # E_r = -Y' W_0 / eps, H_r = Y' W_2 / mu
            root = np.sqrt(l * (l + 1.0))[:, None]
            y, y_near = y * (root / (k * rows[:, 0])), y[:, near] * root
            xt = xt.astype(complex)  # else each product casts it anew
            f = np.empty((len(at), 6, len(rows)), dtype=complex)
            for i, (c, v, p, q) in enumerate(((-1 / med.eps, w[0], w[2], w[3]),
                                              (1 / med.mu, w[2], w[0], w[1]))):
                np.multiply(y * c, v, out=f[:, 3 * i])
                np.subtract(xt * p, xp * q, out=f[:, 3 * i + 1])
                np.add(xp * p, xt * q, out=f[:, 3 * i + 2])
                if near.any():  # v / (k r) = n j_l(x) / x times the j coefficient
                    f[:, 3 * i][:, near] = (y_near * c * j_x[l - 1][:, radius_of[near]]
                                            * c_at[:, i, None])
            sums = np.add.reduceat(f, first)
            phase = np.exp(1j * m[first, None] * phis)
            if grid:
                out += np.tensordot(phase, sums, axes=(0, 0))
            else:
                step = max(1, _BLOCK // len(first))
                for i in range(0, len(pts), step):
                    chunk = slice(i, i + step)
                    out[chunk] += np.einsum("mcp,mp->pc", sums[:, :, row_of[chunk]],
                                            phase[:, phi_of[chunk]])
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
    radius, in the order of `modes`.  A sample that is not finite raises
    ValueError, a projection past the double range OverflowError naming
    the first such mode.  Blocks of whole orders bound its memory: 128 MB
    (tracemalloc) for every mode l <= 352, the CLI's largest grid.
    """
    nt, nphi = len(rule.cos_nodes), rule.n_phi
    e_grid = np.asarray(e_grid, dtype=complex)
    h_grid = np.asarray(h_grid, dtype=complex)
    if e_grid.shape != (nt, nphi, 3) or h_grid.shape != (nt, nphi, 3):
        raise ValueError(
            f"field grids must have shape ({nt}, {nphi}, 3) matching the rule"
        )
    for name, grid in (("e_grid", e_grid), ("h_grid", h_grid)):
        if not np.isfinite(grid).all():
            at = tuple(np.argwhere(~np.isfinite(grid))[0].tolist())
            raise ValueError(f"{name} must be finite, got {grid[at]} at {at}")
    modes = list(modes)
    ls = np.array([mode.l for mode in modes], dtype=int)
    ms = np.array([mode.m for mode in modes], dtype=int)
    orders, order_of = np.unique(ms, return_inverse=True)
    w = rule.weights[:, None] * (2.0 * math.pi / nphi)
    phase = np.exp(-1j * orders[:, None] * rule.phis)
    hls, els = out = np.empty((2, len(modes), 3), dtype=complex)

    def dot(a, b):
        return np.einsum("it,it->i", a, b)

    with np.errstate(over="ignore", invalid="ignore"):
        # one phi transform for every order, then per block of whole orders
        # one theta contraction with F^H, F with (Y*, X_theta*, -X_phi*) =
        # (Y, X_theta, X_phi) as Y and X_theta are real and X_phi imaginary
        vs = [w * np.tensordot(phase, grid, axes=(1, 1)) for grid in (h_grid, e_grid)]
        for at, _, (y, xt, xp) in _order_blocks(ls, ms, rule.thetas):
            for o, v in zip(out, vs):
                v_r, v_t, v_p = np.moveaxis(v[order_of[at]], -1, 0)
                o[at] = np.stack([dot(y, v_r), dot(xt, v_t) - dot(xp, v_p),
                                  dot(xp, v_t) + dot(xt, v_p)], axis=-1)
    _require_finite(modes, OverflowError, "the projection onto mode {} leaves the "
                    "double range", hls, els)
    return hls, els


def _require_finite(modes, error, message: str, *values) -> None:
    """Raise error(message.format((l, m))) of the first mode with a non-finite row."""
    bad = ~np.isfinite(np.column_stack(values)).all(axis=1)
    if bad.any():
        mode = modes[int(np.argmax(bad))]
        raise error(message.format((mode.l, mode.m)))


def recover_coefficients(
    hl,
    el,
    modes,
    k,
    r: float,
    med: Medium,
    kinds: tuple,
):
    """Read each mode's (c1, c2) off its tangential state at radius r.

    `hl`, `el` are the (len(modes), 3) arrays `project_sampled` returns
    for `modes`; only their tangential parts enter (the radial parts are
    determined by them and serve as a consistency check elsewhere).
    `_coefficients` reads the (j, h1) coefficients (v_j, v_h1) off the
    state, and the inverse of the kinds' `_PAIR` weights maps them onto
    the kinds: c1 = (b2 v_j - a2 v_h1) / P, c2 = (a1 v_h1 - b1 v_j) / P,
    P = a1 b2 - a2 b1.  Returns (c1, c2), (len(modes), 2) arrays in mode order.
    One kind twice, a singular basis, or a value of `hl`, `el` that is not
    finite raises ValueError; a mode whose coefficients leave the double
    range, OverflowError."""
    if kinds[0] is kinds[1]:
        raise ValueError(
            f"kinds must name two different kinds, got {kinds[0].value} twice"
        )
    ls = np.array([mode.l for mode in modes])
    hl, el = (np.asarray(v, dtype=complex) for v in (hl, el))
    _require_finite(modes, ValueError, "hl and el of mode {} must be finite", hl, el)
    k, pair = _pair_at(ls, k, r, med)
    (a1, b1), (a2, b2) = (_PAIR[kind] for kind in kinds)
    p = a1 * b2 - a2 * b1
    with np.errstate(over="ignore", invalid="ignore"):
        u = r * np.stack([hl[:, 1], hl[:, 2], el[:, 1], el[:, 2]])
        v_j, v_h1 = np.split(_coefficients(*pair, k, r, med, u), 2, axis=1)
        c1, c2 = (b2 * v_j - a2 * v_h1) / p, (a1 * v_h1 - b1 * v_j) / p
    _require_finite(modes, OverflowError, f"mode {{}} at r={r} leaves the double range",
                    c1, c2)
    return c1, c2


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

        d u_i = u[J](c) + u[H1](s)

    where c is `incident_c1`, the (e_theta, e_phi) coefficients of the
    regular incident wave, u_i the interior regular wave's state and u[K]
    the host's state of kind K.  So matching is recovery: `_coefficients`
    of the host (j, h1) reads (v_j, v_h1) off u_i: s = c v_h1 / v_j,
    d = c e^{ix} / v_j, with u_i from e^{ix} j_l at the interior argument
    x, finite for Im x >= 0: d is 0 below the double range, and only the
    host's j_l, h1_l overflow.  Returns (scattered, interior), arrays of
    shape (lmax, 2) whose row l - 1 holds the Hankel-1 coefficients of the
    scattered wave and the Bessel-j coefficients of the interior wave of
    degree l.  A non-finite `incident_c1` raises ValueError; a coefficient
    that leaves the double range, OverflowError naming the first such l.
    """
    if lmax < 1:
        raise ValueError(f"lmax must be >= 1 (matching needs l >= 1), got {lmax}")
    if radius <= 0:
        raise ValueError("sphere radius must be positive")
    c = np.asarray(incident_c1, dtype=complex)
    if c.shape != (2,):
        raise ValueError("incident_c1 must be a 2-vector on (e_theta, e_phi)")
    if not np.isfinite(c).all():
        raise ValueError(f"incident_c1 must be finite, got {c.tolist()}")

    ls = np.arange(1, lmax + 1)
    k, pair = _pair_at(ls, k, radius, host)
    x = sphere.n * k * radius
    (f, d), _ = _pair_seqs(np.array([x]), (lmax, -1), scaled=True)
    u_i = _tangential(f[ls, 0], d[ls, 0], 0, 0, k, radius, sphere, [1, 1, 0, 0])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        v = _coefficients(*pair, k, radius, host, u_i)
        scattered, interior = c * v[:, 2:] / v[:, :2], c * np.exp(1j * x) / v[:, :2]
    bad = np.flatnonzero(~np.isfinite(np.hstack([scattered, interior])))  # 4 per l
    if bad.size:
        l, part = bad[0] // 4 + 1, ("scattered", "interior")[bad[0] % 4 // 2]
        raise OverflowError(f"the {part} coefficient of l={l} leaves the double range")
    return scattered, interior
