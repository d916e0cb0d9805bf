"""Special functions: scalar spherical harmonics and spherical
Bessel/Hankel functions for complex arguments.

Conventions
-----------
Y_lm carries the Condon-Shortley phase and unit normalization over the
sphere, so the ladder relations

    L+ Y_lm = sqrt((l - m)(l + m + 1)) Y_{l,m+1}
    L- Y_lm = sqrt((l + m)(l - m + 1)) Y_{l,m-1}
    Lz Y_lm = m Y_lm

hold exactly, and Y_{l,-m} = (-1)^m conj(Y_lm).

The Legendre part is evaluated by the fully normalized forward recurrence
in l, `_norm_legendre`, stable for every |m| <= l at the orders handled
here: for any (l, m) pairs it runs once over their distinct orders, each
seeded from the double-factorial closed form of its sectoral term, in two
running rows, and returns each pair's theta-part of Y_lm, applying the
rule for negative m above.  `ylm` reads it alone; `_theta_columns`, the
harmonic table, reads it once on the orders m and m +- 1 for the
theta-parts of Y_lm and X_lm = L Y_lm / sqrt(l(l+1)) of any set of
modes, and `_parts` multiplies them by e^{i m phi}.  Spherical Bessel functions
come as whole sequences in l for an array of arguments at once, valid for
complex arguments.  An argument below the real axis is served by the
conjugate symmetry f(x) = conj(f*(conj x)), f* the kind with h1 and h2
swapped, so the recursions run in the upper half plane only, from one
pair: j_l by downward Miller recursion and h1_l, which decays there, by
upward recursion, both built by one `_radial_pair` pass that shares the
check of x and the split of 1/x.  Every kind is a fixed combination
a j_l + b h1_l of that pair, read from the one table `_PAIR`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "ModeIndex",
    "RadialKind",
    "ylm",
    "spherical_radial_seq",
]


@dataclass(frozen=True, order=True)
class ModeIndex:
    """Degree/order pair (l, m) with l >= 0 and |m| <= l."""

    l: int
    m: int

    def __post_init__(self):
        if not isinstance(self.l, (int, np.integer)) or not isinstance(
            self.m, (int, np.integer)
        ):
            raise ValueError("mode indices l, m must be integers")
        if self.l < 0:
            raise ValueError(f"l must be >= 0, got l={self.l}")
        if abs(self.m) > self.l:
            raise ValueError(f"|m| <= l required, got l={self.l}, m={self.m}")


class RadialKind(Enum):
    """Radial function families for the spherical wave equation."""

    BESSEL_J = "bessel_j"
    BESSEL_Y = "bessel_y"
    HANKEL1 = "hankel1"
    HANKEL2 = "hankel2"


@np.errstate(over="ignore", invalid="ignore")  # its callers name a non-finite value
def _norm_legendre(l, m, ct, st) -> np.ndarray:
    """The theta-part of Y_lm of each pair of the integer arrays l, m (one
    shape), of shape l.shape + ct.shape at cos(theta) = ct, sin(theta) = st:
    N P_l^|m|(ct) (-1)^m, N = sqrt((2l+1)/(4 pi) (l-|m|)!/(l+|m|)!), times
    (-1)^m where m < 0 and 0 where l < |m|.  One recurrence in l from the
    least order runs the distinct orders |m|, each from its sectoral seed,
    in two rows; a pair takes its value as the recurrence passes its l."""
    out = np.zeros(np.shape(l) + np.shape(ct))
    flat, ls, ms = out.reshape((-1,) + np.shape(ct)), np.ravel(l), np.ravel(m)
    at = np.flatnonzero(ls >= np.abs(ms))
    at = at[np.argsort(ls[at], kind="stable")]  # the pairs with a value, by degree
    orders, row = np.unique(np.abs(ms[at]), return_inverse=True)
    flip = at[(ms[at] < 0) & (ms[at] % 2 == 1)]  # Y_{l,-m} = (-1)^m conj(Y_lm)
    mm = orders.reshape((-1,) + (1,) * np.ndim(ct)) ** 2  # then the angle axes
    ends = np.searchsorted(ls[at], np.arange(ls[at].max(initial=-1) + 2)).tolist()
    seeds = orders.tolist() + [-1]  # the orders in turn, then none
    cur, prev = np.zeros((2, len(orders)) + np.shape(ct))
    # sectoral seeds, built multiplicatively so large m cannot overflow
    p, n = np.full_like(ct, 1.0 / math.sqrt(4.0 * math.pi)), 0  # n orders running
    for ll in range(len(ends) - 1):  # the pairs at[ends[ll]:ends[ll + 1]] have l = ll
        if n:  # one step for the orders below ll
            a = np.sqrt((4.0 * ll * ll - 1.0) / (ll * ll - mm[:n]))
            b = np.sqrt(((ll - 1.0) ** 2 - mm[:n]) / (4.0 * (ll - 1.0) ** 2 - 1.0))
            np.multiply(a, ct * cur[:n] - b * prev[:n], out=prev[:n])
            cur, prev = prev, cur
        if ll == seeds[n]:
            cur[n] = p
            n += 1
        if ll < seeds[-2]:
            p = p * (-math.sqrt((2 * ll + 3) / (2.0 * ll + 2))) * st
        if ends[ll] < ends[ll + 1]:
            i = slice(ends[ll], ends[ll + 1])
            flat[at[i]] = cur.take(row[i], axis=0)
    flat[flip] *= -1.0
    return out


def _check_theta(theta: np.ndarray) -> None:
    """Raise ValueError unless every theta lies in [0, pi]; NaN fails."""
    ok = (theta >= -1e-12) & (theta <= math.pi + 1e-12)
    if not np.all(ok):
        bad = float(np.asarray(theta)[~ok].flat[0])
        raise ValueError(f"theta must lie in [0, pi], got {bad}")


def _angles(theta, phi):
    """theta, phi as float arrays; theta must lie in [0, pi] (NaN fails)
    and phi must be finite."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    _check_theta(theta)
    bad = ~np.isfinite(phi)
    if np.any(bad):
        raise ValueError(f"phi must be finite, got {float(phi[bad].flat[0])}")
    return theta, phi


@np.errstate(over="ignore", invalid="ignore")  # a non-finite part raises below
def _theta_columns(l, m, theta):
    """theta-parts of Y_lm, X_lm.e_theta and X_lm.e_phi for each (l, m).

    Every harmonic of order m is its theta-part times e^{i m phi}.  `l`
    and `m` are integers or integer arrays that broadcast together, with
    |m| <= l; theta is an array of angles in [0, pi].  Returns (y, x_theta,
    x_phi), each of shape broadcast(l, m).shape + theta.shape; y and
    x_theta are real, x_phi is imaginary.  One `_norm_legendre` call on the
    orders m and m +- 1 gives Y and, by the ladder combination, X, so no
    sin(theta) divides.  A part that is not finite raises OverflowError
    naming the first such (l, m) and theta.
    """
    theta = np.asarray(theta, dtype=float)
    _check_theta(theta)
    ct, st = np.cos(theta), np.sin(theta)
    ls, ms = np.broadcast_arrays(np.asarray(l), np.asarray(m))
    y, yp, ym = _norm_legendre(np.broadcast_to(ls, (3,) + ls.shape),
                               np.stack([ms, ms + 1, ms - 1]), ct, st)
    grid = (...,) + (None,) * ct.ndim  # mode axes first, then the angle axes
    l, m = ls[grid], ms[grid]
    yp = np.sqrt((l - m) * (l + m + 1)) * yp  # L+ Y_lm
    ym = np.sqrt((l + m) * (l - m + 1)) * ym  # L- Y_lm
    inv = 1.0 / np.sqrt(np.maximum(l * (l + 1), 1.0))  # X_00 = 0 either way
    x_theta = (0.5 * ct * (yp + ym) - m * st * y) * inv
    x_phi = -0.5j * (yp - ym) * inv
    ok = np.isfinite(y) & np.isfinite(x_theta) & np.isfinite(x_phi)
    if not ok.all():
        k, t = divmod(int(np.argmin(ok)), theta.size)  # the first mode, then angle
        raise OverflowError(f"the harmonic (l, m) = ({ls.flat[k]}, {ms.flat[k]}) at "
                            f"theta = {theta.flat[t]} leaves the double range")
    return y, x_theta, x_phi


def _parts(l, m, theta, phi):
    """(Y, X_theta, X_phi) of each mode (l, m) at angle arrays theta, phi
    that broadcast together: the `_theta_columns` parts times e^{i m phi},
    each of shape broadcast(l, m).shape + the broadcast angle shape.  The
    recurrence runs over theta's own shape, not the broadcast one."""
    theta, phi = _angles(theta, phi)
    nd = max(theta.ndim, phi.ndim)
    theta, phi = (a.reshape((1,) * (nd - a.ndim) + a.shape) for a in (theta, phi))
    ms = np.broadcast_arrays(np.asarray(l), np.asarray(m))[1]
    phase = np.exp(1j * ms[(...,) + (None,) * nd] * phi)
    return tuple(c * phase for c in _theta_columns(l, m, theta))


def ylm(mode: ModeIndex, theta, phi):
    """Scalar spherical harmonic Y_lm(theta, phi).

    Accepts scalars or broadcastable numpy arrays of angles; theta must
    lie in [0, pi] and phi be finite.  Returns a complex scalar for scalar
    input, else a complex array.
    """
    theta, phi = _angles(theta, phi)
    y = _norm_legendre(mode.l, mode.m, np.cos(theta), np.sin(theta))
    ok = np.isfinite(y)
    if not ok.all():
        raise OverflowError(f"the harmonic (l, m) = ({mode.l}, {mode.m}) at theta = "
                            f"{theta.flat[np.argmin(ok)]} leaves the double range")
    out = np.asarray(y * np.exp(1j * mode.m * phi), dtype=complex)
    return complex(out[()]) if out.ndim == 0 else out


# --- spherical Bessel machinery -------------------------------------------
# The recursions run in l, with numpy across a 1-d array of arguments x;
# entry n of a sequence array holds f_{n-1} at every x.


def _split(v, bits: int):
    """v rounded to its leading 53 - bits bits (Dekker 1971)."""
    t = (2.0**bits + 1.0) * v
    return t - (t - v)


def _two_prod(a, b):
    """(p, e) with p = fl(a*b) and p + e = a*b exactly."""
    p, ah, bh = a * b, _split(a, 27), _split(b, 27)
    return p, ((ah * bh - p) + ah * (b - bh) + (a - ah) * bh) + (a - ah) * (b - bh)


def _lane(v: np.ndarray):
    """v as the recursions carry it: a Python complex when it holds one
    argument (its arithmetic costs a tenth of a numpy call), else v."""
    return complex(v.ravel()[0]) if v.size == 1 else v


def _inverse(x: np.ndarray):
    """1/x = hi + lo, as arrays of x's shape, for `_quotients`.

    k/x rounded from one double 1/x errs alike at every step of a
    recursion, which acts as an argument error: 4e-13 of |j_l| + |y_l| at
    x = 1e4.  So hi has 33 bits, k*hi is exact for k < 2^20, and
    lo = hi (r + r^2) comes from the residual r = 1 - x hi in exact
    products: p1 - p2 is near 1 and p3 + p4 near 0, so both subtract
    exactly up to the two-sum error es.
    """
    shape, x = x.shape, _lane(x)
    hi = 1.0 / x
    hi = _split(hi.real, 20) + 1j * _split(hi.imag, 20)
    (p1, e1), (p2, e2), (p3, e3), (p4, e4) = (
        _two_prod(u, v)
        for u, v in ((x.real, hi.real), (x.imag, hi.imag),
                     (x.real, hi.imag), (x.imag, hi.real))
    )
    s = p1 - p2
    bb = s - p1
    es = (p1 - (s - bb)) - (p2 + bb)
    r = ((1.0 - s) - es - e1 + e2) - 1j * ((p3 + p4) + (e3 + e4))
    return np.reshape(hi, shape), np.reshape(hi * (r + r * r), shape)


def _quotients(ks: np.ndarray, inv):
    """fl(k/x) for each k of `ks` from the split `inv` of 1/x, as rows
    over x formed about 1024 values at a time (a batch stays small)."""
    size, (hi, lo) = inv[0].size, map(_lane, inv)
    rows = max(1, 1024 // size)
    for i in range(0, len(ks), rows):
        k = ks[i:i + rows, None]
        block = k * hi + k * lo
        yield from block.ravel().tolist() if size == 1 else block


def _upward(f_prev, f_0, lmax: int, inv) -> np.ndarray:
    """f_{-1} .. f_lmax from the upward recursion f_{n+1} = (2n+1)/x f_n -
    f_{n-1}, given the split `inv` of 1/x."""
    f = [_lane(f_prev), _lane(f_0)]
    for q in _quotients(2.0 * np.arange(lmax) + 1.0, inv):
        f.append(q * f[-1] - f[-2])
    return np.array(f, dtype=complex).reshape((lmax + 2,) + np.shape(f_prev))


def _miller(lmax: int, x: np.ndarray, s, c, inv) -> np.ndarray:
    """w j_l(x) for l = -1 .. lmax, given s = w sin x, c = w cos x and the
    split `inv` of 1/x.

    Downward Miller recursion, started past the turning point of the
    largest |x| by a margin growing like |x|^(1/3) so the trial sequence
    has converged to the minimal solution there (Gautschi 1967, SIAM
    Rev. 9), and normalized against j_0, or against j_1 where larger and
    |x| >= 1 (j_0 vanishes at x = n*pi, never with |x| < pi, and j_1 =
    j_0/x - cos(x)/x cancels at small x).  A step grows the trial values
    by at most |k/x| + 1; where that bound would pass the double range,
    each x's values are scaled exactly by the power of two of their size.
    """
    ax = np.abs(x)
    top = float(ax.max())
    n_start = lmax + 16 + math.ceil(top + 10.0 * (top / 2.0) ** (1.0 / 3.0))
    ks = 2.0 * np.arange(n_start, -1, -1) + 3.0
    growth = np.log2(ks * ((1.0 + 1e-9) / float(ax.min())) + 1.0).tolist()
    fp, fc = _lane(0.0 * x), _lane(0.0 * x + 1e-30)  # trial values at n + 2, n + 1
    bound = math.log2(1e-30)  # of the largest |fp|, |fc|
    trial = np.zeros((lmax + 1,) + x.shape, dtype=complex)
    for n, q, g in zip(range(n_start, -1, -1), _quotients(ks, inv), growth):
        if bound + g > 1023.0:
            v = np.ldexp(1.0, -np.frexp(np.maximum(abs(fp), abs(fc)))[1])
            fp, fc = _lane(np.multiply(fp, v)), _lane(np.multiply(fc, v))
            trial, bound = trial * v, 0.0
        fp, fc = fc, q * fc - fp
        bound += g
        if n <= lmax:
            trial[n] = fc
    j0, jm = s / x, c / x
    j1 = j0 / x - jm
    scale = j0 / trial[0]
    if lmax >= 1:
        scale = np.where((ax >= 1) & (np.abs(j1) > np.abs(j0)), j1 / trial[1], scale)
    return np.concatenate([jm[None], trial * scale])


# below this |x| the split of 1/x in `_inverse` overflows (from about
# 2^-997 (1 + 2^-27) down), while j_l(x) = x^l/(2l+1)!! to rounding
_SMALL = 2.0**-997 * (1.0 + 2.0**-26)


def _radial_pair(xs: np.ndarray, tops, scaled: bool = False) -> list:
    """j_l and h1_l at the 1-d complex array xs, Im x >= 0, from one check
    of xs and one split of 1/x that both recursions share.

    `tops` holds the largest l wanted of each part (j, h1), or -1 for
    none.  Returns, per part, None or its values for l = -1 .. its top at
    every x.  j comes times e^{ix} with `scaled`, of modulus e^{-Im x}
    (past Im x = 300 from seeds in e^{2ix}, with no cancellation), h1
    times e^{-ix} either way; a value past the double range is inf or
    nan.  j comes from its series below |x| = `_SMALL`, where the split of
    1/x overflows, and h1 at x = 0 as at 1, for `_f_and_d` to reject; a
    non-finite x raises ValueError.
    """
    finite = np.isfinite(xs)
    if not finite.all():
        raise ValueError(f"x must be finite, got x={complex(xs[~finite][0])}")
    x = np.where(xs == 0, 1.0, xs)
    parts = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        inv = _inverse(x)
        for p, top in enumerate(tops):
            if top < 0:
                parts.append(None)
            elif p == 1:
                parts.append(_upward(1.0 / x, -1j / x, top, inv))
            elif scaled:
                w, e2 = np.exp(1j * x), np.exp(2j * x)
                far = x.imag >= 300.0
                s = np.where(far, (e2 - 1.0) / 2j, w * np.sin(x))
                c = np.where(far, (e2 + 1.0) / 2.0, w * np.cos(x))
                parts.append(_miller(top, x, s, c, inv))
            else:
                parts.append(_miller(top, x, np.sin(x), np.cos(x), inv))
        small = np.abs(xs) < _SMALL  # e^{ix} = 1 to rounding: scaled j is j
        if tops[0] >= 0 and small.any():  # j_l = x^l/(2l+1)!!, j_-1 = cos(x)/x
            z = xs[small]
            f = z / np.arange(1.0, 2 * tops[0] + 2, 2)[:, None]
            f[0] = 1.0
            parts[0][:, small] = np.concatenate([[np.cos(z) / z], np.cumprod(f, 0)])
    return parts


def _f_and_d(name: str, xs: np.ndarray, g: np.ndarray) -> tuple:
    """(f_l, d(x f_l)/dx) for l = 0 .. from g, whose entry n holds f_{n-1}
    at xs, with d(x j_l)/dx = (l + 1) j_l below |x| = `_SMALL`; ValueError
    at x = 0 for any other kind, and OverflowError naming `name`, the first
    x past the double range and its l (inf - inf is nan, so both are caught)."""
    if name != "bessel_j" and (xs == 0).any():
        raise ValueError(f"{name} is singular at x = 0")
    f = g[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        d_rf = xs * g[:-1] - np.arange(len(f))[:, None] * f
    small = (np.abs(xs) < _SMALL) & (name == "bessel_j")
    if small.any():  # x j_-1 = x (cos(x)/x) is inf or nan below 2^-1024
        d_rf[:, small] = np.arange(1.0, len(f) + 1)[:, None] * f[:, small]
    ok = np.isfinite(f) & np.isfinite(d_rf)
    if not ok.all():
        i, l = np.argwhere(~ok.T)[0]
        raise OverflowError(
            f"{name} overflowed at x={complex(xs[i])}, l={l}: outside double range"
        )
    return f, d_rf


# f_l = a j_l + b h1_l for every kind at Im x >= 0: y_l = i (j_l - h1_l)
# and h2_l = 2 j_l - h1_l.
_PAIR = {
    RadialKind.BESSEL_J: (1, 0),
    RadialKind.BESSEL_Y: (1j, -1j),
    RadialKind.HANKEL1: (0, 1),
    RadialKind.HANKEL2: (2, -1),
}
# f(x) = conj(f*(conj x)), with f* the kind of f with h1 and h2 swapped
_MIRROR = {
    RadialKind.HANKEL1: RadialKind.HANKEL2,
    RadialKind.HANKEL2: RadialKind.HANKEL1,
}


def spherical_radial_seq(kind: RadialKind, lmax: int, x) -> tuple:
    """Spherical radial functions f_l(x) and d(x f_l)/dx for l = 0 .. lmax.

    f is j_l, y_l, h_l^(1) = j_l + i y_l, or h_l^(2) = j_l - i y_l.  The
    derivative is of the product x*f(x), the combination entering the
    transverse field solutions; for an argument x = n k r it equals
    d(r f(n k r))/dr exactly.  `x` is a scalar or an array; returns two
    complex arrays of shape (lmax + 1,) + x.shape for every l and every x.

    An x with Im x < 0 is served as conj(f*(conj x)), f* the kind with h1
    and h2 swapped (j and y map to themselves), so every x goes to the
    upper half plane, where f = a j + b h1 with (a, b) from `_PAIR`, the
    pair coming from one `_radial_pair` pass; a part enters f only at the
    x where its weight is nonzero.  So no kind is formed as j_l +- i y_l,
    which cancels to a relative error of e^{2|Im x|}, or by an upward
    recursion that amplifies rounding against a growing companion.

    Raises ValueError at a non-finite x and, for the kinds singular
    there, at x = 0; OverflowError naming the first such x and its l when
    an entry leaves the double range (large l at small |x| for the
    singular kinds, |Im x| above about 710).
    """
    if lmax < 0:
        raise ValueError(f"l must be >= 0, got {lmax}")
    shape = np.shape(x)
    xs = np.asarray(x, dtype=complex).ravel()
    low = (xs.imag < 0) & np.isfinite(xs)  # `_radial_pair` names a non-finite x
    z = np.where(low, xs.conj(), xs)
    mirror = _PAIR[_MIRROR.get(kind, kind)]
    a, b = (np.where(low, *ab) for ab in zip(mirror, _PAIR[kind]))
    j, h1 = _radial_pair(z, [lmax if w.any() else -1 for w in (a, b)])
    g = np.zeros((lmax + 2,) + xs.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        if j is not None:
            on = a != 0
            g[:, on] = a[on] * j[:, on]
        if h1 is not None:
            on = b != 0  # e^{-ix} h1 times e^{ix}
            g[:, on] += h1[:, on] * (b[on] * np.exp(1j * z[on]))
    if kind is RadialKind.BESSEL_Y:  # y_-1 = j_0 exactly; i (j_-1 - h1_-1) cancels
        g[0] = j[1]
    g[:, low] = g[:, low].conj()
    f, d_rf = _f_and_d(kind.value, xs, g)
    return f.reshape((lmax + 1,) + shape), d_rf.reshape((lmax + 1,) + shape)
