"""Special functions: scalar spherical harmonics, angular momentum ladder
coefficients, and spherical Bessel/Hankel functions for complex arguments.

Conventions
-----------
Y_lm carries the Condon-Shortley phase and unit normalization over the
sphere, so the ladder relations

    L+ Y_lm = sqrt((l - m)(l + m + 1)) Y_{l,m+1}
    L- Y_lm = sqrt((l + m)(l - m + 1)) Y_{l,m-1}
    Lz Y_lm = m Y_lm

hold exactly, and Y_{l,-m} = (-1)^m conj(Y_lm).

The Legendre part is evaluated by the fully normalized forward recurrence
in l, run for a range of orders at once (each seeded from the
double-factorial closed form of its sectoral term), which is stable for
every |m| <= l at the orders handled here.  Spherical Bessel functions
come as whole sequences in l for an array of arguments at once, valid for
complex arguments, from one pair: j_l by downward Miller recursion and
h_l^(t), the Hankel kind that decays into the half plane of x, by upward
recursion, both built by one `_radial_pair` pass that shares the check
of x, the sign t and the split of 1/x.  Every kind is a fixed
combination a j_l + b h_l^(t) of that pair, read from the one table
`_PAIR`.
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
    "ladder_plus",
    "ladder_minus",
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


def _norm_legendre(lmax: int, lo: int, hi: int, ct, st) -> np.ndarray:
    """Fully normalized associated Legendre values for orders lo .. hi >= 0.

    Returns N_lm P_l^m(ct) with N_lm = sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!)
    and the Condon-Shortley (-1)^m folded in, evaluated elementwise on
    cos(theta) = ct, sin(theta) = st: an array of shape
    (lmax - lo + 1, hi - lo + 1) + ct.shape whose entry [l - lo, m - lo]
    holds order m at degree l, and zero where l < m.  One recurrence in l
    runs for every order at once, each order seeded by its sectoral term.
    """
    out = np.zeros((lmax - lo + 2, hi - lo + 1) + np.shape(ct))  # row 0: l = lo - 1
    # sectoral seeds, built multiplicatively so large m cannot overflow
    p = np.full_like(ct, 1.0 / math.sqrt(4.0 * math.pi))
    for k in range(min(hi, lmax) + 1):
        if k > 0:
            p = p * (-math.sqrt((2 * k + 1) / (2.0 * k))) * st
        if k >= lo:
            out[k - lo + 1, k - lo] = p
    m = np.arange(lo, hi + 1).reshape((-1,) + (1,) * np.ndim(ct))
    for ll in range(lo + 1, lmax + 1):
        n = min(ll, hi + 1) - lo  # the orders m < ll
        mm, i = m[:n], ll - lo + 1
        a = np.sqrt((4.0 * ll * ll - 1.0) / (ll * ll - mm * mm))
        b = np.sqrt(((ll - 1.0) ** 2 - mm * mm) / (4.0 * (ll - 1.0) ** 2 - 1.0))
        out[i, :n] = a * (ct * out[i - 1, :n] - b * out[i - 2, :n])
    return out[1:]


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


def ylm(mode: ModeIndex, theta, phi):
    """Scalar spherical harmonic Y_lm(theta, phi).

    Accepts scalars or broadcastable numpy arrays of angles; theta must
    lie in [0, pi] and phi be finite.  Returns a complex scalar for scalar
    input, else a complex array.
    """
    theta, phi = _angles(theta, phi)
    ma = abs(mode.m)
    p = _norm_legendre(mode.l, ma, ma, np.cos(theta), np.sin(theta))[-1, 0]
    if mode.m < 0:
        # Y_{l,-m} = (-1)^m conj(Y_lm); p is real, so conjugate the phase
        p = (-1) ** ma * p
    out = np.asarray(p * np.exp(1j * mode.m * phi), dtype=complex)
    return complex(out[()]) if out.ndim == 0 else out


def ladder_plus(mode: ModeIndex):
    """Coefficient and shifted mode for L+; (0.0, None) at the ladder top."""
    if mode.m == mode.l:
        return 0.0, None
    c = math.sqrt((mode.l - mode.m) * (mode.l + mode.m + 1))
    return c, ModeIndex(mode.l, mode.m + 1)


def ladder_minus(mode: ModeIndex):
    """Coefficient and shifted mode for L-; (0.0, None) at the ladder bottom."""
    if mode.m == -mode.l:
        return 0.0, None
    c = math.sqrt((mode.l + mode.m) * (mode.l - mode.m + 1))
    return c, ModeIndex(mode.l, mode.m - 1)


# --- spherical Bessel machinery -------------------------------------------
# The recursions run in l, with numpy across a 1-d array of arguments x;
# entry n of a sequence array holds f_{n-1} at every x.

_RESCALE = 1e250


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
    Rev. 9), and normalized against whichever of the closed forms j_0,
    j_1 is larger (j_0 vanishes at x = n*pi).  A step grows the trial
    values by at most |k/x| + 1; that bound decides when to look for
    values past _RESCALE, and only those rescale.
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
            v = np.where(np.maximum(abs(fp), abs(fc)) > _RESCALE, 1 / _RESCALE, 1.0)
            fp, fc, trial = _lane(fp * v), _lane(fc * v), trial * v
            bound = math.log2(_RESCALE)
        fp, fc = fc, q * fc - fp
        bound += g
        if n <= lmax:
            trial[n] = fc
    j0, jm = s / x, c / x
    j1 = j0 / x - jm
    scale = j0 / trial[0]
    if lmax >= 1:
        scale = np.where(np.abs(j1) > np.abs(j0), j1 / trial[1], scale)
    return np.concatenate([jm[None], trial * scale])


def _radial_pair(xs: np.ndarray, tops, scaled: bool = False) -> tuple:
    """j_l and h_l^(t) at the 1-d complex array xs, from one check of xs,
    one sign t (+1 where Im x >= 0, else -1) and one split of 1/x that
    both recursions share.

    `tops` holds, for each part (j, h^(t)), the largest l wanted where
    t = +1 and where t = -1, or -1 for none.
    Returns t and, per part, None or (at, seq): the mask of the x where
    it runs and its values there for l = -1 .. its top.  j comes times
    e^{itx} with `scaled`, of modulus e^{-|Im x|} (past |Im x| = 300 from
    seeds in e^{2itx}, with no cancellation), h^(t) times e^{-itx} either
    way; a value past the double range is inf or nan.  An x = 0 runs as
    1, for the caller to replace; a non-finite x raises ValueError.
    """
    finite = np.isfinite(xs)
    if not finite.all():
        raise ValueError(f"x must be finite, got x={complex(xs[~finite][0])}")
    x = np.where(xs == 0, 1.0, xs)
    t = np.where(x.imag >= 0, 1.0, -1.0)
    parts = []
    with np.errstate(over="ignore", invalid="ignore"):
        inv = _inverse(x)
        for p, (up, down) in enumerate(tops):
            top = np.where(t > 0, up, down)
            at = top >= 0
            if not at.any():
                parts.append(None)
                continue
            xa, ta, lmax = x[at], t[at], int(top.max())
            inv_at = tuple(v[at] for v in inv)
            if p == 1:
                seq = _upward(1.0 / xa, -1j * ta / xa, lmax, inv_at)
            elif scaled:
                w, e2 = np.exp(1j * ta * xa), np.exp(2j * ta * xa)
                far = np.abs(xa.imag) >= 300.0
                s = np.where(far, ta * (e2 - 1.0) / 2j, w * np.sin(xa))
                c = np.where(far, (e2 + 1.0) / 2.0, w * np.cos(xa))
                seq = _miller(lmax, xa, s, c, inv_at)
            else:
                seq = _miller(lmax, xa, np.sin(xa), np.cos(xa), inv_at)
            parts.append((at, seq))
    return t, *parts


def _f_and_d(name: str, xs: np.ndarray, g: np.ndarray) -> tuple:
    """(f_l, d(x f_l)/dx) for l = 0 .. from g, whose entry n holds f_{n-1}
    at xs, or OverflowError naming `name`, the first x past the double
    range and its l (inf - inf is nan, so both are caught)."""
    f = g[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        d_rf = xs * g[:-1] - np.arange(len(f))[:, None] * f
    ok = np.isfinite(f) & np.isfinite(d_rf)
    if not ok.all():
        i, l = np.argwhere(~ok.T)[0]
        raise OverflowError(
            f"{name} overflowed at x={complex(xs[i])}, l={l}: outside double range"
        )
    return f, d_rf


# f_l = a j_l + b h_l^(t) for every kind, t = +1 where Im x >= 0 and -1
# elsewhere: h^(t) is the Hankel kind that decays into the half plane of x,
# y_l = i t (j_l - h_l^(t)) and h_l^(-t) = 2 j_l - h_l^(t).  Entry [0] holds
# (a, b) for t = +1, entry [1] for t = -1.
_PAIR = {
    RadialKind.BESSEL_J: ((1, 0), (1, 0)),
    RadialKind.BESSEL_Y: ((1j, -1j), (-1j, 1j)),
    RadialKind.HANKEL1: ((0, 1), (2, -1)),
    RadialKind.HANKEL2: ((2, -1), (0, 1)),
}
# the scaled form of h^(s) is e^{-isx} h^(s)
_SIGMA = {RadialKind.HANKEL1: -1.0, RadialKind.HANKEL2: 1.0}


def spherical_radial_seq(
    kind: RadialKind, lmax: int, x, scaled: bool = False
) -> tuple:
    """Spherical radial functions f_l(x) and d(x f_l)/dx for l = 0 .. lmax.

    f is j_l, y_l, h_l^(1) = j_l + i y_l, or h_l^(2) = j_l - i y_l.  The
    derivative is of the product x*f(x), the combination entering the
    transverse field solutions; for an argument x = n k r it equals
    d(r f(n k r))/dr exactly.  `x` is a scalar or an array; returns two
    complex arrays of shape (lmax + 1,) + x.shape for every l and every x.

    f = a j + b h^(t) with (a, b) from `_PAIR`, the pair coming from one
    `_radial_pair` that runs j only at the x where a != 0 and h^(t) only
    where b != 0.  So no kind is formed as j_l +- i y_l, which cancels to
    a relative error of e^{2|Im x|}, or by an upward recursion that
    amplifies rounding against a growing companion.

    With `scaled`, both arrays come multiplied by a factor that removes
    the exponential dependence on Im x, so they stay in the double range
    for any Im x: e^{-ix} for h^(1) and e^{+ix} for h^(2), which leaves
    their slowly varying 1/x terms, and for j_l e^{ix} when Im x >= 0 and
    e^{-ix} otherwise, of modulus e^{-|Im x|}.  y_l has no scaled form.

    Raises ValueError at a non-finite x and, for the kinds singular
    there, at x = 0; OverflowError naming the first such x and its l when
    an entry leaves the double range (large l at small |x| for the
    singular kinds, |Im x| above about 710 unscaled).
    """
    if lmax < 0:
        raise ValueError(f"l must be >= 0, got {lmax}")
    if scaled and kind is RadialKind.BESSEL_Y:
        raise ValueError("bessel_y has no scaled form")
    shape = np.shape(x)
    xs = np.asarray(x, dtype=complex).ravel()
    t, j, h = _radial_pair(xs, np.where(np.array(_PAIR[kind]) != 0, lmax, -1).T, scaled)
    zero = xs == 0
    if zero.any() and kind is not RadialKind.BESSEL_J:
        raise ValueError(f"{kind.value} is singular at x = 0")
    a, b = (np.where(t > 0, *ab) for ab in zip(*_PAIR[kind]))
    g = np.zeros((lmax + 2,) + xs.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        if j is not None:
            g[:, j[0]] = a[j[0]] * j[1]
        if h is not None:
            # e^{-itx} h^(t), times e^{itx} unscaled and e^{i(t - s)x} for
            # the scaled h^(s)
            on, shift = h[0], t + _SIGMA[kind] if scaled else t
            g[:, on] += h[1] * (b[on] * np.exp(1j * shift[on] * xs[on]))
    f, d_rf = _f_and_d(kind.value, xs, g)
    # j_0(0) = 1, j_l(0) = 0; x*j_l ~ x^{l+1}/(2l+1)!! near 0
    f[:, zero] = d_rf[:, zero] = 0.0
    f[0, zero] = d_rf[0, zero] = 1.0
    return f.reshape((lmax + 1,) + shape), d_rf.reshape((lmax + 1,) + shape)
