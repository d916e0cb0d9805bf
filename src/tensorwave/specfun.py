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
in l at fixed m (seeded from the double-factorial closed form of the
sectoral term), which is stable for every |m| <= l at the orders handled
here.  Spherical Bessel functions come as whole sequences in l, from
downward Miller recursion for j_l and upward recursion for y_l, valid
for complex arguments.
"""

from __future__ import annotations

import cmath
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
    "spherical_radial",
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


def _norm_legendre(lmax: int, m: int, ct: np.ndarray, st: np.ndarray) -> np.ndarray:
    """Fully normalized associated Legendre values for m >= 0, every l.

    Returns N_lm P_l^m(ct) for l = m .. lmax stacked along a new first
    axis, with N_lm = sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!) and the
    Condon-Shortley (-1)^m folded in, evaluated elementwise on
    cos(theta) = ct, sin(theta) = st.
    """
    out = np.empty((lmax - m + 1,) + np.shape(ct))
    # sectoral seed, built multiplicatively so large m cannot overflow
    p = np.full_like(ct, 1.0 / math.sqrt(4.0 * math.pi))
    for k in range(1, m + 1):
        p = p * (-math.sqrt((2 * k + 1) / (2.0 * k))) * st
    out[0] = p
    p_prev = np.zeros_like(p)
    for ll in range(m + 1, lmax + 1):
        a = math.sqrt((4.0 * ll * ll - 1.0) / (ll * ll - m * m))
        b = math.sqrt(((ll - 1.0) ** 2 - m * m) / (4.0 * (ll - 1.0) ** 2 - 1.0))
        p, p_prev = a * (ct * p - b * p_prev), p
        out[ll - m] = p
    return out


def _check_theta(theta: np.ndarray) -> None:
    """Raise ValueError unless every theta lies in [0, pi]; NaN fails."""
    ok = (theta >= -1e-12) & (theta <= math.pi + 1e-12)
    if not np.all(ok):
        bad = float(np.asarray(theta)[~ok].flat[0])
        raise ValueError(f"theta must lie in [0, pi], got {bad}")


def ylm(mode: ModeIndex, theta, phi):
    """Scalar spherical harmonic Y_lm(theta, phi).

    Accepts scalars or broadcastable numpy arrays of angles; theta must
    lie in [0, pi].  Returns a complex scalar for scalar input, else a
    complex array.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    _check_theta(theta)
    ma = abs(mode.m)
    p = _norm_legendre(mode.l, ma, np.cos(theta), np.sin(theta))[-1]
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

_RESCALE = 1e250


def spherical_radial_seq(kind: RadialKind, lmax: int, x) -> tuple:
    """Spherical radial functions f_l(x) and d(x f_l)/dx for l = 0 .. lmax.

    f is j_l, y_l, h_l^(1) = j_l + i y_l, or h_l^(2) = j_l - i y_l.  The
    derivative is of the product x*f(x), the combination entering the
    transverse field solutions; for an argument x = n k r it equals
    d(r f(n k r))/dr exactly.  Returns two complex arrays of length
    lmax + 1 from one recursion for every l.

    j_l comes from downward Miller recursion, started past the turning
    point l = |x| by a margin growing like |x|^(1/3) so the trial
    sequence has converged to the minimal solution there (Gautschi 1967,
    SIAM Rev. 9), and normalized against whichever of the closed forms
    j_0, j_1 is larger (j_0 vanishes at x = n*pi).  y_l comes from upward
    recursion, which is stable for it.

    Raises ValueError at x = 0 for the kinds singular there, and
    OverflowError when an entry leaves the double range (large l at
    small |x| for the singular kinds).
    """
    if lmax < 0:
        raise ValueError(f"l must be >= 0, got {lmax}")
    x = complex(x)
    if x == 0:
        if kind is not RadialKind.BESSEL_J:
            raise ValueError(f"{kind.value} is singular at x = 0")
        # j_0(0) = 1, j_l(0) = 0; x*j_l ~ x^{l+1}/(2l+1)!! near 0
        f = np.zeros(lmax + 1, dtype=complex)
        f[0] = 1.0
        return f, f.copy()

    sin_x, cos_x = cmath.sin(x), cmath.cos(x)
    # entry n of each list holds f_{n-1}; the closed forms
    # j_{-1} = cos x / x and y_{-1} = sin x / x give d(x f_0)/dx
    if kind is not RadialKind.BESSEL_Y:
        ax = abs(x)
        n_start = lmax + 16 + math.ceil(ax + 10.0 * (ax / 2.0) ** (1.0 / 3.0))
        fp, fc = 0j, 1e-30 + 0j  # trial values at n + 2, n + 1
        trial = [0j] * (lmax + 1)
        for n in range(n_start, -1, -1):
            fp, fc = fc, (2.0 * n + 3.0) / x * fc - fp
            if n <= lmax:
                trial[n] = fc
            if abs(fc.real) > _RESCALE or abs(fc.imag) > _RESCALE:
                fp /= _RESCALE
                fc /= _RESCALE
                trial = [v / _RESCALE for v in trial]
        j0 = sin_x / x
        j1 = j0 / x - cos_x / x
        if lmax >= 1 and abs(j1) > abs(j0):
            scale = j1 / trial[1]
        else:
            scale = j0 / trial[0]
        j = np.array([cos_x / x] + [v * scale for v in trial])
    if kind is not RadialKind.BESSEL_J:
        y = [sin_x / x, -cos_x / x]
        for n in range(lmax):
            y.append((2.0 * n + 1.0) / x * y[-1] - y[-2])
        y = np.array(y)

    # y_l past the double range is inf, and inf - inf in the combinations
    # below is nan; both are caught by the finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        if kind is RadialKind.BESSEL_J:
            g = j
        elif kind is RadialKind.BESSEL_Y:
            g = y
        else:
            g = j + (1j if kind is RadialKind.HANKEL1 else -1j) * y
        f = g[1:]
        d_rf = x * g[:-1] - np.arange(lmax + 1) * f
    bad = ~(np.isfinite(f) & np.isfinite(d_rf))
    if bad.any():
        raise OverflowError(
            f"{kind.value} overflowed at l={int(np.argmax(bad))}, x={x}: "
            "outside double range"
        )
    return f, d_rf


def spherical_radial(kind: RadialKind, l: int, x) -> tuple[complex, complex]:
    """Entry l of `spherical_radial_seq`: f_l(x) and d(x f_l)/dx.

    Raises like `spherical_radial_seq` on every entry up to l.
    """
    f, d_rf = spherical_radial_seq(kind, l, x)
    return complex(f[l]), complex(d_rf[l])
