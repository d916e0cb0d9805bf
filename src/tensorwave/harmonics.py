"""Vector and rank-2 tensor spherical harmonics with quadrature checks.

The central object is the tensor harmonic

    F_lm = Y_lm e_r(x)e_r + X_lm(x)e_theta + (e_r x X_lm)(x)e_phi

returned by `flm` as a 3x3 complex matrix whose row index is the
field-space factor and whose column index is the frame factor of each
dyad, so a field is the plain matrix-vector product F_lm @ v.  It and the
check `flm_explicit` below are the only places the dense matrix is built.
Everywhere else F_lm is held as its three independent components
(Y, X_theta, X_phi), each a theta-part times e^{i m phi}.  Those values
come from the one harmonic table in `specfun`: `_theta_columns` runs a
single Legendre recurrence in l for every order a set of (l, m) needs,
and `_parts` multiplies by the phases, so `xlm`, `flm` and the degree
functions here each make one recurrence per call, as do projection and
the Gram checks, and synthesis one per block of orders.  Every public
function here takes angle arrays (theta, phi) that broadcast together and
returns values of their broadcast shape, followed by (3,) or (3, 3) for
vectors and tensors; `xlm` and `flm` take modes as integers or integer
arrays (l, m) and put their axes first, and a function of a degree l
puts the orders m = -l .. l on a first axis.

X_lm comes from the Cartesian ladder route: the three Cartesian components
of L Y_lm are exact combinations of Y_{l,m} and Y_{l,m+-1}, rotated into
the local spherical frame.  Nothing in that path divides by sin(theta), so
the poles are handled exactly.  A second, independent construction
(`flm_explicit`) uses the theta-derivative ladder identity and the
m/sin(theta) form; the two must agree away from the poles and that
agreement is part of the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import _angles, _parts, ylm

__all__ = [
    "QuadratureRule",
    "xlm",
    "flm",
    "flm_explicit",
    "l_squared_check",
    "lz_check",
    "l_dot_xlm_residual",
    "l_dot_er_cross_xlm_residual",
]


@dataclass(frozen=True)
class QuadratureRule:
    """Product rule: Gauss-Legendre in cos(theta) times uniform phi."""

    cos_nodes: np.ndarray
    weights: np.ndarray
    n_phi: int

    def __post_init__(self):
        cn = np.array(self.cos_nodes, dtype=float)
        w = np.array(self.weights, dtype=float)
        if cn.ndim != 1 or cn.shape != w.shape:
            raise ValueError("cos_nodes and weights must be 1-d and congruent")
        if np.any(w <= 0.0):
            raise ValueError("quadrature weights must be positive")
        if abs(w.sum() - 2.0) > 1e-12:
            raise ValueError("theta weights must sum to 2 (the measure of [-1,1])")
        if self.n_phi < 1:
            raise ValueError("n_phi must be >= 1")
        cn.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "cos_nodes", cn)
        object.__setattr__(self, "weights", w)

    @classmethod
    def with_counts(cls, n_theta: int, n_phi: int) -> "QuadratureRule":
        nodes, weights = np.polynomial.legendre.leggauss(n_theta)
        return cls(nodes, weights, n_phi)

    @classmethod
    def for_degree(cls, lmax: int) -> "QuadratureRule":
        """Rule resolving products of harmonics up to degree lmax."""
        return cls.with_counts(2 * lmax + 2, 4 * lmax + 4)

    def refined(self) -> "QuadratureRule":
        return self.with_counts(2 * len(self.cos_nodes), 2 * self.n_phi)

    @property
    def thetas(self) -> np.ndarray:
        return np.arccos(self.cos_nodes)

    @property
    def phis(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(self.n_phi) / self.n_phi


# --- vector harmonic --------------------------------------------------------


def xlm(l, m, theta, phi) -> np.ndarray:
    """Vector spherical harmonic X_lm = L Y_lm / sqrt(l(l+1)).

    Returns the components over (e_r, e_theta, e_phi) along a last axis
    of 3; the e_r component is exactly zero.  X_00 is the zero vector.
    """
    _, vt, vp = _parts(l, m, theta, phi)
    out = np.zeros(vt.shape + (3,), dtype=complex)
    out[..., 1] = vt
    out[..., 2] = vp
    return out


# --- tensor harmonic --------------------------------------------------------


def _assemble_f(y, vt, vp) -> np.ndarray:
    f = np.zeros(np.shape(y) + (3, 3), dtype=complex)
    f[..., 0, 0] = y
    f[..., 1, 1] = vt
    f[..., 2, 1] = vp
    f[..., 1, 2] = -vp
    f[..., 2, 2] = vt
    return f


def flm(l, m, theta, phi) -> np.ndarray:
    """Tensor harmonic F_lm as a 3x3 complex matrix over the last two axes.

    Columns over (e_r, e_theta, e_phi) are Y_lm e_r, X_lm and e_r x X_lm.
    """
    return _assemble_f(*_parts(l, m, theta, phi))


def flm_explicit(l: int, theta, phi) -> np.ndarray:
    """F_lm of every order of degree l from the explicit component formulas.

    Uses X_theta = -m Y_lm / (sin(theta) sqrt(l(l+1))) and
    X_phi = -i (dY_lm/dtheta) / sqrt(l(l+1)) with the theta derivative
    expanded through the ladder identity
    dY/dtheta = (e^{-i phi} L+ Y - e^{+i phi} L- Y) / 2.
    Valid away from the poles; serves as a cross-check on `flm`.
    """
    y = ylm(l, np.arange(-l, l + 1), theta, phi)  # recurs over theta's own shape
    theta, phi = np.broadcast_arrays(*_angles(theta, phi))
    if l == 0:
        return _assemble_f(y, 0.0, 0.0)
    st = np.sin(theta)
    if np.any(st == 0.0):
        raise ValueError("explicit form is singular at the poles; use flm")
    yp, ym, _ = np.tensordot(_ladder(l).transpose(0, 2, 1), y, 1)  # L+ Y, L- Y, Lz Y
    dy_dtheta = 0.5 * (np.exp(-1j * phi) * yp - np.exp(1j * phi) * ym)
    inv = 1.0 / math.sqrt(l * (l + 1))
    vt = (-np.arange(-l, l + 1) * y.T).T / st * inv
    vp = -1j * dy_dtheta * inv
    return _assemble_f(y, vt, vp)


# --- ladder-operator identities ---------------------------------------------
#
# L+, L- and Lz keep l, so on the harmonics Y_{l,-l} .. Y_{l,l} of one
# degree they are (2l+1)-square matrices over the coefficients, and an exact
# finite combination of harmonics is a coefficient vector contracted with
# the row `ylm(l, np.arange(-l, l + 1), theta, phi)`.  No numerical
# differentiation enters.  Each check, like `flm_explicit`, takes a degree
# l and angle arrays and returns its value at every angle for every order
# m = -l .. l along a first axis, from one row.


def _ladder(l: int) -> np.ndarray:
    """L+, L- and Lz on the coefficients of Y_{l,-l} .. Y_{l,l}, stacked:
    entry [., m' + l, m + l] is the Y_{l,m'} coefficient of the operator on
    Y_lm, so L+ holds sqrt((l - m)(l + m + 1)) at [0, m + 1 + l, m + l]."""
    m = np.arange(-l, l + 1.0)
    lp = np.diag(np.sqrt((l - m[:-1]) * (l + m[:-1] + 1)), -1)
    return np.array([lp, lp.T, np.diag(m)])


# (Lx, Ly, Lz) from the stack (L+, L-, Lz): Lx = (L+ + L-)/2, Ly = (L+ - L-)/2i
_CARTESIAN = np.array([[0.5, 0.5, 0.0], [-0.5j, 0.5j, 0.0], [0.0, 0.0, 1.0]])


def _eigen_residual(op: np.ndarray, l: int, theta, phi, value):
    """|op Y_lm - value Y_lm| for a ladder matrix op; value is one or one per m."""
    y = ylm(l, np.arange(-l, l + 1), theta, phi)
    return np.abs(np.tensordot(op.T, y, 1) - (value * y.T).T)


def l_squared_check(l: int, theta, phi):
    """|L^2 Y_lm - l(l+1) Y_lm| with L^2 = Lz^2 + (L+L- + L-L+)/2.

    This tests the ladder algebra, not the harmonic values: the matrix
    product returns l(l+1) on the coefficient of Y_lm alone, whatever Y is.
    """
    lp, lm, lz = _ladder(l)
    l2 = lz @ lz + (lp @ lm + lm @ lp) / 2
    return _eigen_residual(l2, l, theta, phi, l * (l + 1))


def lz_check(l: int, theta, phi):
    """|Lz Y_lm - m Y_lm| with Lz realized as the commutator [L+, L-]/2.

    Like `l_squared_check`, this tests the ladder algebra, not the
    harmonic values.
    """
    lp, lm, _ = _ladder(l)
    return _eigen_residual((lp @ lm - lm @ lp) / 2, l, theta, phi, np.arange(-l, l + 1))


def l_dot_xlm_residual(l: int, theta, phi):
    """|L . X_lm - sqrt(l(l+1)) Y_lm| via exact ladder composition, with
    X_lm's Cartesian components L_i Y_lm / sqrt(l(l+1)).

    Like `l_squared_check`, this tests the ladder algebra, not the
    harmonic values.  X_00 = 0 gives a zero residual.
    """
    s = math.sqrt(l * (l + 1))
    ops = np.tensordot(_CARTESIAN, _ladder(l), 1)  # Lx, Ly, Lz
    op = (ops @ ops).sum(0) / max(s, 1.0)
    return _eigen_residual(op, l, theta, phi, s)


_LEVI_CIVITA = np.cross(np.eye(3)[:, None], np.eye(3))  # eps_ijk = (e_i x e_j)_k


def l_dot_er_cross_xlm_residual(l: int, theta, phi):
    """|L . (e_r x X_lm)| assembled by the exact operator product rule.

    With V_i = eps_{ijk} rhat_j X_k, each L_i V_i splits into the commutator
    term [L_i, rhat_j] = i eps_{ijm} rhat_m acting multiplicatively plus
    rhat_j (L_i X_k); both pieces are exact ladder evaluations at the point,
    so the returned residual is pure rounding when the identity holds.  The
    two pieces cancel only where rhat . L Y_lm = 0, so unlike the other
    three checks this one tests the harmonic values themselves.
    """
    y = ylm(l, np.arange(-l, l + 1), theta, phi)  # recurs over theta's own shape
    theta, phi = np.broadcast_arrays(*_angles(theta, phi))
    st = np.sin(theta)
    rhat = np.array([st * np.cos(phi), st * np.sin(phi), np.cos(theta)])
    ops = np.tensordot(_CARTESIAN, _ladder(l), 1)  # Lx, Ly, Lz
    x = ops.transpose(0, 2, 1) / math.sqrt(max(l * (l + 1), 1))  # [k, m + l, .]
    x_vals = np.tensordot(x, y, 1)  # X_k of every order
    lx_vals = np.tensordot(np.einsum("iab,kmb->ikma", ops, x), y, 1)  # L_i X_k
    comm = 1j * np.tensordot(_LEVI_CIVITA, rhat, 1)  # [L_i, rhat_j]
    total = np.einsum("ijk,ij...,k...->...", _LEVI_CIVITA, comm, x_vals)
    total += np.einsum("ijk,j...,ik...->...", _LEVI_CIVITA, rhat, lx_vals)
    return np.abs(total)
