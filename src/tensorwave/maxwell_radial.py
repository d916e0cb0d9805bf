"""Radial side of the field separation: the first-order tangential system,
closed-form solutions in homogeneous media, longitudinal reconstruction,
and a numerical propagator for piecewise-radial material profiles.

State convention
----------------
The tangential state W packs (H_theta, H_phi, E_theta, E_phi) at radius r.
The integrated variable is u = r*W, which obeys du/dr = i k M(r) u with

    M = [[0, eps*A], [-mu*A, 0]],   A = [[0, -1], [1 - q, 0]],
    q = l(l+1) / (eps*mu*k^2*r^2),

on the (theta, phi) tangential pair.  Time dependence is exp(-i*omega*t)
with k = omega/c, so Hankel-1 radial functions are outgoing.

The two polarizations never couple: (H_theta, E_phi) and (H_phi, E_theta)
evolve independently, so each column of the solution basis touches only
one of the two pairs.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .parsing import _pair, complex_pair, real, require_keys
from .specfun import RadialKind, spherical_radial

__all__ = [
    "Medium",
    "RadialProfile",
    "TangentialState",
    "system_matrix",
    "fundamental_matrix",
    "transfer_closed_form",
    "longitudinal_components",
    "propagate",
    "wtheta_ode_residual",
    "radial_flux",
]


@dataclass(frozen=True)
class Medium:
    """Homogeneous isotropic medium with relative permittivity and permeability."""

    eps: complex
    mu: complex

    def __post_init__(self):
        eps, mu = complex(self.eps), complex(self.mu)
        if eps == 0 or mu == 0:
            raise ValueError("eps and mu must be nonzero")
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "mu", mu)

    @classmethod
    def from_dict(cls, doc, what: str = "medium", extra=()) -> "Medium":
        """Build from {"eps": [re, im], "mu": [re, im]}; keys named in
        `extra` are allowed and left to the caller."""
        require_keys(doc, ("eps", "mu"), extra, what=what)
        return cls(
            complex_pair(doc["eps"], f"{what} eps"),
            complex_pair(doc["mu"], f"{what} mu"),
        )

    def to_dict(self) -> dict:
        return {"eps": _pair(self.eps), "mu": _pair(self.mu)}

    @property
    def n(self) -> complex:
        """Refractive index sqrt(eps*mu), branch fixed so Im(n) >= 0.

        With the exp(-i*omega*t) convention this makes h^(1)(n k r) decay
        in absorbing media, i.e. outgoing waves lose energy outward.
        """
        n = cmath.sqrt(self.eps * self.mu)
        if n.imag < 0 or (n.imag == 0 and n.real < 0):
            n = -n
        return n


def _as_k(k) -> float:
    kk = float(k)
    if not kk > 0:
        raise ValueError(f"wavenumber must be > 0, got {kk}")
    return kk


@dataclass(frozen=True)
class RadialProfile:
    """Piecewise-constant radial material layout.

    `boundaries` holds the outer radii of the inner shells in strictly
    increasing order; `media` has one more entry than `boundaries`, the
    last one filling everything outside the final boundary.  The innermost
    shell starts at r = 0.  A smooth profile is represented by many thin
    shells.
    """

    boundaries: tuple
    media: tuple

    def __post_init__(self):
        bs = tuple(float(b) for b in self.boundaries)
        ms = tuple(self.media)
        if any(not isinstance(m, Medium) for m in ms):
            raise ValueError("media must be Medium instances")
        if len(ms) != len(bs) + 1:
            raise ValueError("need exactly len(boundaries) + 1 media")
        if any(b <= 0 for b in bs):
            raise ValueError("shell boundaries must be positive")
        if any(b2 <= b1 for b1, b2 in zip(bs, bs[1:])):
            raise ValueError("shell boundaries must be strictly increasing")
        object.__setattr__(self, "boundaries", bs)
        object.__setattr__(self, "media", ms)

    @classmethod
    def uniform(cls, med: Medium) -> "RadialProfile":
        return cls((), (med,))

    @classmethod
    def from_dict(cls, doc: dict) -> "RadialProfile":
        """Build from {"shells": [{"r_out", "eps": [re, im], "mu": [re, im]}...],
        "outer": {"eps": ..., "mu": ...}}."""
        require_keys(doc, ("outer",), ("shells",), what="profile")
        shells = doc.get("shells", [])
        if not isinstance(shells, list):
            raise ValueError("profile 'shells' must be a list")
        for shell in shells:
            require_keys(shell, ("r_out", "eps", "mu"), what="shell")
        return cls(
            tuple(real(shell["r_out"], "shell r_out") for shell in shells),
            tuple(Medium.from_dict(shell, extra=("r_out",)) for shell in shells)
            + (Medium.from_dict(doc["outer"]),),
        )

    def to_dict(self) -> dict:
        return {
            "shells": [
                {"r_out": b, **m.to_dict()}
                for b, m in zip(self.boundaries, self.media)
            ],
            "outer": self.media[-1].to_dict(),
        }

    def medium_at(self, r: float) -> Medium:
        if r < 0:
            raise ValueError("radius must be >= 0")
        return self.media[bisect.bisect_right(self.boundaries, r)]


@dataclass(frozen=True, eq=False)
class TangentialState:
    """Tangential field pair (H_t, E_t) at one radius; e_r parts are zero."""

    h: np.ndarray
    e: np.ndarray

    def __post_init__(self):
        for name in ("h", "e"):
            v = np.array(getattr(self, name), dtype=complex)
            if v.shape != (3,):
                raise ValueError(f"{name} must have shape (3,)")
            if v[0] != 0:
                raise ValueError(f"{name} must have zero e_r component")
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    @classmethod
    def from_components(cls, h_theta, h_phi, e_theta, e_phi) -> "TangentialState":
        return cls(
            np.array([0.0, h_theta, h_phi], dtype=complex),
            np.array([0.0, e_theta, e_phi], dtype=complex),
        )

    @classmethod
    def from_vector4(cls, w) -> "TangentialState":
        w = np.asarray(w, dtype=complex)
        if w.shape != (4,):
            raise ValueError("expected a 4-vector (H_theta, H_phi, E_theta, E_phi)")
        return cls.from_components(w[0], w[1], w[2], w[3])

    def as_vector4(self) -> np.ndarray:
        return np.array([self.h[1], self.h[2], self.e[1], self.e[2]])


def _tangential_a(l: int, k: float, r: float, med: Medium) -> np.ndarray:
    q = l * (l + 1) / (med.eps * med.mu * k * k * r * r)
    return np.array([[0.0, -1.0], [1.0 - q, 0.0]], dtype=complex)


def system_matrix(l: int, k, r: float, med: Medium) -> np.ndarray:
    """Coefficient matrix M of the tangential system d(rW)/dr = i k M (rW)."""
    if l < 1:
        raise ValueError("the tangential system needs l >= 1")
    if r <= 0:
        raise ValueError("r must be positive (centrifugal term diverges at 0)")
    k = _as_k(k)
    a = _tangential_a(l, k, r, med)
    m = np.zeros((4, 4), dtype=complex)
    m[0:2, 2:4] = med.eps * a
    m[2:4, 0:2] = -med.mu * a
    return m


def _basis(f1, d1, f2, d2, k: float, r, med: Medium) -> np.ndarray:
    """The 4x4 solution basis Phi on u = r W from the radial values of two kinds.

    f_i and d_i = d(r f_i)/dr are the kind_i radial function and its
    derivative at argument n k r.  A transverse solution in a homogeneous
    medium is u = Phi (c1, c2) with constant coefficient 2-vectors c1, c2
    on (e_theta, e_phi):

        H_t = f_i c_theta e_theta - (i/(mu k r)) d_i c_phi e_phi
        E_t = f_i c_phi e_theta + (i/(eps k r)) d_i c_theta e_phi

    summed over i.  Columns correspond to (c1_theta, c1_phi, c2_theta,
    c2_phi), rows to (rH_theta, rH_phi, rE_theta, rE_phi).  The inputs and
    r broadcast together; the result has their shape followed by (4, 4).
    """
    f1, d1, f2, d2, r = np.broadcast_arrays(f1, d1, f2, d2, r)
    ie, im_ = 1j / (med.eps * k), -1j / (med.mu * k)
    phi = np.zeros(f1.shape + (4, 4), dtype=complex)
    phi[..., 0, 0] = phi[..., 2, 1] = r * f1
    phi[..., 0, 2] = phi[..., 2, 3] = r * f2
    phi[..., 1, 1] = im_ * d1
    phi[..., 1, 3] = im_ * d2
    phi[..., 3, 0] = ie * d1
    phi[..., 3, 2] = ie * d2
    return phi


def fundamental_matrix(
    l: int,
    kind1: RadialKind,
    kind2: RadialKind,
    k,
    r: float,
    med: Medium,
) -> np.ndarray:
    """4x4 solution basis of the system in the variable u = r W.

    Columns correspond to the coefficient unit vectors
    (c1_theta, c1_phi, c2_theta, c2_phi); rows to (rH_theta, rH_phi,
    rE_theta, rE_phi).  See `_basis` for the entries.
    """
    if l < 1:
        raise ValueError("transverse solutions need l >= 1")
    if r <= 0:
        raise ValueError("r must be positive")
    k = _as_k(k)
    x = med.n * k * r
    f1, d1 = spherical_radial(kind1, l, x)
    f2, d2 = (f1, d1) if kind2 is kind1 else spherical_radial(kind2, l, x)
    return _basis(f1, d1, f2, d2, k, r, med)


def transfer_closed_form(
    l: int,
    k,
    r_from: float,
    r_to: float,
    med: Medium,
    kinds: tuple = (RadialKind.BESSEL_J, RadialKind.BESSEL_Y),
) -> np.ndarray:
    """Closed-form transfer matrix on u = rW across a homogeneous region."""
    phi_to = fundamental_matrix(l, kinds[0], kinds[1], k, r_to, med)
    phi_from = fundamental_matrix(l, kinds[0], kinds[1], k, r_from, med)
    try:
        return phi_to @ np.linalg.inv(phi_from)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"degenerate radial basis {kinds} at r={r_from}"
        ) from exc


def longitudinal_components(l: int, k, r, med: Medium, w):
    """Radial field components (E_r, H_r) reconstructed from the tangential state.

    `w` holds (H_theta, H_phi, E_theta, E_phi) along its last axis; its
    leading shape broadcasts against r.

    E_r = -sqrt(l(l+1))/(eps k r) H_theta,
    H_r = +sqrt(l(l+1))/(mu  k r) E_theta.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("r must be positive")
    k = _as_k(k)
    w = np.asarray(w, dtype=complex)
    root = math.sqrt(l * (l + 1))
    e_r = -root / (med.eps * k * r) * w[..., 0]
    h_r = root / (med.mu * k * r) * w[..., 2]
    return e_r, h_r


def propagate(
    l: int,
    k,
    profile,
    r_from: float,
    r_to: float,
    w_init: TangentialState,
) -> TangentialState:
    """Integrate the tangential system from r_from to r_to.

    `profile` may be a RadialProfile or a bare Medium.  Integration runs
    on u = rW with an adaptive 8th-order Runge-Kutta pair at
    rtol 3e-14 / atol 1e-15, split at every shell boundary so the
    coefficient matrix stays smooth within each segment.  Inward
    integration (r_to < r_from) is allowed.
    """
    if l < 1:
        raise ValueError(
            "l = 0 carries no transverse field (X_00 vanishes); "
            "the tangential system is defined for l >= 1"
        )
    if isinstance(profile, Medium):
        profile = RadialProfile.uniform(profile)
    k = _as_k(k)
    if not (0 < r_from < math.inf and 0 < r_to < math.inf):
        raise ValueError(f"radii must be positive and finite, got {r_from}, {r_to}")
    if r_from == r_to:
        return w_init

    lo, hi = min(r_from, r_to), max(r_from, r_to)
    cuts = [b for b in profile.boundaries if lo < b < hi]
    stops = [r_from] + (cuts if r_to > r_from else cuts[::-1]) + [r_to]

    u = w_init.as_vector4() * r_from
    for a, b in zip(stops, stops[1:]):
        med = profile.medium_at(0.5 * (a + b))

        def rhs(r, uu, med=med):
            return 1j * k * (system_matrix(l, k, r, med) @ uu)

        sol = solve_ivp(
            rhs, (a, b), u, method="DOP853", rtol=3e-14, atol=1e-15, dense_output=False
        )
        if not sol.success:
            raise RuntimeError(f"radial integration failed on [{a}, {b}]: {sol.message}")
        u = sol.y[:, -1]
    return TangentialState.from_vector4(u / r_to)


def wtheta_ode_residual(l: int, k, med: Medium, r, f) -> float:
    """Relative finite-difference residual of the second-order form.

    Checks whether u = r*f satisfies u'' + (k^2 eps mu - l(l+1)/r^2) u = 0
    on a uniform grid of radii using the central second difference.
    Returns max |residual| / max|potential term|, which is O(h^2) for a
    true solution and O(1) for anything else.
    """
    k = _as_k(k)
    r = np.asarray(r, dtype=float)
    f = np.asarray(f, dtype=complex)
    if r.ndim != 1 or r.shape != f.shape or len(r) < 5:
        raise ValueError("need matching 1-d arrays with at least 5 samples")
    h = r[1] - r[0]
    if h <= 0 or np.max(np.abs(np.diff(r) - h)) > 1e-9 * abs(h):
        raise ValueError("radial grid must be uniform and increasing")
    if abs(med.n) * k * h > 0.05:
        raise ValueError(
            "grid too coarse for the oscillation scale: need |n| k h <= 0.05"
        )
    u = r * f
    d2 = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h)
    pot = (k * k * med.eps * med.mu - l * (l + 1) / r[1:-1] ** 2) * u[1:-1]
    scale = np.max(np.abs(pot)) + np.max(np.abs(d2))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(d2 + pot)) / scale)


def radial_flux(r: float, w: TangentialState) -> float:
    """Radial power flux r^2 Re(E_theta H_phi* - E_phi H_theta*).

    For real eps, mu this is independent of r along any solution of the
    tangential system (energy conservation), a useful integration check.
    """
    return float(r * r * (w.e[1] * np.conj(w.h[2]) - w.e[2] * np.conj(w.h[1])).real)
