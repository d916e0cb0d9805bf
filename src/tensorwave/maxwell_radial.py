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
evolve independently, which is what makes the sphere matching problem a
pair of 2x2 systems.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .specfun import RadialKind, spherical_radial

__all__ = [
    "Medium",
    "RadialProfile",
    "TangentialState",
    "system_matrix",
    "homogeneous_eta_zeta",
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
        if not isinstance(doc, dict):
            raise ValueError("profile document must be an object")
        unknown = set(doc) - {"shells", "outer"}
        if unknown:
            raise ValueError(f"unknown profile keys: {sorted(unknown)}")
        if "outer" not in doc:
            raise ValueError("profile document needs an 'outer' medium")

        def med_of(entry: dict, extra=()) -> Medium:
            bad = set(entry) - {"eps", "mu", *extra}
            if bad:
                raise ValueError(f"unknown medium keys: {sorted(bad)}")
            try:
                eps = complex(entry["eps"][0], entry["eps"][1])
                mu = complex(entry["mu"][0], entry["mu"][1])
            except (KeyError, TypeError, IndexError) as exc:
                raise ValueError(
                    "medium entries need 'eps' and 'mu' as [re, im] pairs"
                ) from exc
            return Medium(eps, mu)

        shells = doc.get("shells", [])
        try:
            boundaries = tuple(float(s["r_out"]) for s in shells)
        except (KeyError, TypeError) as exc:
            raise ValueError("each shell needs a numeric 'r_out'") from exc
        media = tuple(med_of(s, extra=("r_out",)) for s in shells)
        media = media + (med_of(doc["outer"]),)
        return cls(boundaries, media)

    def to_dict(self) -> dict:
        shells = [
            {
                "r_out": b,
                "eps": [m.eps.real, m.eps.imag],
                "mu": [m.mu.real, m.mu.imag],
            }
            for b, m in zip(self.boundaries, self.media)
        ]
        outer = self.media[-1]
        return {
            "shells": shells,
            "outer": {
                "eps": [outer.eps.real, outer.eps.imag],
                "mu": [outer.mu.real, outer.mu.imag],
            },
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


def _radial_pair(kind: RadialKind, l: int, k: float, r: float, med: Medium):
    """f(nkr) and d(r f(nkr))/dr for the given kind."""
    return spherical_radial(kind, l, med.n * k * r)


def homogeneous_eta_zeta(
    l: int,
    kind1: RadialKind,
    kind2: RadialKind,
    k,
    r: float,
    med: Medium,
):
    """The four 2x2 blocks (eta1, eta2, zeta1, zeta2) on (e_theta, e_phi).

    A transverse solution in a homogeneous medium is
    H_t = eta1 c1 + eta2 c2 and E_t = zeta1 c1 + zeta2 c2 with constant
    2-vectors c1, c2:

        eta_i  = f_i ett - (i/(mu k r)) d(r f_i)/dr epp
        zeta_i = f_i etp + (i/(eps k r)) d(r f_i)/dr ept

    where ett = e_theta(x)e_theta, epp = e_phi(x)e_phi, etc., and f_i is
    the radial function of kind_i at argument n k r.
    """
    if l < 1:
        raise ValueError("transverse solutions need l >= 1")
    if r <= 0:
        raise ValueError("r must be positive")
    k = _as_k(k)
    out = []
    for kind in (kind1, kind2):
        f, d_rf = _radial_pair(kind, l, k, r, med)
        out.append((f, d_rf))
    (f1, d1), (f2, d2) = out
    eta1 = np.array([[f1, 0.0], [0.0, -1j * d1 / (med.mu * k * r)]], dtype=complex)
    eta2 = np.array([[f2, 0.0], [0.0, -1j * d2 / (med.mu * k * r)]], dtype=complex)
    zeta1 = np.array([[0.0, f1], [1j * d1 / (med.eps * k * r), 0.0]], dtype=complex)
    zeta2 = np.array([[0.0, f2], [1j * d2 / (med.eps * k * r), 0.0]], dtype=complex)
    return eta1, eta2, zeta1, zeta2


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
    rE_theta, rE_phi).
    """
    if l < 1:
        raise ValueError("transverse solutions need l >= 1")
    if r <= 0:
        raise ValueError("r must be positive")
    k = _as_k(k)
    f1, d1 = _radial_pair(kind1, l, k, r, med)
    f2, d2 = _radial_pair(kind2, l, k, r, med)
    ie, im_ = 1j / (med.eps * k), -1j / (med.mu * k)
    return np.array(
        [
            [r * f1, 0.0, r * f2, 0.0],
            [0.0, im_ * d1, 0.0, im_ * d2],
            [0.0, r * f1, 0.0, r * f2],
            [ie * d1, 0.0, ie * d2, 0.0],
        ],
        dtype=complex,
    )


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


def longitudinal_components(l: int, k, r: float, med: Medium, w: TangentialState):
    """Radial field components (E_r, H_r) reconstructed from W.

    E_r = -sqrt(l(l+1))/(eps k r) H_theta,
    H_r = +sqrt(l(l+1))/(mu  k r) E_theta.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    k = _as_k(k)
    root = math.sqrt(l * (l + 1))
    e_r = -root / (med.eps * k * r) * w.h[1]
    h_r = root / (med.mu * k * r) * w.e[1]
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
    if r_from <= 0 or r_to <= 0:
        raise ValueError("radii must be positive")
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
