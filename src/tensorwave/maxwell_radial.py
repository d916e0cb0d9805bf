"""Radial side of the field separation: the first-order tangential system,
closed-form solutions in homogeneous media, longitudinal reconstruction,
and the exact propagator for piecewise-constant radial profiles, a
product of one closed-form transfer per shell.

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

from .parsing import complex_pair, real, require_keys
from .specfun import RadialKind, spherical_radial_seq

# the smallest normal double: below it j_l has lost precision to gradual underflow
_TINY = np.finfo(float).tiny

__all__ = [
    "Medium",
    "RadialProfile",
    "system_matrix",
    "fundamental_matrix",
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

    def medium_at(self, r: float) -> Medium:
        if r < 0:
            raise ValueError("radius must be >= 0")
        return self.media[bisect.bisect_right(self.boundaries, r)]


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


def _tangential(f1, d1, f2, d2, k: float, r, med: Medium, c) -> tuple:
    """u = r W of the transverse solution with coefficients c, from the
    radial values of two kinds.

    f_i and d_i = d(r f_i)/dr are the kind_i radial function and its
    derivative at argument n k r.  A transverse solution in a homogeneous
    medium has constant coefficient 2-vectors c1, c2 on (e_theta, e_phi):

        H_t = f_i c_theta e_theta - (i/(mu k r)) d_i c_phi e_phi
        E_t = f_i c_phi e_theta + (i/(eps k r)) d_i c_theta e_phi

    summed over i.  `c` holds (c1_theta, c1_phi, c2_theta, c2_phi) on its
    last axis; the result is the four arrays (rH_theta, rH_phi, rE_theta,
    rE_phi), over the broadcast shape of the inputs and c[..., 0].
    """
    c = np.asarray(c)
    ie, im_ = 1j / (med.eps * k), -1j / (med.mu * k)
    return (
        r * (f1 * c[..., 0] + f2 * c[..., 2]),
        im_ * (d1 * c[..., 1] + d2 * c[..., 3]),
        r * (f1 * c[..., 1] + f2 * c[..., 3]),
        ie * (d1 * c[..., 0] + d2 * c[..., 2]),
    )


def _basis(f1, d1, f2, d2, k: float, r, med: Medium) -> np.ndarray:
    """The 4x4 solution basis Phi on u = r W: `_tangential` of the unit
    coefficient vectors, one per column.

    Columns correspond to (c1_theta, c1_phi, c2_theta, c2_phi), rows to
    (rH_theta, rH_phi, rE_theta, rE_phi).  The inputs and r broadcast
    together; the result has their shape followed by (4, 4).
    """
    f1, d1, f2, d2, r = (np.asarray(v)[..., None] for v in (f1, d1, f2, d2, r))
    return np.stack(_tangential(f1, d1, f2, d2, k, r, med, np.eye(4)), axis=-2)


def fundamental_matrix(
    l,
    kind1: RadialKind,
    kind2: RadialKind,
    k,
    r: float,
    med: Medium,
) -> np.ndarray:
    """4x4 solution basis of the system in the variable u = r W.

    Columns correspond to the coefficient unit vectors
    (c1_theta, c1_phi, c2_theta, c2_phi); rows to (rH_theta, rH_phi,
    rE_theta, rE_phi).  See `_tangential` for the entries.  `l` may be an
    array of degrees; the result then has its shape followed by (4, 4),
    from one `spherical_radial_seq` per kind up to the largest l.
    """
    ls = np.asarray(l)
    if np.any(ls < 1):
        raise ValueError("transverse solutions need l >= 1")
    if not r > 0:
        raise ValueError("r must be positive")
    k = _as_k(k)
    x = med.n * k * r
    lmax = int(ls.max())
    f1, d1 = spherical_radial_seq(kind1, lmax, x)
    f2, d2 = (f1, d1) if kind2 is kind1 else spherical_radial_seq(kind2, lmax, x)
    return _basis(f1[ls], d1[ls], f2[ls], d2[ls], k, r, med)


def _transfers(l: int, k: float, shells) -> list:
    """Transfer matrices T on u = rW across each homogeneous (r_from,
    r_to, med) of `shells`, from one scaled sequence per kind for all of
    their ends.

    T = Phi(r_to) Phi(r_from)^-1 for any solution basis Phi.  The basis
    is the regular and outgoing pair (j, h1), which stays well
    conditioned for every n k r in the upper half plane: below the
    turning point h1 ~ i y dominates j, and where the field oscillates
    in an absorbing medium h1 decays as e^{-Im(n k r)} while j grows as
    e^{+Im(n k r)}.  The pairs (j, y) and (h1, h2) each become nearly
    dependent in one of those regions.  The exponential factors are
    taken out of the basis and applied as the phases e^{-+i n k (r_to -
    r_from)}, so thick absorbing regions stay in the double range.
    """
    with np.errstate(over="ignore"):
        phases = [
            np.exp(np.array([-1, -1, 1, 1]) * 1j * med.n * k * (b - a))
            for a, b, med in shells
        ]
    for (a, b, _), phase in zip(shells, phases):
        if not np.all(np.isfinite(phase)):
            raise OverflowError(f"transfer across [{a}, {b}] overflows")
    ends = [(r, med) for a, b, med in shells for r in (b, a)]
    x = np.array([med.n * k * r for r, med in ends])
    f1, d1 = spherical_radial_seq(RadialKind.BESSEL_J, l, x, scaled=True)
    f2, d2 = spherical_radial_seq(RadialKind.HANKEL1, l, x, scaled=True)
    small = ~(np.abs(f1[l]) > _TINY)
    if small.any():
        bad = complex(x[np.argmax(small)])
        raise OverflowError(f"bessel_j underflowed at l={l}, x={bad}")
    phis = [
        _basis(f1[l, i], d1[l, i], f2[l, i], d2[l, i], k, r, med)
        for i, (r, med) in enumerate(ends)
    ]
    out = []
    for i, (a, _, _) in enumerate(shells):
        try:
            out.append(phis[2 * i] * phases[i] @ np.linalg.inv(phis[2 * i + 1]))
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"degenerate radial basis at r={a}") from exc
    return out


def longitudinal_components(l, k, r, med: Medium, w):
    """Radial field components (E_r, H_r) reconstructed from the tangential state.

    `w` holds (H_theta, H_phi, E_theta, E_phi) along its last axis; its
    leading shape broadcasts against r and the degree l, which may be an
    array.

    E_r = -sqrt(l(l+1))/(eps k r) H_theta,
    H_r = +sqrt(l(l+1))/(mu  k r) E_theta.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("r must be positive")
    k = _as_k(k)
    w = np.asarray(w, dtype=complex)
    l = np.asarray(l)
    root = np.sqrt(l * (l + 1.0))
    e_r = -root / (med.eps * k * r) * w[..., 0]
    h_r = root / (med.mu * k * r) * w[..., 2]
    return e_r, h_r


def propagate(
    l: int,
    k,
    profile,
    r_from: float,
    r_to: float,
    w,
) -> np.ndarray:
    """Carry the tangential state w = (H_theta, H_phi, E_theta, E_phi)
    from r_from to r_to; returns the state at r_to as a (4,) array.

    `profile` may be a RadialProfile or a bare Medium.  The profile is
    piecewise constant, so the exact transfer is the product of one
    closed-form transfer per shell crossed (`_transfers`), from one
    scaled sequence per kind for every shell; W is continuous across
    every boundary.
    Inward propagation (r_to < r_from) is allowed.  Raises OverflowError
    when a radial function or the state leaves the double range.
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
    w = np.array(w, dtype=complex)
    if w.shape != (4,):
        raise ValueError("w must be a 4-vector (H_theta, H_phi, E_theta, E_phi)")
    if r_from == r_to:
        return w

    lo, hi = min(r_from, r_to), max(r_from, r_to)
    cuts = [b for b in profile.boundaries if lo < b < hi]
    stops = [r_from] + (cuts if r_to > r_from else cuts[::-1]) + [r_to]

    shells = [
        (a, b, profile.medium_at(0.5 * (a + b))) for a, b in zip(stops, stops[1:])
    ]
    u = w * r_from
    with np.errstate(over="ignore", invalid="ignore"):
        for t in _transfers(l, k, shells):
            u = t @ u
    if not np.all(np.isfinite(u)):
        raise OverflowError(f"the state at r={r_to} leaves the double range")
    return u / r_to


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


def radial_flux(r, w):
    """Radial power flux r^2 Re(E_theta H_phi* - E_phi H_theta*).

    `w` holds (H_theta, H_phi, E_theta, E_phi) along its last axis, its
    leading shape broadcasting against r.  For real eps, mu the flux is
    independent of r along any solution of the tangential system (energy
    conservation), a useful integration check.
    """
    w = np.asarray(w, dtype=complex)
    flux = w[..., 2] * np.conj(w[..., 1]) - w[..., 3] * np.conj(w[..., 0])
    return (np.square(r) * flux).real
