"""Deterministic self-check suites behind the `verify` CLI command.

Each suite returns a list of report entries
{"check", "max_error", "tolerance", "pass"}; a suite passes when every
entry does.  Nothing here draws random numbers: angular sample points
come from a Fibonacci lattice, coefficients from fixed per-mode formulas,
so repeated runs are bit-identical.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from .harmonics import (
    QuadratureRule,
    _assemble_f,
    flm_explicit,
    l_dot_er_cross_xlm_residual,
    l_dot_xlm_residual,
    l_squared_check,
    lz_check,
)
from .maxwell_radial import (
    Medium,
    RadialProfile,
    fundamental_matrix,
    propagate,
    system_matrix,
    wtheta_ode_residual,
)
from .specfun import RadialKind, _parts, spherical_radial_seq
from .synthesis import KINDS, WaveTable, synthesize
from .tensor3 import adjoint, det, trace

__all__ = ["run_suite"]

# e_r x in the (r, theta, phi) frame: _ER_CROSS @ a == cross(e_r, a)
_ER_CROSS = np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=complex)


def _entry(name: str, err: float, tol: float) -> dict:
    return {
        "check": name,
        "max_error": float(err),
        "tolerance": float(tol),
        "pass": bool(err <= tol),
    }


def _fib_lattice(n: int):
    """n well-spread deterministic points, poles excluded."""
    i = np.arange(n)
    theta = np.arccos(1.0 - 2.0 * (i + 0.5) / n)
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    phi = (2.0 * math.pi * i / golden) % (2.0 * math.pi)
    return theta, phi


def _modes(lmax: int):
    """(l, m) index arrays of every mode l <= lmax, by l, then m = -l .. l."""
    i = np.arange((lmax + 1) ** 2)
    ls = np.sqrt(i).astype(int)
    return ls, i - ls * (ls + 1)


def _grams(lmax: int, rule: QuadratureRule):
    """Quadrature Gram matrices over every mode l <= lmax, in `_modes` order.

    Returns <Y_a, Y_b>, <X_a, X_b> and the integral of e_r . (X_a* x X_b).
    They fill the blocks of the tensor Gram of F_a^dagger F_b:
    [[gy, 0, 0], [0, gx, -gc], [0, gc, gx]].
    """
    y, xt, xp = _parts(*_modes(lmax), rule.thetas[:, None], rule.phis)
    w = rule.weights[:, None] * (2.0 * math.pi / rule.n_phi)

    def inner(u, v):
        return (u.conj() * w).reshape(len(u), -1) @ v.reshape(len(v), -1).T

    gx = inner(xt, xt) + inner(xp, xp)
    return inner(y, y), gx, inner(xt, xp) - inner(xp, xt)


def ortho_suite(lmax: int = 4, tol: float = 1e-10) -> list:
    """Quadrature orthonormality of the scalar, vector and tensor harmonics."""
    rule = QuadratureRule.for_degree(lmax)
    gy, gx, gc = _grams(lmax, rule)
    eye = np.eye(len(gy))
    eye_x = eye.copy()
    eye_x[0, 0] = 0.0  # X_00 = 0: the (0,0) tensor self-Gram is e_r(x)e_r
    err_y = np.max(np.abs(gy - eye))
    err_f = max(err_y, np.max(np.abs(gx - eye_x)), np.max(np.abs(gc)))
    err_x = np.max(np.abs(gx[1:, 1:] - eye[1:, 1:]))
    err_cross = np.max(np.abs(gc[1:, 1:]))
    fine = _grams(lmax, rule.refined())
    err_conv = max(np.max(np.abs(a - b)) for a, b in zip((gy, gx, gc), fine))

    return [
        _entry("f_gram_identity", err_f, tol),
        _entry("y_orthonormality", err_y, tol),
        _entry("x_orthonormality", err_x, tol),
        _entry("x_cross_product_integral", err_cross, tol),
        _entry("quadrature_convergence", err_conv, 1e-12),
    ]


def invariants_suite(lmax: int = 4, tol: float = 1e-12) -> list:
    """Pointwise tensor identities over every mode at once, operator
    eigenrelations degree by degree, each on the whole 100-point Fibonacci
    lattice at once."""
    thetas, phis = _fib_lattice(100)
    y, xt, xp = _parts(*_modes(lmax), thetas, phis)  # [mode, point]
    fmat = _assemble_f(y, xt, xp)
    explicit = np.concatenate([flm_explicit(l, thetas, phis) for l in range(lmax + 1)])
    s = np.maximum(np.linalg.norm(fmat, axis=(-2, -1)), 1e-30)
    xdotx = xt * xt + xp * xp
    tr, dt, adj = trace(fmat), det(fmat), adjoint(fmat)
    tr_adj, d = trace(adj), dt[..., None, None] * np.eye(3)

    def worst(scale, *residuals):
        return max(float(np.max(r / scale)) for r in residuals)

    def entries(a):
        return np.max(np.abs(a), axis=(-2, -1))

    def degrees(check):
        return worst(1.0, *(check(l, thetas, phis) for l in range(lmax + 1)))

    square = np.abs(trace(fmat @ fmat) - (tr**2 - 2.0 * tr_adj))
    return [
        _entry("trace_identity", worst(s, np.abs(tr - (y + 2.0 * xt))), tol),
        _entry("det_identity", worst(s**3, np.abs(dt - y * xdotx)), tol),
        _entry("adjoint_identity",
               worst(s**3, entries(adj @ fmat - d), entries(fmat @ adj - d)), tol),
        _entry("trace_adjoint_identity",
               worst(s**2, np.abs(tr_adj - (xdotx + 2.0 * y * xt))), tol),
        _entry("trace_square_identity", worst(s**2, square), tol),
        _entry("frame_commutation",
               worst(s, entries(fmat @ _ER_CROSS - _ER_CROSS @ fmat)), 1e-14),
        _entry("construction_paths_agree", worst(s, entries(fmat - explicit)), tol),
        _entry("l_squared_eigenrelation", degrees(l_squared_check), 1e-10),
        _entry("lz_eigenrelation", degrees(lz_check), 1e-10),
        _entry("l_dot_x_relation", degrees(l_dot_xlm_residual), 1e-10),
        _entry("l_dot_er_cross_x_relation",
               degrees(l_dot_er_cross_xlm_residual), 1e-10),
    ]


def _curl_fd(waves, k, med, r, th, ph, h_rel):
    """Central-difference curl of both fields at one point (steps h_rel r, h_rel)."""
    hr, ha = h_rel * r, h_rel
    pts = [
        [r, th, ph],
        [r + hr, th, ph],
        [r - hr, th, ph],
        [r, th + ha, ph],
        [r, th - ha, ph],
        [r, th, ph + ha],
        [r, th, ph - ha],
    ]
    e, h = synthesize(waves, k, med, pts)

    def curl(v):
        v0 = v[0]
        dr = (v[1] - v[2]) / (2 * hr)
        dt = (v[3] - v[4]) / (2 * ha)
        dp = (v[5] - v[6]) / (2 * ha)
        st, ct = math.sin(th), math.cos(th)
        return np.array(
            [
                (ct * v0[2] + st * dt[2] - dp[1]) / (r * st),
                dp[0] / (r * st) - (v0[2] + r * dr[2]) / r,
                (v0[1] + r * dr[1]) / r - dt[0] / r,
            ]
        )

    return e[0], h[0], curl(e), curl(h)


def maxwell_suite(lmax: int = 3, tol: float = 1e-5) -> list:
    """Field-level checks: curl equations, radial ODE, propagator agreement."""
    k = 1.1
    med = Medium(1.0, 1.0)
    ls = np.arange(1, lmax + 1)
    waves = WaveTable(
        ls,
        np.minimum(1, ls - 1),
        np.array([[1.0, 0.5j], [0.3, -0.2j]]) / ls[:, None, None],
        np.tile([KINDS.index(RadialKind.HANKEL1), KINDS.index(RadialKind.HANKEL2)],
                (lmax, 1)),
    )
    err_curl = 0.0
    for r, th, ph in [(1.7, 1.0, 0.7), (2.4, 2.0, 4.0)]:
        # degree l varies on the scales r / l and 1 / l, so the step shrinks
        e0, h0, ce, ch = _curl_fd(waves, k, med, r, th, ph, 2e-4 / (lmax + 1))
        scale_h = np.max(np.abs(k * h0))
        scale_e = np.max(np.abs(k * e0))
        err_curl = max(
            err_curl,
            np.max(np.abs(ce - 1j * k * med.mu * h0)) / scale_h,
            np.max(np.abs(ch + 1j * k * med.eps * e0)) / scale_e,
        )

    med2 = Medium(2.25, 1.0)
    err_ode = 0.0
    for l in range(1, lmax + 1):
        # |n| k h = 0.001 at every l: the O((|n| k h)^2) residual stays flat
        r_mid = max(2.0 * l, 4.0) / (abs(med2.n) * k)
        r = r_mid + np.linspace(-0.2, 0.2, 401) / (abs(med2.n) * k)
        for kind in (RadialKind.BESSEL_J, RadialKind.HANKEL1):
            f = spherical_radial_seq(kind, l, med2.n * k * r)[0][l]
            err_ode = max(err_ode, wtheta_ode_residual(l, k, med2, r, f))

    # the closed-form propagator against an independent integration of
    # d(rW)/dr = i k M (rW) by classical Runge-Kutta, restarted at the shell
    # boundary.  A step spans 0.01 of the local scale max(|n| k, (l + 1) / r),
    # times (r / r_t)^((2l + 1) / 5) below r_t = (l + 1) / (|n| k), where an
    # error in the j_l direction grows as (r_t / r)^(2l + 1) against y_l
    def integrate(l, profile, a, b, w):
        stops = [a] + [r for r in profile.boundaries if a < r < b] + [b]
        u, one = w * a, np.eye(4)
        for lo, hi in zip(stops, stops[1:]):
            med = profile.medium_at(0.5 * (lo + hi))
            nk = abs(med.n) * k
            rs = [lo]
            while rs[-1] < hi:
                shrink = min(1.0, rs[-1] * nk / (l + 1)) ** ((2 * l + 1) / 5)
                rs.append(rs[-1] + 0.01 * shrink / max(nk, (l + 1) / rs[-1]))
            rs[-1] = hi
            # i k M at every node and midpoint, and the map of each step
            half = np.interp(np.arange(2 * len(rs) - 1) / 2, np.arange(len(rs)), rs)
            m = 1j * k * np.array([system_matrix(l, k, r, med) for r in half])
            m1, m2, m3, h = m[:-1:2], m[1::2], m[2::2], np.diff(rs)[:, None, None]
            k2 = m2 @ (one + h / 2 * m1)
            k3 = m2 @ (one + h / 2 * k2)
            for step in one + h / 6 * (m1 + 2 * k2 + 2 * k3 + m3 @ (one + h * k3)):
                u = step @ u
        return u / b

    err_prop = 0.0
    a, b = 0.5 / k, 10.0 / k
    prof2 = RadialProfile((3.0 / k,), (Medium(2.25, 1.0), Medium(1.0, 1.21)))
    for l in range(1, min(lmax, 4) + 1):
        phi0 = fundamental_matrix(
            l, RadialKind.BESSEL_J, RadialKind.BESSEL_Y, k, a, med2
        )
        c = np.array([1.0, -0.5j, 0.25, 1.5j]) / l
        w0 = phi0 @ c / a
        for profile in (RadialProfile.uniform(med2), prof2):
            got = propagate(l, k, profile, a, b, w0)
            ref = integrate(l, profile, a, b, w0)
            err_prop = max(err_prop, np.max(np.abs(got - ref)) / np.max(np.abs(ref)))

    return [
        _entry("curl_equations", err_curl, tol),
        _entry("wtheta_ode_residual", err_ode, 1e-6),
        _entry("propagate_vs_closed_form", err_prop, 1e-8),
    ]


# each suite with the largest lmax it takes: ortho's Grams take lmax^6 flops
# in one BLAS product each (0.2-1.5 s, 78 MB traced peak at 12), invariants
# 0.4-0.6 s at 24, and maxwell's steps shrink with l (about 1 s at 99)
_SUITES = {
    "ortho": (ortho_suite, 12),
    "invariants": (invariants_suite, 24),
    "maxwell": (maxwell_suite, 99),
}


def run_suite(name: str, lmax: int | None = None, tol: float | None = None) -> tuple:
    """Dispatch a named suite with optional overrides of lmax and tolerance.

    Returns (lmax, entries): the lmax the suite ran at, its own default
    when none is given, and its report entries.  An lmax outside 1 .. the
    suite's cap raises ValueError before anything runs.
    """
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(_SUITES)}")
    suite, cap = _SUITES[name]
    if lmax is None:
        lmax = inspect.signature(suite).parameters["lmax"].default
    elif not 1 <= lmax <= cap:
        raise ValueError(f"lmax for suite {name} must be in 1 .. {cap}, got {lmax}")
    kwargs = {"lmax": lmax}
    if tol is not None:
        if not 0 < tol < math.inf:
            raise ValueError("tolerance must be positive and finite")
        kwargs["tol"] = tol
    return lmax, suite(**kwargs)
