"""Reference values for the benchmark checks, built from scipy and mpmath only.

Nothing here imports tensorwave.  The field conventions are the documented
ones (README "Conventions" and the module docstrings of synthesis and
maxwell_radial):

    field = sum_waves F_lm(theta, phi) @ (v_r, v_theta, v_phi)
    F_lm columns: Y_lm e_r, X_lm, e_r x X_lm
    X_theta = -m Y_lm / (sin(theta) sqrt(l(l+1))),  X_phi = -i dY_lm/dtheta / sqrt(l(l+1))
    H_theta = f1 c1_theta + f2 c2_theta      H_phi = -i/(mu k r) (D1 c1_phi + D2 c2_phi)
    E_theta = f1 c1_phi + f2 c2_phi          E_phi = +i/(eps k r) (D1 c1_theta + D2 c2_theta)
    E_r = -sqrt(l(l+1))/(eps k r) H_theta    H_r = +sqrt(l(l+1))/(mu k r) E_theta

with f the radial function of each kind at x = n k r and D = d(x f)/dx.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import scipy.special as sp


# --- scipy: fields of partial-wave superpositions ---------------------------


def _radial_scipy(kind: str, l: int, x: float):
    """(f_l(x), d(x f_l)/dx) for real x from scipy's spherical Bessel functions."""
    j = sp.spherical_jn(l, x)
    dj = j + x * sp.spherical_jn(l, x, derivative=True)
    if kind == "bessel_j":
        return complex(j), complex(dj)
    y = sp.spherical_yn(l, x)
    dy = y + x * sp.spherical_yn(l, x, derivative=True)
    if kind == "bessel_y":
        return complex(y), complex(dy)
    sign = 1j if kind == "hankel1" else -1j
    return complex(j + sign * y), complex(dj + sign * dy)


def field_at(waves, k: float, eps: float, mu: float, r: float, theta: float, phi: float):
    """(E, H) as local-frame 3-vectors at one point of a lossless medium.

    `waves` holds (l, m, c1, c2, (kind1, kind2)) with complex 2-vectors c1, c2.
    """
    n = math.sqrt(eps * mu)
    x = n * k * r
    e = np.zeros(3, dtype=complex)
    h = np.zeros(3, dtype=complex)
    for l, m, c1, c2, kinds in waves:
        y, dy = sp.sph_harm_y(l, m, theta, phi, diff_n=1)
        root = math.sqrt(l * (l + 1))
        xt = -m * complex(y) / (math.sin(theta) * root)
        xp = -1j * complex(dy[0]) / root
        f1, d1 = _radial_scipy(kinds[0], l, x)
        f2, d2 = _radial_scipy(kinds[1], l, x)
        h_t = f1 * c1[0] + f2 * c2[0]
        h_p = -1j / (mu * k * r) * (d1 * c1[1] + d2 * c2[1])
        e_t = f1 * c1[1] + f2 * c2[1]
        e_p = 1j / (eps * k * r) * (d1 * c1[0] + d2 * c2[0])
        e_r = -root / (eps * k * r) * h_t
        h_r = root / (mu * k * r) * e_t
        for out, (vr, vt, vp) in ((e, (e_r, e_t, e_p)), (h, (h_r, h_t, h_p))):
            out[0] += complex(y) * vr
            out[1] += xt * vt - xp * vp
            out[2] += xp * vt + xt * vp
    return e, h


# --- mpmath: spherical Bessel functions -------------------------------------


def _sph_jy_upward(lmax: int, z):
    """Lists j_0..j_lmax and y_0..y_lmax at mpmath z by the Rayleigh recurrence.

    Upward recursion of j loses about log10(|y_l / j_l|) digits; the caller
    sets the working precision high enough to absorb that.
    """
    s, c = mpmath.sin(z), mpmath.cos(z)
    js = [s / z, s / z**2 - c / z]
    ys = [-c / z, -c / z**2 - s / z]
    for n in range(1, lmax):
        js.append((2 * n + 1) / z * js[n] - js[n - 1])
        ys.append((2 * n + 1) / z * ys[n] - ys[n - 1])
    return js, ys


def _sph_j(l: int, z):
    return mpmath.sqrt(mpmath.pi / (2 * z)) * mpmath.besselj(l + 0.5, z)


def _sph_y(l: int, z):
    return mpmath.sqrt(mpmath.pi / (2 * z)) * mpmath.bessely(l + 0.5, z)


# --- mpmath: propagation through a piecewise profile -------------------------


def _fundamental(l: int, k, r, eps, mu):
    """4x4 solution basis for u = r W in a homogeneous region, (j, y) kinds.

    Rows (rH_theta, rH_phi, rE_theta, rE_phi); columns
    (c1_theta, c1_phi, c2_theta, c2_phi).
    """
    n = mpmath.sqrt(eps * mu)
    if mpmath.im(n) < 0:
        n = -n
    z = n * k * r
    js, ys = _sph_jy_upward(l, z)
    f1, f2 = js[l], ys[l]
    d1 = z * js[l - 1] - l * f1
    d2 = z * ys[l - 1] - l * f2
    ie, im_ = 1j / (eps * k), -1j / (mu * k)
    return mpmath.matrix(
        [
            [r * f1, 0, r * f2, 0],
            [0, im_ * d1, 0, im_ * d2],
            [0, r * f1, 0, r * f2],
            [ie * d1, 0, ie * d2, 0],
        ]
    )


def propagate_ref(l: int, k: float, boundaries, media, r_from: float, r_to: float, w):
    """Tangential state (H_theta, H_phi, E_theta, E_phi) at r_to, plus (E_r, H_r).

    The profile is piecewise constant, so the exact transfer is the product of
    closed-form transfers Phi(b) Phi(a)^-1, one per shell crossed.  `media`
    holds (eps, mu) complex pairs, one more than `boundaries`.
    """
    with mpmath.workdps(60):
        k = mpmath.mpf(k)
        cuts = [b for b in boundaries if r_from < b < r_to]
        stops = [r_from] + cuts + [r_to]
        u = mpmath.matrix([mpmath.mpc(v) * r_from for v in w])
        for a, b in zip(stops, stops[1:]):
            mid = 0.5 * (a + b)
            eps, mu = media[sum(1 for bb in boundaries if bb <= mid)]
            eps, mu = mpmath.mpc(eps), mpmath.mpc(mu)
            a, b = mpmath.mpf(a), mpmath.mpf(b)
            u = _fundamental(l, k, b, eps, mu) * mpmath.lu_solve(
                _fundamental(l, k, a, eps, mu), u
            )
        w1 = [complex(v / r_to) for v in u]
        eps, mu = (complex(v) for v in media[sum(1 for bb in boundaries if bb <= r_to)])
    root = math.sqrt(l * (l + 1))
    e_r = -root / (eps * k * r_to) * w1[0]
    h_r = root / (mu * k * r_to) * w1[2]
    return w1, e_r, h_r


# --- mpmath: Mie coefficients -----------------------------------------------


def mie_ab_ref(m: complex, x: float, l: int):
    """Mie a_l, b_l of a homogeneous non-magnetic sphere (Bohren & Huffman 4.53)."""
    with mpmath.workdps(30):
        x = mpmath.mpf(x)
        mx = mpmath.mpc(m) * x
        m = mpmath.mpc(m)

        def psi(z):
            jl, jm = _sph_j(l, z), _sph_j(l - 1, z)
            return z * jl, z * jm - l * jl

        def xi(z):
            hl = _sph_j(l, z) + 1j * _sph_y(l, z)
            hm = _sph_j(l - 1, z) + 1j * _sph_y(l - 1, z)
            return z * hl, z * hm - l * hl

        p_x, dp_x = psi(x)
        p_m, dp_m = psi(mx)
        x_x, dx_x = xi(x)
        a = (m * p_m * dp_x - p_x * dp_m) / (m * p_m * dx_x - x_x * dp_m)
        b = (p_m * dp_x - m * p_x * dp_m) / (p_m * dx_x - m * x_x * dp_m)
        return complex(a), complex(b)
