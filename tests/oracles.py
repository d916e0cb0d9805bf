"""Independent reference implementations used only by the tests.

Everything here is built from scipy closed forms, mpmath at raised
precision or plain finite differences, never from the package under
test, so agreement is evidence rather than tautology.
"""

import mpmath
import numpy as np
import scipy.special as sp


def ylm_ref(l, m, theta, phi):
    """Scalar spherical harmonic from scipy (Condon-Shortley phase)."""
    return sp.sph_harm_y(l, m, theta, phi)


def spherical_j_ref(l, x):
    if np.iscomplexobj(np.asarray(x)) or isinstance(x, complex):
        # scipy's spherical_jn is real-only; go through the half-integer J
        return np.sqrt(np.pi / (2 * x)) * sp.jv(l + 0.5, x)
    return sp.spherical_jn(l, x)


def spherical_y_ref(l, x):
    if np.iscomplexobj(np.asarray(x)) or isinstance(x, complex):
        return np.sqrt(np.pi / (2 * x)) * sp.yv(l + 0.5, x)
    return sp.spherical_yn(l, x)


def d_xf_ref(kind_ref, l, x):
    """d(x f_l)/dx from scipy derivatives: f + x f'."""
    if kind_ref is spherical_j_ref:
        return sp.spherical_jn(l, x) + x * sp.spherical_jn(l, x, derivative=True)
    return sp.spherical_yn(l, x) + x * sp.spherical_yn(l, x, derivative=True)


def mie_ab(m, x, nmax):
    """Textbook Mie coefficients a_n, b_n, n = 1..nmax.

    Riccati-Bessel functions psi, chi from scipy; the logarithmic
    derivative D_n(mx) by downward recurrence, which stays stable below
    the turning point where upward recursion of psi(mx) does not.
    """
    m = complex(m)
    x = float(x)
    nmx = int(max(nmax, abs(m * x)) + 16)
    d = np.zeros(nmx + 1, dtype=complex)
    for nn in range(nmx, 1, -1):
        d[nn - 1] = nn / (m * x) - 1.0 / (d[nn] + nn / (m * x))
    n = np.arange(1, nmax + 1)
    psi = x * sp.spherical_jn(n, x)
    psi_m = x * sp.spherical_jn(n - 1, x)
    chi = -x * sp.spherical_yn(n, x)
    chi_m = -x * sp.spherical_yn(n - 1, x)
    xi = psi - 1j * chi
    xi_m = psi_m - 1j * chi_m
    a = np.empty(nmax, dtype=complex)
    b = np.empty(nmax, dtype=complex)
    for i, nn in enumerate(n):
        da = d[nn] / m + nn / x
        db = d[nn] * m + nn / x
        a[i] = (da * psi[i] - psi_m[i]) / (da * xi[i] - xi_m[i])
        b[i] = (db * psi[i] - psi_m[i]) / (db * xi[i] - xi_m[i])
    return a, b


def spherical_jy_mp(l, x):
    """(j_l(x), y_l(x)) from mpmath's half-integer Bessel functions."""
    z = mpmath.mpc(x)
    c = mpmath.sqrt(mpmath.pi / (2 * z))
    return complex(c * mpmath.besselj(l + 0.5, z)), complex(c * mpmath.bessely(l + 0.5, z))


def mie_ab_mp(m, x, l):
    """Mie a_l, b_l of a sphere of index m (mu = 1) at size x, from the
    direct Riccati-Bessel formula evaluated in mpmath at 40 digits:

        a_l = (m psi(mx) psi'(x) - psi(x) psi'(mx)) / (m psi(mx) xi'(x) - xi(x) psi'(mx))
        b_l = (psi(mx) psi'(x) - m psi(x) psi'(mx)) / (psi(mx) xi'(x) - m xi(x) psi'(mx))

    with psi(z) = z j_l(z), xi(z) = z h_l^(1)(z) and g'(z) = z f_{l-1} - l f_l.
    """
    with mpmath.workdps(40):
        x, m = mpmath.mpf(x), mpmath.mpc(m)

        def riccati(z, outgoing):
            def f(n):
                c = mpmath.sqrt(mpmath.pi / (2 * z))
                v = c * mpmath.besselj(n + 0.5, z)
                return v + 1j * c * mpmath.bessely(n + 0.5, z) if outgoing else v

            return z * f(l), z * f(l - 1) - l * f(l)

        psi, dpsi = riccati(x, False)
        xi, dxi = riccati(x, True)
        psi_m, dpsi_m = riccati(m * x, False)
        a = (m * psi_m * dpsi - psi * dpsi_m) / (m * psi_m * dxi - xi * dpsi_m)
        b = (psi_m * dpsi - m * psi * dpsi_m) / (psi_m * dxi - m * xi * dpsi_m)
        return complex(a), complex(b)


def curl_fd(field_at, r, th, ph, h_rel=1e-4):
    """Finite-difference curl in the local spherical frame.

    `field_at(r, theta, phi)` must return a length-3 complex array of
    spherical-frame components.  Radial stencil h = h_rel * r, angular
    stencil h_rel radians.
    """
    hr = h_rel * r
    ha = h_rel
    v = field_at(r, th, ph)
    dr = (field_at(r + hr, th, ph) - field_at(r - hr, th, ph)) / (2 * hr)
    dt = (field_at(r, th + ha, ph) - field_at(r, th - ha, ph)) / (2 * ha)
    dp = (field_at(r, th, ph + ha) - field_at(r, th, ph - ha)) / (2 * ha)
    st, ct = np.sin(th), np.cos(th)
    return np.array(
        [
            (ct * v[2] + st * dt[2] - dp[1]) / (r * st),
            dp[0] / (r * st) - (v[2] + r * dr[2]) / r,
            (v[1] + r * dr[1]) / r - dt[0] / r,
        ]
    )


def div_fd(field_at, r, th, ph, h_rel=1e-4):
    """Finite-difference divergence in the local spherical frame."""
    hr = h_rel * r
    ha = h_rel
    v = field_at(r, th, ph)
    dr = (field_at(r + hr, th, ph) - field_at(r - hr, th, ph)) / (2 * hr)
    dt = (field_at(r, th + ha, ph) - field_at(r, th - ha, ph)) / (2 * ha)
    dp = (field_at(r, th, ph + ha) - field_at(r, th, ph - ha)) / (2 * ha)
    st, ct = np.sin(th), np.cos(th)
    return (
        2.0 * v[0] / r
        + dr[0]
        + (ct * v[1] / st + dt[1]) / r
        + dp[2] / (r * st)
    )
