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
    the turning point where upward recursion of psi(mx) does not.  It
    starts past that turning point by a margin growing like |mx|^(1/3),
    as Miller recursion in `specfun._miller` does: a fixed margin of 16
    left b_n off by 2.2 relative at m = 1.33, x = 1000.
    """
    m = complex(m)
    x = float(x)
    top = abs(m * x)
    nmx = int(max(nmax, top) + 16 + 10.0 * (top / 2.0) ** (1.0 / 3.0))
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


def _shells(profile, r_from, r_to):
    """(a, b, eps, mu) for each piece of [r_from, r_to] inside one medium.

    `profile` is anything with `boundaries` and `media` (each medium with
    `eps` and `mu`), or a bare medium.
    """
    bounds = tuple(getattr(profile, "boundaries", ()))
    media = tuple(getattr(profile, "media", (profile,)))
    lo, hi = min(r_from, r_to), max(r_from, r_to)
    cuts = [b for b in bounds if lo < b < hi]
    stops = [r_from] + (cuts if r_to > r_from else cuts[::-1]) + [r_to]
    out = []
    for a, b in zip(stops, stops[1:]):
        med = media[sum(1 for bb in bounds if bb <= 0.5 * (a + b))]
        out.append((a, b, complex(med.eps), complex(med.mu)))
    return out


def propagate_rk(l, k, profile, r_from, r_to, w):
    """Tangential state (H_theta, H_phi, E_theta, E_phi) at r_to by
    integrating d(rW)/dr = i k M (rW) with scipy's DOP853 at rtol 3e-14,
    atol 1e-15, restarted at every shell boundary:

        M = [[0, eps A], [-mu A, 0]],  A = [[0, -1], [1 - q, 0]],
        q = l(l+1) / (eps mu k^2 r^2).
    """
    from scipy.integrate import solve_ivp

    u = np.asarray(w, dtype=complex) * r_from
    for a, b, eps, mu in _shells(profile, r_from, r_to):

        def rhs(r, uu, eps=eps, mu=mu):
            q = l * (l + 1) / (eps * mu * k * k * r * r)
            at = np.array([-uu[3], (1.0 - q) * uu[2]])  # A (E_theta, E_phi)
            ah = np.array([-uu[1], (1.0 - q) * uu[0]])  # A (H_theta, H_phi)
            return 1j * k * np.concatenate([eps * at, -mu * ah])

        sol = solve_ivp(rhs, (a, b), u, method="DOP853", rtol=3e-14, atol=1e-15)
        assert sol.success, sol.message
        u = sol.y[:, -1]
    return u / r_to


def _jy_mp(l, z):
    """(j_l, d(z j_l)/dz, y_l, d(z y_l)/dz) at the working precision."""
    c = mpmath.sqrt(mpmath.pi / (2 * z))
    j, jm = (c * mpmath.besselj(n + 0.5, z) for n in (l, l - 1))
    y, ym = (c * mpmath.bessely(n + 0.5, z) for n in (l, l - 1))
    return j, z * jm - l * j, y, z * ym - l * y


def spherical_hankel_mp(sign, l, x):
    """(h_l, d(x h_l)/dx) for h = j + i sign y, with enough digits for
    j and y to cancel to e^{-2|Im x|} of their size."""
    with mpmath.workdps(30 + int(abs(complex(x).imag))):
        j, dj, y, dy = _jy_mp(l, mpmath.mpc(x))
        return complex(j + 1j * sign * y), complex(dj + 1j * sign * dy)


def radial_mp(l, x):
    """{kind value: (f_l, d(x f_l)/dx)} for the four radial kinds, and the
    envelopes |j_l| + |y_l| and |d(x j_l)/dx| + |d(x y_l)/dx| that errors
    are measured against, with enough digits for j and y to cancel to
    e^{-2|Im x|} of their size in the Hankel kinds."""
    with mpmath.workdps(30 + int(abs(complex(x).imag))):
        j, dj, y, dy = _jy_mp(l, mpmath.mpc(x))
        values = {
            "bessel_j": (j, dj),
            "bessel_y": (y, dy),
            "hankel1": (j + 1j * y, dj + 1j * dy),
            "hankel2": (j - 1j * y, dj - 1j * dy),
        }
        return (
            {kind: (complex(f), complex(d)) for kind, (f, d) in values.items()},
            float(abs(j) + abs(y)),
            float(abs(dj) + abs(dy)),
        )


def scaled_radial_mp(kind, l, x):
    """(f_l, d(x f_l)/dx) times the factor of the scaled radial pair
    (`specfun._radial_pair` with `scaled`, conjugated below the real
    axis): for "bessel_j" e^{ix} where Im x >= 0 and e^{-ix} elsewhere,
    of modulus e^{-|Im x|}, e^{-ix} for "hankel1" and e^{ix} for
    "hankel2"."""
    with mpmath.workdps(30 + int(abs(complex(x).imag))):
        z = mpmath.mpc(x)
        j, dj, y, dy = _jy_mp(l, z)
        if kind == "bessel_j":
            w = mpmath.exp((1j if z.imag >= 0 else -1j) * z)
            return complex(w * j), complex(w * dj)
        sign = 1 if kind == "hankel1" else -1
        w = mpmath.exp(-1j * sign * z)
        return complex(w * (j + 1j * sign * y)), complex(w * (dj + 1j * sign * dy))


def propagate_mp(l, k, profile, r_from, r_to, w):
    """Tangential state at r_to as the product of closed-form transfers
    Phi(b) Phi(a)^-1 in the (j, y) basis, one per shell, in mpmath.

    The (j, y) basis loses digits two ways: |y_l / j_l| grows like
    ((2l-1)!!)^2 / |x|^(2l+1) below the turning point, and j, y cancel to
    e^{-2|Im x|} of their size in absorbing media.  So the working
    precision is 30 digits plus twice the largest of those losses at any
    shell end (60 fixed digits return about 1e53 for a value of 1e39 at
    l = 40, |x| = 0.75).
    """
    shells = _shells(profile, r_from, r_to)

    def index(eps, mu):
        n = mpmath.sqrt(eps * mu)
        return -n if mpmath.im(n) < 0 or (mpmath.im(n) == 0 and mpmath.re(n) < 0) else n

    lost = 0.0
    with mpmath.workdps(20):
        for a, b, eps, mu in shells:
            n = index(mpmath.mpc(eps), mpmath.mpc(mu))
            for r in (a, b):
                z = n * k * r
                j, _, y, _ = _jy_mp(l, z)
                spread = abs(mpmath.log10(abs(y)) - mpmath.log10(abs(j)))
                lost = max(lost, float(spread + 2 * abs(mpmath.im(z)) / mpmath.log(10)))
    with mpmath.workdps(30 + int(2 * lost)):
        k = mpmath.mpf(k)
        u = mpmath.matrix([mpmath.mpc(v) * r_from for v in w])
        for a, b, eps, mu in shells:
            eps, mu = mpmath.mpc(eps), mpmath.mpc(mu)
            n = index(eps, mu)

            def basis(r):
                j, dj, y, dy = _jy_mp(l, n * k * r)
                ie, im_ = 1j / (eps * k), -1j / (mu * k)
                return mpmath.matrix(
                    [
                        [r * j, 0, r * y, 0],
                        [0, im_ * dj, 0, im_ * dy],
                        [0, r * j, 0, r * y],
                        [ie * dj, 0, ie * dy, 0],
                    ]
                )

            u = basis(mpmath.mpf(b)) * mpmath.lu_solve(basis(mpmath.mpf(a)), u)
        return np.array([complex(v / r_to) for v in u])


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
