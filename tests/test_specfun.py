import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    radial_mp,
    scaled_radial_mp,
    spherical_hankel_mp,
    spherical_j_ref,
    spherical_jy_mp,
    spherical_y_ref,
    ylm_ref,
)
from tensorwave.harmonics import _ladder
from tensorwave.maxwell_radial import _pair_seqs
from tensorwave.specfun import (
    ModeIndex,
    RadialKind,
    _f_and_d,
    _radial_pair,
    spherical_radial_seq,
    ylm,
)


def radial(kind, l, x):
    """Entry l of `spherical_radial_seq`: f_l(x) and d(x f_l)/dx."""
    f, d = spherical_radial_seq(kind, l, x)
    return complex(f[l]), complex(d[l])

modes = st.integers(min_value=0, max_value=12).flatmap(
    lambda l: st.integers(min_value=-l, max_value=l).map(lambda m: ModeIndex(l, m))
)
angles = st.tuples(
    st.floats(min_value=0.0, max_value=math.pi),
    st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True),
)


def test_mode_index_validation():
    assert ModeIndex(3, -2).l == 3
    with pytest.raises(ValueError, match="l must be >= 0"):
        ModeIndex(-1, 0)
    with pytest.raises(ValueError, match=r"\|m\| <= l"):
        ModeIndex(1, 2)
    with pytest.raises(ValueError, match="integers"):
        ModeIndex(1.5, 0)


def test_ylm_constant_mode():
    want = 1.0 / math.sqrt(4.0 * math.pi)
    for th, ph in [(0.3, 0.0), (2.0, 4.1), (math.pi, 1.0)]:
        assert ylm(ModeIndex(0, 0), th, ph) == pytest.approx(want, abs=1e-15)
    assert want == pytest.approx(0.2820947917738781, abs=1e-16)


def test_ylm_dipole_at_pole():
    got = ylm(ModeIndex(1, 0), 0.0, 0.0)
    assert got == pytest.approx(math.sqrt(3.0 / (4.0 * math.pi)), abs=1e-15)
    assert got == pytest.approx(0.4886025119, abs=1e-10)


def test_ylm_range_check():
    with pytest.raises(ValueError, match="theta"):
        ylm(ModeIndex(1, 0), -0.2, 0.0)
    with pytest.raises(ValueError, match="theta"):
        ylm(ModeIndex(1, 0), math.pi + 0.2, 0.0)
    with pytest.raises(ValueError, match="got nan"):
        ylm(ModeIndex(1, 0), np.array([0.5, math.nan]), 0.0)
    with pytest.raises(ValueError, match="phi must be finite, got nan"):
        ylm(ModeIndex(1, 1), 1.0, math.nan)
    with pytest.raises(ValueError, match="phi must be finite, got -inf"):
        ylm(ModeIndex(2, -1), np.array([0.5, 1.0]), np.array([0.0, -math.inf]))


def test_a_harmonic_past_the_double_range_raises_naming_its_mode_and_angle():
    # the sectoral seed of order 22,000 leaves the double range below
    # theta ~ 1.2, and the recurrence in l then gave nan (16 of these 39
    # angles) and 3.37e180, with RuntimeWarnings, where |Y| is O(1)
    thetas = math.pi * (np.arange(39) + 0.5) / 39
    with pytest.raises(OverflowError, match=r"^the harmonic \(l, m\) = \(25000, 22000\) "
                       r"at theta = 0\.6041524333826525 leaves the double range$"):
        ylm(ModeIndex(25000, 22000), thetas[:, None], np.zeros((1, 2)))


def test_ylm_normalization_all_l_up_to_8():
    # Gauss-Legendre in cos(theta); exact for these integrands
    x, w = np.polynomial.legendre.leggauss(24)
    theta = np.arccos(x)[:, None]
    phi = 2.0 * math.pi * np.arange(48)[None, :] / 48
    for l in range(9):
        for m in range(-l, l + 1):
            vals = np.broadcast_to(
                np.asarray(ylm(ModeIndex(l, m), theta, phi)), (24, 48)
            )
            integral = np.sum(w[:, None] * np.abs(vals) ** 2) * (2 * math.pi / 48)
            assert integral == pytest.approx(1.0, abs=1e-13)


@settings(max_examples=150)
@given(modes, angles)
def test_ylm_matches_scipy(mode, ang):
    th, ph = ang
    got = ylm(mode, th, ph)
    want = ylm_ref(mode.l, mode.m, th, ph)
    assert got == pytest.approx(want, abs=1e-12)


@settings(max_examples=150)
@given(modes, angles)
def test_ylm_conjugation_symmetry(mode, ang):
    th, ph = ang
    flipped = ylm(ModeIndex(mode.l, -mode.m), th, ph)
    assert flipped == pytest.approx(
        (-1) ** mode.m * np.conj(ylm(mode, th, ph)), abs=1e-13
    )


def test_ladder_explicit_cases():
    # harmonics._ladder: the (2l+1)-square L+, L-, Lz over Y_{l,-l} .. Y_{l,l}
    lp, lm, lz = _ladder(1)
    assert lp.shape == (3, 3) and not lp[:, 2].any()  # L+ Y_11 = 0
    assert lp[2, 1] == pytest.approx(math.sqrt(2.0))  # L+ Y_10 -> Y_11
    assert np.count_nonzero(lp) == 2 and np.array_equal(lm, lp.T)
    assert np.array_equal(lz, np.diag([-1.0, 0.0, 1.0]))
    lp, lm, _ = _ladder(2)
    assert lm[0, 1] == pytest.approx(2.0)  # L- Y_{2,-1} -> Y_{2,-2}
    assert not lm[:, 0].any()  # L- Y_{2,-2} = 0
    assert _ladder(0)[0].shape == (1, 1) and not any(a.any() for a in _ladder(0))


@given(modes)
def test_ladder_round_trip(mode):
    l, m = mode.l, mode.m
    lp, lm, _ = _ladder(l)
    down_up = np.diag(lm @ lp)
    assert down_up[l + m] == pytest.approx((l - m) * (l + m + 1), rel=1e-13, abs=0)
    # L- L+ is diagonal: each Y_lm comes back to itself
    assert np.array_equal(lm @ lp, np.diag(down_up))


@settings(max_examples=100)
@given(modes, angles)
def test_ladder_action_matches_scipy(mode, ang):
    th, ph = ang
    l = mode.l
    coeffs = _ladder(l)[0][:, l + mode.m]  # L+ Y_lm over Y_{l,-l} .. Y_{l,l}
    orders = range(-l, l + 1)
    want = sum(c * ylm_ref(l, mp, th, ph) for mp, c in zip(orders, coeffs))
    got = sum(c * ylm(ModeIndex(l, mp), th, ph) for mp, c in zip(orders, coeffs))
    assert got == pytest.approx(want, abs=1e-12)
    if mode.m < l:
        assert coeffs[l + mode.m + 1] == pytest.approx(
            math.sqrt((l - mode.m) * (l + mode.m + 1)), rel=1e-15
        )


def test_spherical_radial_closed_forms():
    f, d = radial(RadialKind.BESSEL_J, 0, 1.0)
    assert f == pytest.approx(math.sin(1.0), rel=1e-15)
    assert f == pytest.approx(0.8414709848, abs=1e-10)
    assert d == pytest.approx(math.cos(1.0), rel=1e-14)
    f, _ = radial(RadialKind.BESSEL_Y, 0, 2.0)
    assert f == pytest.approx(-math.cos(2.0) / 2.0, rel=1e-14)


def test_spherical_radial_at_zero():
    f, d = radial(RadialKind.BESSEL_J, 0, 0.0)
    assert f == 1.0 and d == 1.0
    for l in (1, 2, 7):
        f, d = radial(RadialKind.BESSEL_J, l, 0.0)
        assert f == 0.0 and d == 0.0
    for kind in (RadialKind.BESSEL_Y, RadialKind.HANKEL1, RadialKind.HANKEL2):
        with pytest.raises(ValueError, match="singular"):
            radial(kind, 0, 0.0)


def test_spherical_radial_small_x_regular():
    for l in (1, 3, 6):
        f, _ = radial(RadialKind.BESSEL_J, l, 1e-8)
        assert abs(f) < 1e-8


@pytest.mark.parametrize("l", range(0, 13))
@pytest.mark.parametrize("x", [0.5, 1.0, 5.0, 20.0])
def test_spherical_radial_matches_scipy(l, x):
    fj, dj = radial(RadialKind.BESSEL_J, l, x)
    fy, dy = radial(RadialKind.BESSEL_Y, l, x)
    assert fj == pytest.approx(spherical_j_ref(l, x), rel=1e-12, abs=1e-280)
    assert fy == pytest.approx(spherical_y_ref(l, x), rel=1e-12)
    h1, _ = radial(RadialKind.HANKEL1, l, x)
    h2, _ = radial(RadialKind.HANKEL2, l, x)
    assert h1 == pytest.approx(fj + 1j * fy, rel=1e-13)
    assert h2 == pytest.approx(fj - 1j * fy, rel=1e-13)
    # derivative combination against scipy's f'
    import scipy.special as sp

    assert dj == pytest.approx(
        sp.spherical_jn(l, x) + x * sp.spherical_jn(l, x, derivative=True),
        rel=1e-11,
        abs=1e-280,
    )
    assert dy == pytest.approx(
        sp.spherical_yn(l, x) + x * sp.spherical_yn(l, x, derivative=True),
        rel=1e-11,
    )


@pytest.mark.parametrize("x", [0.8 + 0.3j, 2.0 + 1.5j, 5.0 + 0.01j])
@pytest.mark.parametrize("l", [0, 1, 4, 9])
def test_spherical_radial_complex_argument(l, x):
    fj, _ = radial(RadialKind.BESSEL_J, l, x)
    fy, _ = radial(RadialKind.BESSEL_Y, l, x)
    assert fj == pytest.approx(spherical_j_ref(l, x), rel=1e-11)
    assert fy == pytest.approx(spherical_y_ref(l, x), rel=1e-11)


@pytest.mark.parametrize(
    "kind",
    [RadialKind.BESSEL_J, RadialKind.BESSEL_Y, RadialKind.HANKEL1, RadialKind.HANKEL2],
)
@pytest.mark.parametrize("x", [0.5, 1.0, 5.0, 20.0])
def test_recurrence_consistency(kind, x):
    for l in range(1, 12):
        f_lo, _ = radial(kind, l - 1, x)
        f_mid, _ = radial(kind, l, x)
        f_hi, _ = radial(kind, l + 1, x)
        lhs = f_lo + f_hi
        rhs = (2 * l + 1) / x * f_mid
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-280 * abs(f_mid))


def test_wronskian_identity():
    x = 2.0
    for l in range(7):
        fj, dj = radial(RadialKind.BESSEL_J, l, x)
        fy, dy = radial(RadialKind.BESSEL_Y, l, x)
        # d(xf)/dx = f + x f'  =>  f' = (d - f) / x
        jp = (dj - fj) / x
        yp = (dy - fy) / x
        assert fj * yp - jp * fy == pytest.approx(1.0 / x**2, rel=1e-12)


@pytest.mark.parametrize(
    "x", [1e-3, 0.5, 7.3, 50.0, 1000.0, 1e4, 3.0 + 10j, 1000.0 + 10j, 1e4 + 10j]
)
def test_bessel_j_sequence_matches_mpmath_at_large_argument(x):
    # below the turning point j_l and y_l share one envelope, so the error
    # is measured against |j_l| + |y_l|; a Miller start too close to |x|
    # left j_1(1000) off by 2.4e-3 on this scale
    f, _ = spherical_radial_seq(RadialKind.BESSEL_J, 200, x)
    for l in (0, 1, 5, 40, 100, 200):
        j, y = spherical_jy_mp(l, x)
        assert abs(f[l] - j) <= 1e-13 * (abs(j) + abs(y))


@pytest.mark.parametrize("lmax", [1, 4, 16])
@pytest.mark.parametrize("complex_arg", [False, True])
def test_bessel_j_matches_its_series_at_tiny_argument(lmax, complex_arg):
    # j_1 = j_0/x - cos(x)/x cancels to rounding of size eps/|x| below
    # |x| ~ 1e-16, and one Miller step grows the trial values by up to
    # 2^1000 at |x| = 1e-300: normalizing on it gave j_0(1e-42) = -4.6e68,
    # and a fixed rescale overflowed ("bessel_j overflowed ... l=0")
    rng = np.random.default_rng(lmax + 100 * complex_arg)
    x = 10.0 ** rng.uniform(-300.0, -8.0, 300)
    if complex_arg:
        x = x * np.exp(1j * rng.uniform(0.0, math.pi / 2, 300))
    tiny = np.finfo(float).tiny

    def j(v):
        return spherical_radial_seq(RadialKind.BESSEL_J, lmax, v)[0]

    # one call for every x at once, and single x (a scalar lane)
    for f in (j(x), np.array([j(v) for v in x[:10]]).T):
        for xv, col in zip(x, f.T):
            z = mpmath.mpc(xv)
            for l, got in enumerate(col):
                # x^l / (2l+1)!! (1 - x^2 / (2(2l+3))); the next term is below 1e-32
                want = complex(z**l / mpmath.fac2(2 * l + 1) * (1 - z**2 / (4 * l + 6)))
                if abs(want) >= tiny:
                    assert abs(got - want) <= 1e-14 * abs(want), (xv, l)
                else:
                    assert abs(got) < tiny, (xv, l)


def test_bessel_j_takes_its_series_below_the_split_of_one_over_x():
    # below |x| = 2^-997 the split of 1/x overflowed, and every j_l read
    # "bessel_j overflowed at x=(1e-302+0j), l=0" though j_0 = 1 there
    tiny = [1e-302, 1e-307, 1e-310, 5e-324]
    f, d = spherical_radial_seq(RadialKind.BESSEL_J, 4, np.array(tiny))
    for i, x in enumerate(tiny):
        want = [x**l / math.prod(range(1, 2 * l + 2, 2)) for l in range(5)]
        np.testing.assert_allclose(f[:, i], want, rtol=1e-15, atol=0)
        np.testing.assert_allclose(d[:, i], np.arange(1, 6) * f[:, i], rtol=1e-15,
                                   atol=0)
    assert f[0].tolist() == d[0].tolist() == [1.0] * 4
    # arguments above the bound take the recursion, untouched by the tiny
    # ones in their batch
    near = [2.0**-996, 1e-300, 1e-20, 0.5 + 0.5j, 30.0]
    alone = spherical_radial_seq(RadialKind.BESSEL_J, 6, np.array(near))
    mixed = spherical_radial_seq(RadialKind.BESSEL_J, 6, np.array(near + tiny))
    for got, want in zip(mixed, alone):
        assert got[:, :len(near)].tobytes() == want.tobytes()


@pytest.mark.parametrize("x", [1e-302, 1e-305, 1e-302j, 1e-305j])
@pytest.mark.parametrize("kind", [RadialKind.BESSEL_Y, RadialKind.HANKEL2])
def test_singular_kinds_are_finite_below_the_split_of_one_over_x(kind, x):
    # they read "bessel_y overflowed at x=(1e-302+0j), l=0" though y_0 =
    # -cos(x)/x is finite there: the j part they are formed from held nan
    z = mpmath.mpc(x)
    if kind is RadialKind.BESSEL_Y:
        want_f, want_d = -mpmath.cos(z) / z, mpmath.sin(z)
    else:
        want_f, want_d = 1j * mpmath.exp(-1j * z) / z, mpmath.exp(-1j * z)
    f, d = spherical_radial_seq(kind, 0, x)
    assert abs(f[0] - complex(want_f)) <= 1e-15 * abs(complex(want_f))
    assert abs(d[0] - complex(want_d)) <= 1e-15 * abs(complex(want_d))
    # y_1 and h2_1 are of size 1/x^2, past the double range
    with pytest.raises(OverflowError, match=f"{kind.value} overflowed at .*, l=1:"):
        spherical_radial_seq(kind, 1, x)


@pytest.mark.parametrize("x", [1e-20j, 1e-300j, 1e-8 * (1 + 1j), 1e-3j,
                               -1e-20j, 1e-8 * (1 - 1j), -1e-3j])
def test_bessel_y_derivative_at_small_complex_argument(x):
    # d(x y_0)/dx = sin(x) came from x y_-1 = x i (j_-1 - h1_-1), two terms
    # of size 1 that cancel: it read 0 at 1e-20j and 1e-300j
    want = complex(mpmath.sin(mpmath.mpc(x)))
    d = spherical_radial_seq(RadialKind.BESSEL_Y, 0, x)[1]
    assert abs(d[0] - want) <= 1e-15 * abs(want)


@pytest.mark.parametrize("x", [50 + 11.4j, 20 + 30j, 5 + 40j])
@pytest.mark.parametrize(
    "kind, sign", [(RadialKind.HANKEL1, 1), (RadialKind.HANKEL2, -1)]
)
def test_hankel_sequence_matches_mpmath_at_complex_argument(kind, sign, x):
    # formed as j_l + i y_l, h1 cancelled to e^{-2 Im x} of its terms:
    # h1_1(20+30i) was off by 6e9 relative, h1_5(50+11.4i) by 6e-7
    f, d = spherical_radial_seq(kind, 40, x)
    for l in range(41):
        h, dh = spherical_hankel_mp(sign, l, x)
        assert abs(f[l] - h) <= 1e-13 * abs(h)
        assert abs(d[l] - dh) <= 1e-13 * abs(dh)


def scaled_pair(x, lmax):
    """(f_l, d(x f_l)/dx) for l = 0 .. lmax of e^{ix} j_l and e^{-ix} h1_l
    at the array x from one pass, and below the real axis their
    conjugates at conj x: e^{-ix} j_l and e^{ix} h2_l."""
    xs = np.atleast_1d(np.asarray(x, dtype=complex))
    low = xs.imag < 0
    z = np.where(low, xs.conj(), xs)
    j, h1 = _radial_pair(z, [lmax, lmax], scaled=True)
    return tuple(
        tuple(np.where(low, v.conj(), v) for v in _f_and_d(name, z, g))
        for name, g in (("bessel_j", j), ("hankel1", h1))
    )


X_UPPER = [0.3 + 0.1j, 7.0, 20 + 30j, 3 + 800j]


@pytest.mark.parametrize("kind, x", [
    *((RadialKind.BESSEL_J, x) for x in [*X_UPPER, 3 - 800j]),
    *((RadialKind.HANKEL1, x) for x in X_UPPER),
    (RadialKind.HANKEL2, 3 - 800j),
])
def test_scaled_sequence_matches_mpmath(kind, x):
    # the factor keeps every value in range, even where e^{|Im x|} is not;
    # below the real axis the conjugated pair is e^{-ix} j and e^{ix} h2
    j, h = scaled_pair(x, 10)
    f, d = j if kind is RadialKind.BESSEL_J else h
    for l in (0, 1, 5, 10):
        g, dg = scaled_radial_mp(kind.value, l, x)
        assert abs(f[l, 0] - g) <= 1e-13 * abs(g)
        assert abs(d[l, 0] - dg) <= 1e-13 * abs(dg)


@pytest.mark.parametrize("kind, xs", [
    (RadialKind.HANKEL1, [3 + 800j, 1 - 1j]),
    (RadialKind.HANKEL2, [3 - 800j, 1 + 1j]),
])
def test_mixed_half_plane_batch_matches_its_elements(kind, xs):
    # h1 takes j only below the real axis and h2 only above; j is past the
    # double range at |Im x| = 800, where neither kind may read it
    f, d = spherical_radial_seq(kind, 5, xs)
    assert np.isfinite(f).all() and np.isfinite(d).all()
    for i, x in enumerate(xs):
        fs, ds = spherical_radial_seq(kind, 5, x)
        assert (np.abs(f[:, i] - fs) <= 1e-14 * np.abs(fs)).all(), x
        assert (np.abs(d[:, i] - ds) <= 1e-14 * np.abs(ds)).all(), x


def test_sequence_entries_agree_for_every_kind():
    # an entry does not depend on how far the sequence runs
    x = 3.7 + 0.2j
    for kind in RadialKind:
        f, d = spherical_radial_seq(kind, 9, x)
        for l in (0, 4, 9):
            assert (f[l], d[l]) == pytest.approx(radial(kind, l, x), rel=1e-14)


def test_overflow_signaled():
    with pytest.raises(OverflowError):
        radial(RadialKind.BESSEL_Y, 80, 1e-4)
    with pytest.raises(OverflowError):
        spherical_radial_seq(RadialKind.HANKEL1, 80, 1e-4)


@pytest.mark.parametrize("kind", list(RadialKind))
@pytest.mark.parametrize(
    "x, shown",
    [
        (math.nan, "(nan+0j)"),
        (math.inf, "(inf+0j)"),
        (-math.inf, "(-inf+0j)"),
        (complex(1.0, math.inf), "(1+infj)"),
        (np.array([0.5, 2.0 + 1j, math.nan, 3.0]), "(nan+0j)"),
    ],
)
def test_non_finite_argument_is_rejected(kind, x, shown):
    # one ValueError naming the argument, for every kind and the scaled pair;
    # before, the Miller start or the overflow check failed on it unevenly
    want = "x must be finite, got x=" + shown
    with pytest.raises(ValueError) as info:
        spherical_radial_seq(kind, 5, x)
    assert str(info.value) == want
    with pytest.raises(ValueError) as info:
        scaled_pair(x, 5)
    assert str(info.value) == want


# one batch spanning |x| from 1e-3 to 1e3, real and complex with |Im x| up
# to 10 on both sides of the real axis: the Miller start comes from the
# largest |x|, which every other argument must tolerate
X_BATCH = np.array([
    1e-3, 0.004 - 0.002j, 0.01 + 0.03j, 0.5 + 10j, 0.7 - 3j, 2.5, 1.7 + 0.2j,
    10 + 10j, 30 - 10j, 63.1 + 4j, 150.0, 250 - 10j, 500 + 0.5j, 731.1,
    1e3 - 10j, 1e3 + 10j,
])
X_SCALED = np.array(
    [0.3 + 0.1j, 7.0, 20 + 30j, 3 + 300j, 3 - 300j, 80 - 150j, 250 + 299j]
)


@pytest.fixture(scope="module")
def batch_mp():
    return [[radial_mp(l, x) for l in range(41)] for x in X_BATCH]


@pytest.mark.parametrize("kind", list(RadialKind))
def test_sequence_over_an_array_of_arguments_matches_mpmath(kind, batch_mp):
    # entries are compared against |j| + |y|: below the turning point j_l
    # and y_l share one envelope.  y_l at x = 0.5+10i was off by 3.6e-8 of
    # it from upward recursion alone
    f, d = spherical_radial_seq(kind, 40, X_BATCH)
    assert f.shape == d.shape == (41, len(X_BATCH))
    for i, x in enumerate(X_BATCH):
        fs, ds = spherical_radial_seq(kind, 40, x)
        for l in range(41):
            values, env, denv = batch_mp[i][l]
            want, dwant = values[kind.value]
            assert abs(f[l, i] - want) <= 1e-13 * env, (x, l)
            assert abs(d[l, i] - dwant) <= 1e-13 * denv, (x, l)
            # the batch agrees with the call for its element alone, which
            # starts Miller recursion from that element's |x|
            assert abs(f[l, i] - fs[l]) <= 1e-14 * env, (x, l)
            assert abs(d[l, i] - ds[l]) <= 1e-14 * denv, (x, l)


@pytest.mark.parametrize("scaled", [False, True])
def test_radial_pair_is_bessel_j_and_hankel1_bit_for_bit(scaled):
    # one pass of the builder every radial basis uses makes j and h1, each
    # exactly as a pass for it alone and, unscaled, as its own kind, past
    # Im x = 300
    xs = np.array([0.3 + 0.1j, 7.0, 20 + 30j, 3 + 300j, 250 + 299j, 40 + 310j,
                   1e3 + 10j, 5 + 650j])
    pair = _pair_seqs(xs, (30, 30), scaled)
    for i, kind in enumerate((RadialKind.BESSEL_J, RadialKind.HANKEL1)):
        wants = [_pair_seqs(xs, (30, -1) if i == 0 else (-1, 30), scaled)[i]]
        if not scaled:
            wants.append(spherical_radial_seq(kind, 30, xs))
        for want in wants:
            assert all(a.tobytes() == b.tobytes() for a, b in zip(pair[i], want))


@pytest.mark.parametrize(
    "kind", [RadialKind.BESSEL_J, RadialKind.HANKEL1, RadialKind.HANKEL2]
)
def test_scaled_sequence_over_an_array_of_arguments(kind):
    # the Hankel part is checked where it is `kind`: h1 above the real
    # axis, h2 below
    j, h = scaled_pair(X_SCALED, 20)
    low = X_SCALED.imag < 0
    if kind is RadialKind.BESSEL_J:
        (f, d), part, at = j, 0, np.ones_like(low)
    else:
        (f, d), part, at = h, 1, low if kind is RadialKind.HANKEL2 else ~low
    assert at.any()
    for i in np.flatnonzero(at):
        x = X_SCALED[i]
        fs, ds = scaled_pair(x, 20)[part]
        for l in range(21):
            g, dg = scaled_radial_mp(kind.value, l, x)
            assert abs(f[l, i] - g) <= 1e-13 * abs(g), (x, l)
            assert abs(d[l, i] - dg) <= 1e-13 * abs(dg), (x, l)
            assert abs(f[l, i] - fs[l, 0]) <= 1e-14 * abs(g), (x, l)
            assert abs(d[l, i] - ds[l, 0]) <= 1e-14 * abs(dg), (x, l)


def test_sequence_keeps_the_shape_of_its_argument():
    x = np.array([[0.5, 1.0 + 1j, 7.0], [2.0, 30.0, 0.1j]])
    for kind in RadialKind:
        f, d = spherical_radial_seq(kind, 5, x)
        assert f.shape == d.shape == (6, 2, 3)
        fs, ds = spherical_radial_seq(kind, 5, x[1, 2])
        assert fs.shape == ds.shape == (6,)
        assert np.allclose(f[:, 1, 2], fs, rtol=1e-14)


def test_sequence_over_an_array_with_zero():
    f, d = spherical_radial_seq(RadialKind.BESSEL_J, 4, [0.0, 2.0, 0.0])
    for i in (0, 2):
        assert f[:, i].tolist() == d[:, i].tolist() == [1, 0, 0, 0, 0]
    assert np.allclose(f[:, 1], spherical_radial_seq(RadialKind.BESSEL_J, 4, 2.0)[0])
    for kind in (RadialKind.BESSEL_Y, RadialKind.HANKEL1, RadialKind.HANKEL2):
        with pytest.raises(ValueError, match=f"{kind.value} is singular"):
            spherical_radial_seq(kind, 4, [1.0, 0.0])


@pytest.mark.parametrize(
    "kind, xs, bad",
    [
        # large l at small |x|: one element of the batch leaves the range
        (RadialKind.HANKEL1, [1.0, 2.0 + 1j, 1e-4, 3.0], "(0.0001+0j)"),
        (RadialKind.BESSEL_Y, [0.5, 1e-4 + 1e-5j, 1e-4], "(0.0001+1e-05j)"),
        # sin and cos past the double range, unscaled
        (RadialKind.BESSEL_J, [1.0, 1080 + 720j, 2.0], "(1080+720j)"),
    ],
)
def test_overflow_in_one_element_names_it(kind, xs, bad):
    with pytest.raises(OverflowError) as info:
        spherical_radial_seq(kind, 80, np.array(xs))
    assert str(info.value).startswith(f"{kind.value} overflowed at x={bad}, l=")


def test_radial_kind_values():
    assert RadialKind("bessel_j") is RadialKind.BESSEL_J
    assert RadialKind("bessel_y") is RadialKind.BESSEL_Y
    assert RadialKind("hankel1") is RadialKind.HANKEL1
    assert RadialKind("hankel2") is RadialKind.HANKEL2
