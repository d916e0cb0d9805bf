import math

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
from tensorwave.specfun import (
    ModeIndex,
    RadialKind,
    _f_and_d,
    _radial_pair,
    ladder_minus,
    ladder_plus,
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
    coeff, shifted = ladder_plus(ModeIndex(1, 1))
    assert coeff == 0.0 and shifted is None
    coeff, shifted = ladder_plus(ModeIndex(1, 0))
    assert coeff == pytest.approx(math.sqrt(2.0)) and shifted == ModeIndex(1, 1)
    coeff, shifted = ladder_minus(ModeIndex(2, -1))
    assert coeff == pytest.approx(2.0) and shifted == ModeIndex(2, -2)
    coeff, shifted = ladder_minus(ModeIndex(2, -2))
    assert coeff == 0.0 and shifted is None


@given(modes)
def test_ladder_round_trip(mode):
    l, m = mode.l, mode.m
    up, up_mode = ladder_plus(mode)
    if up_mode is None:
        assert m == l
        return
    down, down_mode = ladder_minus(up_mode)
    assert down_mode == mode
    assert up * down == pytest.approx((l - m) * (l + m + 1), rel=1e-13)


@settings(max_examples=100)
@given(modes, angles)
def test_ladder_action_matches_scipy(mode, ang):
    th, ph = ang
    coeff, shifted = ladder_plus(mode)
    if shifted is not None:
        want = coeff * ylm_ref(shifted.l, shifted.m, th, ph)
        got = coeff * ylm(shifted, th, ph)
        assert got == pytest.approx(want, abs=1e-12)


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


@pytest.mark.parametrize("x", [0.3 + 0.1j, 7.0, 20 + 30j, 3 + 800j, 3 - 800j])
@pytest.mark.parametrize(
    "kind", [RadialKind.BESSEL_J, RadialKind.HANKEL1, RadialKind.HANKEL2]
)
def test_scaled_sequence_matches_mpmath(kind, x):
    # the factor keeps every value in range, even where e^{|Im x|} is not
    f, d = spherical_radial_seq(kind, 10, x, scaled=True)
    for l in (0, 1, 5, 10):
        g, dg = scaled_radial_mp(kind.value, l, x)
        assert abs(f[l] - g) <= 1e-13 * abs(g)
        assert abs(d[l] - dg) <= 1e-13 * abs(dg)


def test_scaled_sequence_rejects_bessel_y():
    with pytest.raises(ValueError, match="no scaled form"):
        spherical_radial_seq(RadialKind.BESSEL_Y, 3, 1.0, scaled=True)


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
    # one ValueError naming the argument, for every kind, scaled or not;
    # before, the Miller start or the overflow check failed on it unevenly
    want = "x must be finite, got x=" + shown
    with pytest.raises(ValueError) as info:
        spherical_radial_seq(kind, 5, x)
    assert str(info.value) == want
    if kind is not RadialKind.BESSEL_Y:
        with pytest.raises(ValueError) as info:
            spherical_radial_seq(kind, 5, x, scaled=True)
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
    # in the upper half plane the pair (j, h^(t)) is (j, h1); one call
    # builds both, and each matches its own kind exactly, past |Im x| = 300
    xs = np.array([0.3 + 0.1j, 7.0, 20 + 30j, 3 + 300j, 250 + 299j, 40 + 310j,
                   1e3 + 10j, 5 + 650j])
    t, (j_at, j), (h_at, h) = _radial_pair(xs, [(30, 30), (30, 30)], scaled)
    assert t.tolist() == [1.0] * len(xs) and j_at.all() and h_at.all()
    h = h if scaled else h * np.exp(1j * t * xs)
    for kind, seq in ((RadialKind.BESSEL_J, j), (RadialKind.HANKEL1, h)):
        got = _f_and_d(kind.value, xs, seq)
        want = spherical_radial_seq(kind, 30, xs, scaled=scaled)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


@pytest.mark.parametrize(
    "kind", [RadialKind.BESSEL_J, RadialKind.HANKEL1, RadialKind.HANKEL2]
)
def test_scaled_sequence_over_an_array_of_arguments(kind):
    f, d = spherical_radial_seq(kind, 20, X_SCALED, scaled=True)
    for i, x in enumerate(X_SCALED):
        fs, ds = spherical_radial_seq(kind, 20, x, scaled=True)
        for l in range(21):
            g, dg = scaled_radial_mp(kind.value, l, x)
            assert abs(f[l, i] - g) <= 1e-13 * abs(g), (x, l)
            assert abs(d[l, i] - dg) <= 1e-13 * abs(dg), (x, l)
            assert abs(f[l, i] - fs[l]) <= 1e-14 * abs(g), (x, l)
            assert abs(d[l, i] - ds[l]) <= 1e-14 * abs(dg), (x, l)


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
