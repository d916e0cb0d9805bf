import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import ylm_ref
from tensorwave.harmonics import (
    QuadratureRule,
    _CARTESIAN,
    _ladder,
    flm,
    flm_explicit,
    l_dot_er_cross_xlm_residual,
    l_dot_xlm_residual,
    l_squared_check,
    lz_check,
    xlm,
)
from tensorwave.specfun import ModeIndex, _norm_legendre, _theta_columns, ylm
from tensorwave.tensor3 import adjoint, det, trace

E_R = np.eye(3)[0]
ER_CROSS = np.cross(E_R, np.eye(3)).T  # ER_CROSS @ a == cross(E_R, a)

modes = st.integers(min_value=0, max_value=8).flatmap(
    lambda l: st.integers(min_value=-l, max_value=l).map(lambda m: ModeIndex(l, m))
)
# (theta, phi) pairs
interior_points = st.tuples(
    st.floats(min_value=0.05, max_value=math.pi - 0.05),
    st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True),
)

SAMPLES = [(0.4, 0.9), (1.0, 0.3), (1.9, 2.5), (2.8, 5.7)]

# the four eigenrelation checks, each with the bound of its verify entry
CHECKS = [
    (l_squared_check, 1e-10),
    (lz_check, 1e-10),
    (l_dot_xlm_residual, 1e-10),
    (l_dot_er_cross_xlm_residual, 1e-10),
]
# functions of a degree, returning every order along a first axis
DEGREE_FUNCTIONS = [flm_explicit] + [check for check, _ in CHECKS]


def test_angles_are_validated():
    # theta in [0, pi] (NaN fails) and a finite phi, for every angle function
    calls = [(xlm, ModeIndex(2, 1)), (flm, ModeIndex(2, 1))]
    for fn, arg in calls + [(fn, 2) for fn in DEGREE_FUNCTIONS]:
        for theta in (-0.1, math.pi + 0.1, math.nan):
            with pytest.raises(ValueError, match="theta"):
                fn(arg, np.array([1.0, theta]), 0.3)
        for phi in (math.nan, math.inf):
            with pytest.raises(ValueError, match="phi"):
                fn(arg, 1.0, np.array([0.3, phi]))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=30),
    st.lists(st.floats(min_value=0.05, max_value=math.pi - 0.05), min_size=1,
             max_size=3),
    st.lists(st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True),
             min_size=1, max_size=3),
)
def test_degree_checks_return_every_order_under_their_bound(l, thetas, phis):
    thetas, phis = np.array(thetas)[:, None], np.array(phis)[None, :]
    shape = (2 * l + 1, thetas.size, phis.size)
    assert flm_explicit(l, thetas, phis).shape == shape + (3, 3)
    for check, bound in CHECKS:
        residual = check(l, thetas, phis)
        assert residual.shape == shape
        assert np.all(residual < bound)


def test_quadrature_rule_invariants():
    rule = QuadratureRule.for_degree(3)
    assert len(rule.cos_nodes) == 8 and rule.n_phi == 16
    assert rule.weights.sum() == pytest.approx(2.0, abs=1e-14)
    assert np.all(rule.weights > 0)
    fine = rule.refined()
    assert len(fine.cos_nodes) == 16 and fine.n_phi == 32
    # integrates a known function: cos^2 theta over the unit sphere
    w = rule.weights[:, None] * (2.0 * math.pi / rule.n_phi)
    values = np.broadcast_to(rule.cos_nodes[:, None] ** 2, (8, 16))
    assert np.sum(w * values) == pytest.approx(4 * math.pi / 3, rel=1e-14)


def test_xlm_l0_is_zero():
    for p in SAMPLES:
        assert np.array_equal(xlm(ModeIndex(0, 0), *p), np.zeros(3))


@settings(max_examples=100)
@given(modes, interior_points)
def test_xlm_has_no_radial_part(mode, p):
    assert xlm(mode, *p)[0] == 0.0


@settings(max_examples=60, deadline=None)
@given(modes, interior_points)
def test_radial_projection_of_angular_momentum_vanishes(mode, p):
    # independent ladder reconstruction of L Y_lm from the ladder matrices
    # and single-mode Y; its e_r component
    # sin(t)cos(f) Lx + sin(t)sin(f) Ly + cos(t) Lz must vanish
    theta, phi = p
    l = mode.l
    y = np.array([ylm(ModeIndex(l, m), theta, phi) for m in range(-l, l + 1)])
    ops = np.tensordot(_CARTESIAN, _ladder(l), 1)  # Lx, Ly, Lz
    lx, ly, lz = ops[:, :, l + mode.m] @ y
    st_, ct = math.sin(theta), math.cos(theta)
    sf, cf = math.sin(phi), math.cos(phi)
    radial = st_ * cf * lx + st_ * sf * ly + ct * lz
    assert abs(radial) < 1e-12 * max(1.0, abs(lz))


def test_xlm_against_scipy_composition():
    # X_lm spherical components from scipy harmonics alone, every l <= 24
    for mode in (ModeIndex(l, m) for l in range(1, 25) for m in range(-l, l + 1)):
        l, m = mode.l, mode.m
        for th, ph in SAMPLES:
            norm = math.sqrt(l * (l + 1))
            v_theta = -m * ylm_ref(l, m, th, ph) / (math.sin(th) * norm)
            cp = math.sqrt((l - m) * (l + m + 1))
            cm = math.sqrt((l + m) * (l - m + 1))
            yp = cp * ylm_ref(l, m + 1, th, ph) if m < l else 0.0
            ym = cm * ylm_ref(l, m - 1, th, ph) if m > -l else 0.0
            dtheta = (np.exp(-1j * ph) * yp - np.exp(1j * ph) * ym) / 2.0
            v_phi = -1j * dtheta / norm
            got = xlm(mode, th, ph)
            assert got[1] == pytest.approx(v_theta, abs=1e-13)
            assert got[2] == pytest.approx(v_phi, abs=1e-13)


def per_order_theta_part(l, m, theta):
    """theta-part of Y_lm from its own sectoral seed and recurrence in l at
    fixed m, step for step as ylm computed it before the all-orders table."""
    ct, st = np.cos(theta), np.sin(theta)
    ma = abs(m)
    p = np.full_like(ct, 1.0 / math.sqrt(4.0 * math.pi))
    for k in range(1, ma + 1):
        p = p * (-math.sqrt((2 * k + 1) / (2.0 * k))) * st
    p_prev = np.zeros_like(p)
    for ll in range(ma + 1, l + 1):
        a = math.sqrt((4.0 * ll * ll - 1.0) / (ll * ll - ma * ma))
        b = math.sqrt(((ll - 1.0) ** 2 - ma * ma) / (4.0 * (ll - 1.0) ** 2 - 1.0))
        p, p_prev = a * (ct * p - b * p_prev), p
    return (-1) ** ma * p if m < 0 else p


TABLE_THETAS = np.array([0.0, 1e-9, 0.4, 1.0, math.pi / 2, 1.9, 2.8, math.pi])
TABLE_CS = np.cos(TABLE_THETAS), np.sin(TABLE_THETAS)
ALL_MODES_24 = np.array([(l, m) for l in range(25) for m in range(-l, l + 1)]).T


def test_all_modes_table_matches_scipy_for_every_l_and_m():
    # every order -24..24 of every degree 0..24, exactly zero where l < |m|
    degrees, orders = np.meshgrid(np.arange(25), np.arange(-24, 25), indexing="ij")
    p = _norm_legendre(degrees, orders, *TABLE_CS)
    assert p.shape == (25, 49, len(TABLE_THETAS))
    assert np.all(p[degrees < np.abs(orders)] == 0.0)
    ls, ms = ALL_MODES_24
    y, x_theta, x_phi = _theta_columns(ls, ms, TABLE_THETAS)
    assert y.shape == x_theta.shape == x_phi.shape == (625, len(TABLE_THETAS))
    th = TABLE_THETAS[None, :]
    l, m = ls[:, None], ms[:, None]
    np.testing.assert_allclose(y, ylm_ref(l, m, th, 0.0).real, rtol=0, atol=1e-13)
    # X from scipy's Y by the explicit forms, off the poles
    th = TABLE_THETAS[None, 1:-1]
    norm = np.sqrt(np.maximum(l * (l + 1), 1))
    up, down = np.minimum(m + 1, l), np.maximum(m - 1, -l)
    yp = np.where(m < l, np.sqrt((l - m) * (l + m + 1)) * ylm_ref(l, up, th, 0.0), 0)
    ym = np.where(m > -l, np.sqrt((l + m) * (l - m + 1)) * ylm_ref(l, down, th, 0.0), 0)
    want_theta = (-m * ylm_ref(l, m, th, 0.0) / (np.sin(th) * norm)).real
    want_phi = -1j * (yp - ym) / 2.0 / norm
    np.testing.assert_allclose(x_theta[:, 1:-1], want_theta, rtol=0, atol=1e-12)
    np.testing.assert_allclose(x_phi[:, 1:-1], want_phi, rtol=0, atol=1e-12)
    # at the poles only m = 0 has Y and only m = +-1 has X; sin(0) is 0,
    # but sin(pi) is 1.2e-16, so that pole is zero only to rounding
    for pole, tol in ((0, 0.0), (-1, 1e-13)):
        assert np.all(np.abs(y[ms != 0, pole]) <= tol)
        assert np.all(np.abs(x_theta[np.abs(ms) != 1, pole]) <= tol)
        assert np.all(np.abs(x_phi[np.abs(ms) != 1, pole]) <= tol)
        assert np.all(np.abs(x_theta[np.abs(ms) == 1, pole]) > 0.1)


UNSOLD_THETAS = np.array([0.05, math.asin(1 / math.e), 1.2, math.pi / 2])


# Unsöld's theorem: at every theta, sum_m |Y_lm|^2 = sum_m (|X_theta|^2 +
# |X_phi|^2) = (2l+1)/(4 pi), so sum_m tr(F_lm F_lm^H) = 3(2l+1)/(4 pi).
# The relative error grows about 1e-15 per degree (3.0e-14 at l = 50,
# 1.37e-12 at 1,500), hence the bound 2e-15 (l + 1).  The range stops at
# 1,500: from about l = 1,930 the sectoral seeds at asin(1/e) leave the
# double range and the sums fail.  0.4-1 s in all; l = 1,500 takes 0.3 s
# and 1.6 MB.
@settings(max_examples=30, deadline=None)
@example(1500)
@given(st.floats(0.0, math.log(1500)).map(lambda u: round(math.exp(u))))
def test_unsold_sums_hold_at_every_degree_to_1500(l):
    y, x_theta, x_phi = _theta_columns(l, np.arange(-l, l + 1), UNSOLD_THETAS)
    want = np.full(len(UNSOLD_THETAS), (2 * l + 1) / (4 * math.pi))
    for total in ((y**2).sum(0), (x_theta**2 + np.abs(x_phi) ** 2).sum(0)):
        np.testing.assert_allclose(total, want, rtol=2e-15 * (l + 1), atol=0)


def test_a_table_of_some_orders_is_the_slice_of_the_full_table():
    # the recurrence runs for just the orders and degrees its pairs need,
    # so any subset of pairs has the bytes of those pairs in the all-modes call
    ls, ms = ALL_MODES_24
    full = _norm_legendre(ls, ms, *TABLE_CS)
    row = {(l, m): i for i, (l, m) in enumerate(zip(ls.tolist(), ms.tolist()))}
    for pairs in ([(24, 0), (24, 23)], [(7, 3), (3, -3), (8, -8), (7, 3)],
                  [(24, -11), (13, 12), (24, 13)], [(5, -5)], [(0, 0)],
                  list(zip(ls.tolist(), ms.tolist()))[::-1]):
        l, m = np.array(pairs).T
        part = _norm_legendre(l, m, *TABLE_CS)
        assert part.tobytes() == full[[row[pair] for pair in pairs]].tobytes()


def test_theta_columns_run_one_recurrence_over_the_window_of_their_orders(
    monkeypatch,
):
    from tensorwave import specfun

    calls = []
    exact = specfun._norm_legendre

    def spy(l, m, ct, st):
        held = l >= np.abs(m)
        calls.append((int(l.max()), sorted(set(np.abs(m[held]).tolist()))))
        return exact(l, m, ct, st)

    monkeypatch.setattr(specfun, "_norm_legendre", spy)
    _theta_columns(np.array([3, 5]), np.array([2, -4]), TABLE_THETAS)
    # orders |m| = 2 .. 4 and their ladder neighbours 1 .. 5, to l = 5
    assert calls == [(5, [1, 2, 3, 4, 5])]


def test_theta_columns_of_every_order_hold_no_degree_by_order_table():
    # every m at l = 2,000 at one theta: the dense (degree x order) table
    # peaked at 32.5 MB, the pairs and two running rows take about 1 MB
    import tracemalloc

    l = 2000
    tracemalloc.start()
    try:
        y = _theta_columns(l, np.arange(-l, l + 1), np.array([1.0]))[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(y).all()
    assert peak <= 4e6


sparse_modes = st.lists(
    st.integers(0, 200).flatmap(lambda l: st.tuples(st.just(l), st.integers(-l, l))),
    min_size=1, max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(sparse_modes, st.lists(st.floats(0.0, math.pi), min_size=1, max_size=6))
def test_sparse_modes_equal_the_per_order_recurrence_and_the_all_modes_call(
    pairs, thetas
):
    # Y of any set of modes is the per-order recurrence, and X those modes
    # of the call over every mode l <= the set's largest, byte for byte
    l, m = np.array(pairs).T
    thetas = np.array(thetas)
    y, x_theta, x_phi = _theta_columns(l, m, thetas)
    for i, (li, mi) in enumerate(pairs):
        assert y[i].tobytes() == per_order_theta_part(li, mi, thetas).tobytes()
    top = int(l.max())
    every = np.array([(k, j) for k in range(top + 1) for j in range(-k, k + 1)]).T
    _, all_theta, all_phi = _theta_columns(*every, thetas)
    at = l * l + l + m  # row of (l, m) among every mode
    assert x_theta.tobytes() == all_theta[at].tobytes()
    assert x_phi.tobytes() == all_phi[at].tobytes()


@pytest.mark.parametrize("fn, tail", [(ylm, ()), (xlm, (3,)), (flm, (3, 3))])
def test_harmonics_on_a_product_grid_recur_over_theta_alone(monkeypatch, fn, tail):
    # theta (n, 1) against phi (1, k): the recurrence runs on the n thetas,
    # not on the n * k points of the grid
    from tensorwave import specfun

    shapes = []
    exact = specfun._norm_legendre
    monkeypatch.setattr(specfun, "_norm_legendre",
                        lambda *a: shapes.append(np.shape(a[3])) or exact(*a))
    thetas, phis = TABLE_THETAS[:, None], np.linspace(0.0, 6.0, 5)[None, :]
    vals = fn(ModeIndex(3, -2), thetas, phis)
    assert shapes == [(len(TABLE_THETAS), 1)]
    assert vals.shape == (len(TABLE_THETAS), 5) + tail


def test_table_slices_and_single_order_ylm_equal_the_per_order_recurrence():
    ls, ms = ALL_MODES_24
    y = _theta_columns(ls, ms, TABLE_THETAS)[0]
    phi = 0.7
    for i, (l, m) in enumerate(zip(ls.tolist(), ms.tolist())):
        want = per_order_theta_part(l, m, TABLE_THETAS)
        assert y[i].tobytes() == want.tobytes()
        got = ylm(ModeIndex(l, m), TABLE_THETAS, phi)
        ref = np.asarray(want * np.exp(1j * m * phi), dtype=complex)
        assert got.tobytes() == ref.tobytes()
        assert ylm(ModeIndex(l, m), 1.0, phi) == complex(
            per_order_theta_part(l, m, np.float64(1.0)) * np.exp(1j * m * phi)
        )


def test_xlm_finite_at_poles():
    for theta in (0.0, math.pi):
        for mode in [ModeIndex(1, 1), ModeIndex(3, -1), ModeIndex(4, 0)]:
            v = xlm(mode, theta, 0.7)
            assert np.all(np.isfinite(v))
        # m = +-1 modes keep a finite transverse limit, others vanish
        assert np.linalg.norm(xlm(ModeIndex(2, 1), theta, 0.7)) > 0.1
        assert np.linalg.norm(xlm(ModeIndex(2, 2), theta, 0.7)) == pytest.approx(
            0.0, abs=1e-15
        )


def test_xlm_pole_limit_matches_interior_approach():
    for mode in [ModeIndex(1, 1), ModeIndex(2, -1)]:
        at_pole = xlm(mode, 0.0, 1.1)
        near = xlm(mode, 1e-7, 1.1)
        assert np.allclose(at_pole, near, atol=1e-6)


def test_flm_l0_is_rank_one():
    for p in SAMPLES:
        f = flm(ModeIndex(0, 0), *p)
        want = (1.0 / math.sqrt(4 * math.pi)) * np.outer(E_R, E_R)
        assert np.allclose(f, want, atol=1e-16)


def test_flm_columns_are_y_x_and_er_cross_x(rng):
    for mode in [ModeIndex(1, 0), ModeIndex(3, 2)]:
        for p in SAMPLES:
            f = flm(mode, *p)
            x = xlm(mode, *p)
            assert np.allclose(f[:, 0], ylm(mode, *p) * E_R, atol=1e-15)
            assert np.allclose(f[:, 1], x, atol=1e-15)
            assert np.allclose(f[:, 2], ER_CROSS @ x, atol=1e-15)


def test_trace_identity_10_random_points(rng):
    mode = ModeIndex(1, 0)
    for _ in range(10):
        p = (rng.uniform(0.05, math.pi - 0.05), rng.uniform(0, 2 * math.pi))
        f = flm(mode, *p)
        x = xlm(mode, *p)
        want = ylm(mode, *p) + 2.0 * x[1]
        assert trace(f) == pytest.approx(want, abs=1e-14)


@settings(max_examples=100, deadline=None)
@given(modes, interior_points)
def test_invariant_identities(mode, p):
    f = flm(mode, *p)
    x = xlm(mode, *p)
    y = ylm(mode, *p)
    xdotx = complex(np.sum(x * x))  # unconjugated
    s = max(float(np.linalg.norm(f)), 1e-30)
    assert abs(det(f) - y * xdotx) <= 1e-12 * s**3
    adj = adjoint(f)
    assert abs(trace(adj) - (xdotx + 2.0 * y * x[1])) <= 1e-12 * s**2
    assert np.max(np.abs(adj @ f - det(f) * np.eye(3))) <= 1e-12 * s**3
    assert abs(trace(f @ f) - (trace(f) ** 2 - 2 * trace(adj))) <= 1e-12 * s**2


@settings(max_examples=100, deadline=None)
@given(modes, interior_points)
def test_commutation_with_frame_tensors(mode, p):
    f = flm(mode, *p)
    s = max(float(np.linalg.norm(f)), 1.0)
    assert np.max(np.abs(f @ ER_CROSS - ER_CROSS @ f)) <= 1e-14 * s


@settings(max_examples=100, deadline=None)
@given(modes, interior_points)
def test_two_construction_paths_agree(mode, p):
    a = flm(mode, *p)
    b = flm_explicit(mode.l, *p)[mode.l + mode.m]
    s = max(float(np.linalg.norm(a)), 1e-30)
    assert np.max(np.abs(a - b)) <= 1e-12 * s


def test_flm_explicit_rejects_poles():
    with pytest.raises(ValueError):
        flm_explicit(2, 0.0, 0.3)
    with pytest.raises(ValueError):
        flm_explicit(2, np.array([1.0, 0.0]), 0.3)


def test_grid_functions_match_pointwise():
    mode = ModeIndex(3, -2)
    l, i_m = mode.l, mode.l + mode.m
    thetas = np.array([0.4, 1.2, 2.6])
    phis = np.array([0.0, 2.1])
    fx = xlm(mode, thetas[:, None], phis[None, :])
    ff = flm(mode, thetas[:, None], phis[None, :])
    fe = flm_explicit(l, thetas[:, None], phis[None, :])[i_m]
    assert fx.shape == (3, 2, 3) and ff.shape == fe.shape == (3, 2, 3, 3)
    for i, th in enumerate(thetas):
        for j, ph in enumerate(phis):
            assert np.allclose(fx[i, j], xlm(mode, th, ph), atol=1e-15)
            assert np.allclose(ff[i, j], flm(mode, th, ph), atol=1e-15)
            assert np.allclose(fe[i, j], flm_explicit(l, th, ph)[i_m], atol=1e-15)
            for check in DEGREE_FUNCTIONS[1:]:
                grid = check(l, thetas[:, None], phis[None, :])[i_m]
                assert grid[i, j] == pytest.approx(check(l, th, ph)[i_m], abs=1e-14)


def test_x_cross_product_integral_vanishes():
    rule = QuadratureRule.for_degree(4)
    w_full = rule.weights[:, None] * (2 * math.pi / rule.n_phi)
    tt = rule.thetas[:, None]
    pp = rule.phis[None, :]
    xa = np.broadcast_to(
        xlm(ModeIndex(3, 1), tt, pp), (len(rule.cos_nodes), rule.n_phi, 3)
    )
    xb = np.broadcast_to(
        xlm(ModeIndex(3, 1), tt, pp), (len(rule.cos_nodes), rule.n_phi, 3)
    )
    integral = np.sum(
        w_full * (xa[..., 1].conj() * xb[..., 2] - xa[..., 2].conj() * xb[..., 1])
    )
    assert abs(integral) < 1e-12


def test_eigenrelation_checks():
    assert l_squared_check(0, *SAMPLES[0])[0] == pytest.approx(0.0, abs=1e-15)
    for mode in [ModeIndex(3, 2), ModeIndex(5, -5)]:
        for p in SAMPLES:
            assert l_squared_check(mode.l, *p)[mode.l + mode.m] < 1e-12
            assert lz_check(mode.l, *p)[mode.l + mode.m] < 1e-12


@settings(max_examples=80, deadline=None)
@given(modes, interior_points)
def test_l_dot_relations(mode, p):
    assert l_dot_xlm_residual(mode.l, *p)[mode.l + mode.m] < 1e-10
    assert l_dot_er_cross_xlm_residual(mode.l, *p)[mode.l + mode.m] < 1e-10


def test_l_dot_er_cross_check_sees_a_wrong_harmonic(monkeypatch, rng):
    # negative control: every Legendre value of order |m| = 2 scaled by 1 + 1e-6.
    # The product-rule pieces of L . (e_r x X) cancel only for true
    # harmonics, so the residual must rise well past rounding; the other
    # three checks test the ladder algebra alone and stay at rounding
    from tensorwave import specfun

    thetas = rng.uniform(0.05, math.pi - 0.05, 50)
    phis = rng.uniform(0.0, 2.0 * math.pi, 50)

    def worst():
        return max(
            np.max(l_dot_er_cross_xlm_residual(l, thetas, phis)[l + m])
            for l in range(5)
            for m in range(-l, l + 1)
        )

    assert worst() < 1e-13
    exact = specfun._norm_legendre

    def skewed(l, m, ct, st):
        p = exact(l, m, ct, st)
        p[np.abs(m) == 2] *= 1.0 + 1e-6
        return p

    monkeypatch.setattr(specfun, "_norm_legendre", skewed)
    assert worst() > 1e-9
