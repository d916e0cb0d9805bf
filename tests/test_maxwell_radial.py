import itertools
import math

import numpy as np
import pytest
from oracles import propagate_mp, propagate_rk
from tensorwave.maxwell_radial import (
    Medium,
    RadialProfile,
    _coefficients,
    _pair_at,
    _pair_seqs,
    _tangential,
    fundamental_matrix,
    longitudinal_components,
    propagate,
    radial_flux,
    system_matrix,
    wtheta_ode_residual,
)
from tensorwave.specfun import _PAIR, ModeIndex, RadialKind, spherical_radial_seq
from tensorwave.synthesis import recover_coefficients

J, Y, H1, H2 = (
    RadialKind.BESSEL_J,
    RadialKind.BESSEL_Y,
    RadialKind.HANKEL1,
    RadialKind.HANKEL2,
)
# vacuum, absorbing, metal-like and magnetic
MEDIA = [Medium(1.0, 1.0), Medium(2.25 + 0.4j, 1.0), Medium(-10 + 1j, 1.0),
         Medium(1.7689, 1.21)]
# arguments x from the real axis to 5+700i, where raw j and h1 overflow
SEVEN_X = np.array([0.3, 7.0, 60.0, 3 + 4j, 20 + 30j, 9.5 + 190j, 5 + 700j])


def test_medium_validation_and_index_branch():
    with pytest.raises(ValueError):
        Medium(0.0, 1.0)
    with pytest.raises(ValueError):
        Medium(1.0, 0.0)
    assert Medium(2.25, 1.0).n == pytest.approx(1.5)
    # branch: Im(n) >= 0 even when eps*mu is negative real or lossy
    assert Medium(-1.0, 1.0).n == pytest.approx(1j)
    n = Medium(complex(1.5, 0.1) ** 2, 1.0).n
    assert n == pytest.approx(1.5 + 0.1j)
    assert Medium(complex(2.0, -0.3), 1.0).n.imag >= 0


def test_wavenumber_validation():
    assert system_matrix(1, 2.0, 1.0, Medium(1, 1)).shape == (4, 4)
    with pytest.raises(ValueError, match="wavenumber"):
        system_matrix(1, 0.0, 1.0, Medium(1, 1))
    with pytest.raises(ValueError, match="wavenumber"):
        system_matrix(1, -1.0, 1.0, Medium(1, 1))


def test_profile_validation_and_lookup():
    med1, med2 = Medium(4.0, 1.0), Medium(1.0, 1.0)
    prof = RadialProfile((1.0,), (med1, med2))
    assert prof.medium_at(0.5) is med1
    assert prof.medium_at(1.5) is med2
    # boundary radius belongs to the outer region
    assert prof.medium_at(1.0) is med2
    with pytest.raises(ValueError):
        RadialProfile((2.0, 1.0), (med1, med1, med2))
    with pytest.raises(ValueError):
        RadialProfile((1.0,), (med1,))


def test_profile_dict_round_trip():
    doc = {
        "shells": [{"r_out": 1.0, "eps": [4.0, 0.0], "mu": [1.0, 0.5]}],
        "outer": {"eps": [1.0, 0.0], "mu": [1.0, 0.0]},
    }
    prof = RadialProfile.from_dict(doc)
    assert prof.media[0].mu == 1.0 + 0.5j
    assert prof.boundaries == (1.0,) and prof.media[1] == Medium(1.0, 1.0)
    with pytest.raises(ValueError, match="unknown profile keys"):
        RadialProfile.from_dict({**doc, "extra": 1})
    with pytest.raises(ValueError, match="unknown medium keys"):
        RadialProfile.from_dict(
            {"shells": [], "outer": {"eps": [1, 0], "mu": [1, 0], "rho": 2}}
        )


def test_tangential_state_shape_and_order():
    # the state is the 4-vector (H_theta, H_phi, E_theta, E_phi)
    assert radial_flux(2.0, [0.0, 1.0, 3.0, 0.0]) == 12.0  # E_theta H_phi*
    assert radial_flux(2.0, [1.0, 0.0, 0.0, 3.0]) == -12.0  # -E_phi H_theta*
    assert radial_flux(1.0, [1.0, 1.0, 1.0, 1.0]) == 0.0
    flux = radial_flux(np.array([1.0, 2.0]), [[0, 1, 3, 0], [1, 0, 0, 3]])
    assert flux.tolist() == [3.0, -12.0]
    med = Medium(1.0, 1.0)
    w = propagate(1, 1.0, med, 1.0, 1.0, (1.0, 2.0, 3.0, 4.0))
    assert w.shape == (4,) and w.tolist() == [1.0, 2.0, 3.0, 4.0]
    for bad in ([1.0, 2.0, 3.0], np.zeros((2, 4)), np.zeros(6)):
        with pytest.raises(ValueError, match="4-vector"):
            propagate(1, 1.0, med, 1.0, 2.0, bad)


def test_system_matrix_reference_case():
    m = system_matrix(1, 1.0, 1.0, Medium(1.0, 1.0))
    a = np.array([[0.0, -1.0], [-1.0, 0.0]])  # e_r cross minus 2 e_phi(x)e_theta
    want = np.zeros((4, 4), dtype=complex)
    want[0:2, 2:4] = a
    want[2:4, 0:2] = -a
    assert np.allclose(m, want, atol=1e-15)


def test_system_matrix_material_scaling():
    med = Medium(2.0, 3.0)
    lam = 2.0
    scaled = Medium(2.0 * lam, 3.0 * lam)
    m1 = system_matrix(2, 1.3, 0.7, med)
    m2 = system_matrix(2, 1.3, 0.7, scaled)
    # the centrifugal term of A picks up exactly 1/lam^2
    q1 = 1.0 - m1[1, 2] / med.eps
    q2 = 1.0 - m2[1, 2] / scaled.eps
    assert q2 == pytest.approx(q1 / lam**2, rel=1e-14)


def test_system_matrix_transverse_limit():
    er_cross_block = np.array([[0.0, -1.0], [1.0, 0.0]])
    # at kr = 1e6 the centrifugal term is exactly l(l+1)/(kr)^2 = 2e-12
    a = system_matrix(1, 1.0, 1e6, Medium(1.0, 1.0))[0:2, 2:4]
    assert np.max(np.abs(a - er_cross_block)) == pytest.approx(2e-12, rel=1e-6)
    a = system_matrix(1, 1.0, 1.5e6, Medium(1.0, 1.0))[0:2, 2:4]
    assert np.max(np.abs(a - er_cross_block)) < 1e-12


def test_system_matrix_rejects_bad_domain():
    with pytest.raises(ValueError):
        system_matrix(0, 1.0, 1.0, Medium(1, 1))
    with pytest.raises(ValueError):
        system_matrix(1, 1.0, 0.0, Medium(1, 1))


def test_eta_theta_entry_is_bessel_j():
    # n k r = 2 with n = 1, k = 1, r = 2
    # eta and zeta are rows of Phi / r
    eta1_tt = fundamental_matrix(1, J, Y, 1.0, 2.0, Medium(1, 1))[0, 0] / 2.0
    j12 = math.sin(2.0) / 4.0 - math.cos(2.0) / 2.0
    assert eta1_tt == pytest.approx(j12, rel=1e-14)
    assert eta1_tt == pytest.approx(0.435397, abs=1e-6)


def test_eta_zeta_assembled_state_solves_ode(rng):
    k = 1.3
    med = Medium(2.25, 1.0)
    h = 1e-5
    for l in range(1, 5):
        c1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)

        def u_at(r):
            return fundamental_matrix(l, J, Y, k, r, med) @ np.concatenate([c1, c2])

        r0 = 1.7
        du = (u_at(r0 + h) - u_at(r0 - h)) / (2 * h)
        rhs = 1j * k * system_matrix(l, k, r0, med) @ u_at(r0)
        assert np.max(np.abs(du - rhs)) / np.max(np.abs(rhs)) < 1e-6


def test_fundamental_matrix_over_an_array_of_l():
    k, r, med = 1.3, 2.0, Medium(2.25 + 0.1j, 1.0)
    ls = np.array([[1, 4], [9, 2]])
    phi = fundamental_matrix(ls, J, H1, k, r, med)
    assert phi.shape == (2, 2, 4, 4)
    for idx in np.ndindex(ls.shape):
        one = fundamental_matrix(int(ls[idx]), J, H1, k, r, med)
        assert np.max(np.abs(phi[idx] - one)) <= 1e-14 * np.max(np.abs(one))
    with pytest.raises(ValueError, match="l >= 1"):
        fundamental_matrix(np.array([2, 0]), J, H1, k, r, med)


def test_polarization_blocks_det_scales_inverse_square():
    k, med = 1.0, Medium(1.96, 1.0)
    for l in (1, 3):
        dets = []
        for r in (1.0, 2.0):
            # rows (H_theta, E_phi), columns (c1_theta, c2_theta) of Phi / r
            phi = fundamental_matrix(l, J, Y, k, r, med)
            theta_block = phi[np.ix_([0, 3], [0, 2])] / r
            x = med.n * k * r
            want = 1j / (med.eps * med.n * (k * r) ** 2)
            assert np.linalg.det(theta_block) == pytest.approx(want, rel=1e-12)
            dets.append(np.linalg.det(theta_block))
        assert dets[0] / dets[1] == pytest.approx(4.0, rel=1e-12)
    # both blocks of every ordered pair of distinct kinds f_i = a_i j + b_i
    # h1: det = -P / (eps n k^2) and -P / (mu n k^2), P = a1 b2 - a2 b1
    ls = np.arange(1, 41)
    for med, r in itertools.product(MEDIA, (0.3, 1.0, 7.0, 60.0)):
        for kind1, kind2 in itertools.permutations(RadialKind, 2):
            (a1, b1), (a2, b2) = _PAIR[kind1], _PAIR[kind2]
            phi = fundamental_matrix(ls, kind1, kind2, k, r, med)
            for rows, cols, em in (([0, 3], [0, 2], med.eps), ([1, 2], [1, 3], med.mu)):
                block = phi[:, rows][..., cols]
                want = -(a1 * b2 - a2 * b1) / (em * med.n * k * k)
                scale = np.prod(np.linalg.norm(block, axis=-2), axis=-1)
                err = np.abs(np.linalg.det(block) - want)
                assert np.all(err <= 1e-13 * scale), (med, r, kind1, kind2, rows)
    # the scaled pair (e^{ix} j, e^{-ix} h1) of `propagate` has P = 1
    (f1, d1), (f2, d2) = _pair_seqs(SEVEN_X, (40, 40), scaled=True)
    assert np.all(np.abs(SEVEN_X * (f1 * d2 - f2 * d1) - 1j) <= 1e-14)


def test_coefficients_inverts_the_tangential_state(rng):
    # `_coefficients(_tangential(c)) == c` for every medium's eps / mu, at
    # each x (up to sign) as n k r with k = r = 1, for (j, h1) and the
    # scaled pair, measured on columns of unit norm
    ls = np.arange(1, 41)
    for med, x in itertools.product(MEDIA, SEVEN_X):
        at_x = Medium(med.eps * x / med.n, med.mu * x / med.n)
        for scaled in (False, True):
            if not scaled and x.imag > 300:  # raw j and h1 leave the double range
                continue
            pair = [v[ls, 0] for f_d in _pair_seqs(np.array([at_x.n]), (40, 40), scaled)
                    for v in f_d]
            phi = np.stack(_tangential(*(v[..., None] for v in pair), 1.0, 1.0,
                                       at_x, np.eye(4)), axis=-2)
            z = rng.standard_normal((40, 4)) + 1j * rng.standard_normal((40, 4))
            norms = np.linalg.norm(phi, axis=-2)
            got = _coefficients(*pair, 1.0, 1.0, at_x,
                                _tangential(*pair, 1.0, 1.0, at_x, z / norms))
            err = np.abs(got * norms - z)
            assert np.all(err <= 1e-14 * np.linalg.norm(z, axis=-1, keepdims=True)), (
                med, x, scaled)


def test_coefficients_match_lu_on_the_fundamental_matrix(rng):
    # the Wronskian inverse against np.linalg.solve, whose error grows
    # with the condition number: up to 6e7 in the metal, where x = 0.4+8.2i
    # and j grows as h1 decays
    k, r, ls = 1.3, 2.0, np.arange(1, 5)
    for med in MEDIA:
        phi = fundamental_matrix(ls, J, H1, k, r, med)
        u = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        want = np.linalg.solve(phi, u[..., None])[..., 0]
        scale = np.abs(want).max(axis=-1, keepdims=True)
        scale *= np.linalg.cond(phi)[:, None]
        (f1, d1), (f2, d2) = _pair_seqs(np.array([med.n * k * r]), (4, 4))
        got = _coefficients(*(v[ls, 0] for v in (f1, d1, f2, d2)), k, r, med, u.T)
        assert np.all(np.abs(got - want) <= 1e-15 * scale), med


def test_recover_coefficients_for_every_kind_pair(rng):
    # every ordered pair of distinct kinds, read off as (j, h1) coefficients
    # and mapped onto the kinds by the inverse `_PAIR` weights: either
    # OverflowError or a backward error within rounding of Phi's norm, in
    # infinity norms, which square no value (c reaches 1e149 where the
    # kinds are nearly dependent)
    k, ls = 1.0, np.arange(1, 41)
    modes = [ModeIndex(int(l), 0) for l in ls]
    for med, r in itertools.product(MEDIA, (0.3, 1.0, 7.0, 60.0)):
        for kinds in itertools.permutations(RadialKind, 2):
            phi = fundamental_matrix(ls, *kinds, k, r, med)
            c = rng.standard_normal((40, 4)) + 1j * rng.standard_normal((40, 4))
            u = (phi @ c[..., None])[..., 0]
            zero = np.zeros((40, 1))
            hl, el = (np.hstack([zero, u[:, i:i + 2] / r]) for i in (0, 2))
            try:
                got = np.hstack(recover_coefficients(hl, el, modes, k, r, med, kinds))
            except OverflowError:
                continue
            err = np.abs((phi @ got[..., None])[..., 0] - u).max(axis=-1)
            scale = np.abs(phi).sum(axis=-1).max(axis=-1) * np.abs(got).max(axis=-1)
            assert np.all(err <= 1e-14 * scale), (med, r, kinds)


def test_longitudinal_components_cases():
    e_r, h_r = longitudinal_components(1, 1.0, 1.0, Medium(1, 1), [0, 5.0, 0, -2.0])
    assert e_r == 0.0 and h_r == 0.0
    e_r, h_r = longitudinal_components(1, 1.0, 1.0, Medium(1, 1), [1.0, 0, 0, 0])
    assert e_r == pytest.approx(-math.sqrt(2.0), rel=1e-15)
    assert h_r == 0.0
    # any leading shape, broadcast against r
    e_r, h_r = longitudinal_components(
        1, 1.0, np.array([1.0, 2.0]), Medium(1, 1), [[1.0, 0, 3.0, 0]] * 2
    )
    assert e_r == pytest.approx(-math.sqrt(2.0) / np.array([1.0, 2.0]), rel=1e-15)
    assert h_r == pytest.approx(3.0 * math.sqrt(2.0) / np.array([1.0, 2.0]), rel=1e-15)


def test_propagate_matches_rk_single_shell():
    k = 1.0
    med = Medium(2.25, 1.0)
    for l in (1, 4):
        r0, r1 = 0.5 / k, 10.0 / k
        phi0 = fundamental_matrix(l, J, Y, k, r0, med)
        c = np.array([1.0, -0.5j, 0.25, 1.5j]) / l
        w0 = phi0 @ c / r0
        got = propagate(l, k, med, r0, r1, w0)
        ref = propagate_rk(l, k, med, r0, r1, w0)
        assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 1e-8


def test_propagate_rejects_non_finite_radius():
    w0 = [1.0, 0.0, 0.0, 0.0]
    for r_to in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            propagate(1, 1.0, Medium(1.0, 1.0), 1.0, r_to, w0)


def test_propagate_rejects_a_non_finite_state():
    # a nan was reported as "the state at r=2.0 leaves the double range"
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="w must be finite"):
            propagate(1, 1.0, Medium(1.0, 1.0), 1.0, 2.0, [bad, 0, 0, 0])


def test_propagate_zero_state_and_linearity(rng):
    k, med, l = 1.2, Medium(1.69, 1.0), 2
    zero = np.zeros(4)
    out = propagate(l, k, med, 1.0, 3.0, zero)
    assert np.allclose(out, 0.0)
    a = rng.standard_normal(4) + 0j
    b = rng.standard_normal(4) + 0j
    lam = 0.7 - 0.4j
    combo = a + lam * b
    out_combo = propagate(l, k, med, 1.0, 3.0, combo)
    out_sum = (
        propagate(l, k, med, 1.0, 3.0, a)
        + lam * propagate(l, k, med, 1.0, 3.0, b)
    )
    scale = np.max(np.abs(out_sum))
    assert np.max(np.abs(out_combo - out_sum)) < 1e-12 * scale


def test_propagate_two_shell_profile():
    k = 1.0
    prof = RadialProfile((2.0,), (Medium(2.25, 1.0), Medium(1.0, 1.21)))
    l = 3
    r0, r1 = 0.8, 6.0
    phi0 = fundamental_matrix(l, J, Y, k, r0, prof.media[0])
    c = np.array([0.3, 1.0, -0.7j, 0.2])
    w0 = phi0 @ c / r0
    got = propagate(l, k, prof, r0, r1, w0)
    ref = propagate_rk(l, k, prof, r0, r1, w0)
    assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 1e-8


def test_propagate_inward_round_trip():
    k, med, l = 1.0, Medium(1.44, 1.0), 2
    w0 = [1.0, 0.3j, -0.2, 0.8]
    there = propagate(l, k, med, 1.0, 4.0, w0)
    back = propagate(l, k, med, 4.0, 1.0, there)
    assert np.max(np.abs(back - w0)) < 1e-9
    ref = propagate_rk(l, k, med, 4.0, 1.0, there)
    assert np.max(np.abs(back - ref)) / np.max(np.abs(ref)) < 1e-8


def _stress_profile(seed):
    """8 media split at 7 radii uniform in [0.5, 60]; eps in [1, 4] + i [0, 3]
    for about half of them, lossless for the rest; a random state."""
    rng = np.random.default_rng(seed)
    bounds = tuple(np.sort(rng.uniform(0.5, 60.0, 7)))
    eps = [
        complex(rng.uniform(1.0, 4.0), rng.uniform(0.0, 3.0) * (rng.uniform() < 0.5))
        for _ in range(8)
    ]
    w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return RadialProfile(bounds, tuple(Medium(e, 1.0) for e in eps)), w


# metal-like media (Re eps < 0) make n k r nearly imaginary, where (j, y)
# is nearly dependent well inside |n k r| = l + 1.  A basis of (j, y)
# inside that radius and (h1, h2) outside was 4e-6 off here at l = 40,
# and 1.3e-6 / 0.99 off on the inward cases at l = 25 / 40.
METAL = RadialProfile(
    (6.0, 13.0, 20.0, 24.0),
    tuple(Medium(e, 1.0) for e in (4.0, -10 + 1j, 2 + 3j, -3 + 0.5j, 1.0)),
)


@pytest.mark.parametrize("l", [1, 8, 25, 40])
@pytest.mark.parametrize("case", ["outward", "inward", "metal"])
def test_propagate_matches_mpmath_in_absorbing_shells(l, case):
    # k r from 0.5 to 60 (k = 1), against an mpmath transfer whose
    # precision grows with l and Im(n k r)
    prof, w = _stress_profile(l + 100 * len(case))
    r0, r1 = (60.0, 0.5) if case == "inward" else (0.5, 60.0)
    if case == "metal":
        prof, r1 = METAL, 30.0
    got = propagate(l, 1.0, prof, r0, r1, w)
    ref = propagate_mp(l, 1.0, prof, r0, r1, w)
    err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
    assert err <= 1e-10


@pytest.mark.parametrize("med", MEDIA, ids=["vacuum", "absorbing", "metal", "magnetic"])
def test_fundamental_matrix_matches_the_per_kind_route(med):
    # every kind is a j + b h1 of one pair pass; the reference is
    # `_tangential` of the unit vectors on each kind evaluated by itself
    # through `spherical_radial_seq`
    k, ls = 1.0, np.arange(1, 41)
    for r in (1e-3, 0.3, 1.0, 7.0, 60.0):
        seqs = {kind: spherical_radial_seq(kind, 40, med.n * k * r)
                for kind in RadialKind}
        for kind1, kind2 in itertools.product(RadialKind, repeat=2):
            (f1, d1), (f2, d2) = seqs[kind1], seqs[kind2]
            f_d = (v[ls, None] for v in (f1, d1, f2, d2))
            want = np.stack(_tangential(*f_d, k, r, med, np.eye(4)), axis=-2)
            got = fundamental_matrix(ls, kind1, kind2, k, r, med)
            if {kind1, kind2} <= {J, H1}:
                assert got.tobytes() == want.tobytes(), (r, kind1, kind2)
            else:
                scale = np.abs(want).max(axis=-2, keepdims=True)
                assert np.all(np.abs(got - want) <= 1e-15 * scale), (r, kind1, kind2)


def test_fundamental_matrix_where_n_k_r_underflows_to_zero():
    # the pair pass runs x = 0 as 1: j_l and x j_l must still take their
    # limits there, 0 for l >= 1, and h1 must be reported singular
    vacuum = Medium(1.0, 1.0)
    assert not fundamental_matrix([1, 3], J, J, 1e-200, 1e-200, vacuum).any()
    with pytest.raises(ValueError, match="hankel1 is singular at x = 0"):
        fundamental_matrix(1, J, H1, 1e-200, 1e-200, vacuum)


def test_propagate_builds_one_scaled_sequence_per_kind(radial_passes):
    # every shell end of the profile goes into one scaled pass of j and h1
    prof, w = _stress_profile(7)
    got = propagate(8, 1.0, prof, 0.5, 60.0, w)
    assert [(len(xs), tops, scaled) for xs, tops, scaled in radial_passes] == [
        (16, [8, 8], True)
    ]
    ref = propagate_mp(8, 1.0, prof, 0.5, 60.0, w)
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("l", [1, 8, 25, 40])
@pytest.mark.parametrize("eps", [1 + 3j, -10 + 1j])
def test_propagate_outgoing_wave_inward_componentwise(l, eps):
    # an outgoing wave grows inward in an absorbing medium, so every
    # component is well conditioned; the (j, y) / (h1, h2) split basis
    # lost up to all digits on 5 of these 8 cases
    k, med = 1.0, Medium(eps, 1.0)
    w = fundamental_matrix(l, H1, H1, k, 30.0, med) @ [1.0, 0.5, 0.0, 0.0] / 30.0
    got = propagate(l, k, med, 30.0, 1.0, w)
    ref = propagate_mp(l, k, med, 30.0, 1.0, w)
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-10


def test_propagate_reports_overflow():
    w0 = [1.0, 0.0, 0.0, 0.0]
    with pytest.raises(OverflowError, match="double range"):
        propagate(200, 1.0, Medium(1.0, 1.0), 1e-3, 2e-3, w0)


def test_hankel1_overflow_is_named_with_no_runtime_warning():
    # e^{-ix} h1_l at x = 5 sqrt(2) leaves the double range in both parts
    # from l = 225, so multiplying back by e^{ix} makes inf - inf; that
    # product warned, and the tests' error::RuntimeWarning raised it
    # before `_f_and_d` could name the overflow
    with pytest.raises(OverflowError, match=r"hankel1 overflowed at x=\(7\.07.*l=225"):
        _pair_at(300, 1.0, 5.0, Medium(2, 1))


def test_propagate_continuity_across_boundary():
    # crossing a boundary introduces no jump in W
    k = 1.0
    prof = RadialProfile((2.0,), (Medium(4.0, 1.0), Medium(1.0, 1.0)))
    w0 = [0.5, 1.0, 0.0, -0.3]
    eps = 1e-9
    w_in = propagate(2, k, prof, 1.0, 2.0 - eps, w0)
    w_out = propagate(2, k, prof, 1.0, 2.0 + eps, w0)
    assert np.max(np.abs(w_in - w_out)) < 1e-6


def test_propagate_rejects_l0_and_bad_radii():
    w0 = [1, 0, 0, 0]
    with pytest.raises(ValueError, match="l >= 1"):
        propagate(0, 1.0, Medium(1, 1), 1.0, 2.0, w0)
    with pytest.raises(ValueError):
        propagate(1, 1.0, Medium(1, 1), 0.0, 2.0, w0)


def test_radial_flux_conserved_in_lossless_medium():
    k, med, l = 1.0, Medium(2.25, 1.0), 2
    phi0 = fundamental_matrix(l, H1, H2, k, 1.0, med)
    c = np.array([0.6, -0.2j, 1.0, 0.4j])
    w0 = phi0 @ c / 1.0
    flux0 = radial_flux(1.0, w0)
    for r in (2.0, 5.0, 9.0):
        w = propagate(l, k, med, 1.0, r, w0)
        assert radial_flux(r, w) == pytest.approx(flux0, rel=1e-8)


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_wtheta_ode_residual_accepts_bessel_j(l):
    # stencil h = 1e-3 * r, window just above the classical turning point
    k, med = 1.0, Medium(2.25, 1.0)
    r_mid = math.sqrt(l * (l + 1) + 6.0) / (abs(med.n) * k)
    h = 1e-3 * r_mid
    r = r_mid + h * np.arange(-100, 101)
    f = spherical_radial_seq(J, l, med.n * k * r)[0][l]
    assert wtheta_ode_residual(l, k, med, r, f) < 1e-6


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_wtheta_ode_residual_accepts_hankel1(l):
    # outgoing solutions carry the growing y_l part below the turning
    # point, so resolve with a finer stencil
    k, med = 1.0, Medium(2.25, 1.0)
    r_mid = math.sqrt(l * (l + 1) + 6.0) / (abs(med.n) * k)
    h = 5e-4 * r_mid
    r = r_mid + h * np.arange(-100, 101)
    f = spherical_radial_seq(H1, l, med.n * k * r)[0][l]
    assert wtheta_ode_residual(l, k, med, r, f) < 1e-6


def test_wtheta_ode_residual_rejects_non_solution():
    k, med, l = 1.0, Medium(2.25, 1.0), 2
    r = np.linspace(2.0, 2.4, 101)
    f = 0.3 * r**2 - 0.1 * r + 0.05  # generic quadratic, not a solution
    assert wtheta_ode_residual(l, k, med, r, f) > 0.1


def test_wtheta_ode_residual_grid_validation():
    k, med, l = 1.0, Medium(2.25, 1.0), 2
    with pytest.raises(ValueError, match="at least 5"):
        wtheta_ode_residual(l, k, med, [1.0, 1.1], [0.0, 0.0])
    r_bad = np.array([1.0, 1.1, 1.25, 1.3, 1.4])
    with pytest.raises(ValueError, match="uniform"):
        wtheta_ode_residual(l, k, med, r_bad, np.zeros(5))
    r_coarse = np.linspace(1.0, 9.0, 5)
    with pytest.raises(ValueError, match="too coarse"):
        wtheta_ode_residual(l, k, med, r_coarse, np.zeros(5))
