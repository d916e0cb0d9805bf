import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorwave.maxwell_radial import (
    Medium,
    RadialProfile,
    TangentialState,
    fundamental_matrix,
    homogeneous_eta_zeta,
    longitudinal_components,
    propagate,
    radial_flux,
    system_matrix,
    transfer_closed_form,
    wtheta_ode_residual,
)
from tensorwave.specfun import RadialKind, spherical_radial

J, Y, H1, H2 = (
    RadialKind.BESSEL_J,
    RadialKind.BESSEL_Y,
    RadialKind.HANKEL1,
    RadialKind.HANKEL2,
)


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
    assert RadialProfile.from_dict(prof.to_dict()).boundaries == prof.boundaries
    with pytest.raises(ValueError, match="unknown profile keys"):
        RadialProfile.from_dict({**doc, "extra": 1})
    with pytest.raises(ValueError, match="unknown medium keys"):
        RadialProfile.from_dict(
            {"shells": [], "outer": {"eps": [1, 0], "mu": [1, 0], "rho": 2}}
        )


def test_tangential_state_shape_and_order():
    w = TangentialState.from_components(1.0, 2.0, 3.0, 4.0)
    assert np.allclose(w.h, [0.0, 1.0, 2.0])
    assert np.allclose(w.e, [0.0, 3.0, 4.0])
    assert np.allclose(w.as_vector4(), [1.0, 2.0, 3.0, 4.0])
    w2 = TangentialState.from_vector4([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(w2.as_vector4(), w.as_vector4())
    with pytest.raises(ValueError):
        TangentialState(np.array([1.0, 0, 0]), np.zeros(3))


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
    eta1, _, _, _ = homogeneous_eta_zeta(1, J, Y, 1.0, 2.0, Medium(1, 1))
    j12 = math.sin(2.0) / 4.0 - math.cos(2.0) / 2.0
    assert eta1[0, 0] == pytest.approx(j12, rel=1e-14)
    assert eta1[0, 0] == pytest.approx(0.435397, abs=1e-6)


def test_eta_zeta_assembled_state_solves_ode(rng):
    k = 1.3
    med = Medium(2.25, 1.0)
    h = 1e-5
    for l in range(1, 5):
        c1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)

        def u_at(r):
            eta1, eta2, zeta1, zeta2 = homogeneous_eta_zeta(l, J, Y, k, r, med)
            h_t = eta1 @ c1 + eta2 @ c2
            e_t = zeta1 @ c1 + zeta2 @ c2
            return r * np.concatenate([h_t, e_t])

        r0 = 1.7
        du = (u_at(r0 + h) - u_at(r0 - h)) / (2 * h)
        rhs = 1j * k * system_matrix(l, k, r0, med) @ u_at(r0)
        assert np.max(np.abs(du - rhs)) / np.max(np.abs(rhs)) < 1e-6


def test_polarization_blocks_det_scales_inverse_square():
    k, med = 1.0, Medium(1.96, 1.0)
    for l in (1, 3):
        dets = []
        for r in (1.0, 2.0):
            eta1, eta2, zeta1, zeta2 = homogeneous_eta_zeta(l, J, Y, k, r, med)
            theta_block = np.array(
                [[eta1[0, 0], eta2[0, 0]], [zeta1[1, 0], zeta2[1, 0]]]
            )
            x = med.n * k * r
            want = 1j / (med.eps * med.n * (k * r) ** 2)
            assert np.linalg.det(theta_block) == pytest.approx(want, rel=1e-12)
            dets.append(np.linalg.det(theta_block))
        assert dets[0] / dets[1] == pytest.approx(4.0, rel=1e-12)


def test_longitudinal_components_cases():
    e_r, h_r = longitudinal_components(
        1, 1.0, 1.0, Medium(1, 1), TangentialState.from_components(0, 5.0, 0, -2.0)
    )
    assert e_r == 0.0 and h_r == 0.0
    e_r, h_r = longitudinal_components(
        1, 1.0, 1.0, Medium(1, 1), TangentialState.from_components(1.0, 0, 0, 0)
    )
    assert e_r == pytest.approx(-math.sqrt(2.0), rel=1e-15)
    assert h_r == 0.0


def test_propagate_matches_closed_form_single_shell():
    k = 1.0
    med = Medium(2.25, 1.0)
    for l in (1, 4):
        r0, r1 = 0.5 / k, 10.0 / k
        phi0 = fundamental_matrix(l, J, Y, k, r0, med)
        c = np.array([1.0, -0.5j, 0.25, 1.5j]) / l
        w0 = TangentialState.from_vector4(phi0 @ c / r0)
        got = propagate(l, k, med, r0, r1, w0).as_vector4()
        ref = (transfer_closed_form(l, k, r0, r1, med) @ (phi0 @ c)) / r1
        assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 1e-8


def test_propagate_zero_state_and_linearity(rng):
    k, med, l = 1.2, Medium(1.69, 1.0), 2
    zero = TangentialState.from_vector4(np.zeros(4))
    out = propagate(l, k, med, 1.0, 3.0, zero)
    assert np.allclose(out.as_vector4(), 0.0)
    a = TangentialState.from_vector4(rng.standard_normal(4) + 0j)
    b = TangentialState.from_vector4(rng.standard_normal(4) + 0j)
    lam = 0.7 - 0.4j
    combo = TangentialState.from_vector4(a.as_vector4() + lam * b.as_vector4())
    out_combo = propagate(l, k, med, 1.0, 3.0, combo).as_vector4()
    out_sum = (
        propagate(l, k, med, 1.0, 3.0, a).as_vector4()
        + lam * propagate(l, k, med, 1.0, 3.0, b).as_vector4()
    )
    scale = np.max(np.abs(out_sum))
    assert np.max(np.abs(out_combo - out_sum)) < 1e-12 * scale


def test_propagate_two_shell_profile():
    k = 1.0
    prof = RadialProfile((2.0,), (Medium(2.25, 1.0), Medium(1.0, 1.21)))
    l = 3
    r0, rb, r1 = 0.8, 2.0, 6.0
    phi0 = fundamental_matrix(l, J, Y, k, r0, prof.media[0])
    c = np.array([0.3, 1.0, -0.7j, 0.2])
    u0 = phi0 @ c
    got = propagate(l, k, prof, r0, r1, TangentialState.from_vector4(u0 / r0))
    t = transfer_closed_form(l, k, rb, r1, prof.media[1]) @ transfer_closed_form(
        l, k, r0, rb, prof.media[0]
    )
    ref = (t @ u0) / r1
    assert np.max(np.abs(got.as_vector4() - ref)) / np.max(np.abs(ref)) < 1e-8


def test_propagate_inward_round_trip():
    k, med, l = 1.0, Medium(1.44, 1.0), 2
    w0 = TangentialState.from_components(1.0, 0.3j, -0.2, 0.8)
    there = propagate(l, k, med, 1.0, 4.0, w0)
    back = propagate(l, k, med, 4.0, 1.0, there)
    assert np.max(np.abs(back.as_vector4() - w0.as_vector4())) < 1e-9


def test_propagate_continuity_across_boundary():
    # crossing a boundary introduces no jump in W
    k = 1.0
    prof = RadialProfile((2.0,), (Medium(4.0, 1.0), Medium(1.0, 1.0)))
    w0 = TangentialState.from_components(0.5, 1.0, 0.0, -0.3)
    eps = 1e-9
    w_in = propagate(2, k, prof, 1.0, 2.0 - eps, w0)
    w_out = propagate(2, k, prof, 1.0, 2.0 + eps, w0)
    assert np.max(np.abs(w_in.as_vector4() - w_out.as_vector4())) < 1e-6


def test_propagate_rejects_l0_and_bad_radii():
    w0 = TangentialState.from_components(1, 0, 0, 0)
    with pytest.raises(ValueError, match="l >= 1"):
        propagate(0, 1.0, Medium(1, 1), 1.0, 2.0, w0)
    with pytest.raises(ValueError):
        propagate(1, 1.0, Medium(1, 1), 0.0, 2.0, w0)


def test_radial_flux_conserved_in_lossless_medium():
    k, med, l = 1.0, Medium(2.25, 1.0), 2
    phi0 = fundamental_matrix(l, H1, H2, k, 1.0, med)
    c = np.array([0.6, -0.2j, 1.0, 0.4j])
    w0 = TangentialState.from_vector4(phi0 @ c / 1.0)
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
    f = np.array([spherical_radial(J, l, med.n * k * rr)[0] for rr in r])
    assert wtheta_ode_residual(l, k, med, r, f) < 1e-6


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_wtheta_ode_residual_accepts_hankel1(l):
    # outgoing solutions carry the growing y_l part below the turning
    # point, so resolve with a finer stencil
    k, med = 1.0, Medium(2.25, 1.0)
    r_mid = math.sqrt(l * (l + 1) + 6.0) / (abs(med.n) * k)
    h = 5e-4 * r_mid
    r = r_mid + h * np.arange(-100, 101)
    f = np.array([spherical_radial(H1, l, med.n * k * rr)[0] for rr in r])
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
