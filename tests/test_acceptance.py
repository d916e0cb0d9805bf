"""Acceptance gate.

One test per shipped guarantee.  Each test measures an error against its
stated tolerance and prints a single PASS/FAIL line, so a full run reads
as a short report.
"""

import math
import time

import numpy as np
import pytest

from oracles import curl_fd, mie_ab
from tensorwave.harmonics import (
    AngularPoint,
    QuadratureRule,
    flm,
    flm_grid,
    l_dot_er_cross_xlm_residual,
    l_dot_xlm_residual,
    l_squared_check,
    lz_check,
    xlm,
    xlm_grid,
)
from tensorwave.maxwell_radial import (
    Medium,
    RadialProfile,
    TangentialState,
    fundamental_matrix,
    propagate,
    system_matrix,
    transfer_closed_form,
    wtheta_ode_residual,
)
from tensorwave.specfun import ModeIndex, RadialKind, spherical_radial, ylm
from tensorwave.synthesis import (
    PartialWave,
    match_sphere,
    project_sampled,
    recover_coefficients,
    synthesize,
)
from tensorwave.tensor3 import adjoint, det, trace

J, Y, H1, H2 = (
    RadialKind.BESSEL_J,
    RadialKind.BESSEL_Y,
    RadialKind.HANKEL1,
    RadialKind.HANKEL2,
)
VACUUM = Medium(1.0, 1.0)


def _report(capsys, label, pairs, extra=""):
    """Print one PASS/FAIL line; pairs is [(name, err, tol), ...]."""
    ok = all(err <= tol for _, err, tol in pairs)
    detail = ", ".join(
        f"{name} {err:.3e} (tol {tol:.0e})" for name, err, tol in pairs
    )
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}{extra}"
    with capsys.disabled():
        print(line)
    assert ok, line


def _modes(lmin, lmax):
    return [ModeIndex(l, m) for l in range(lmin, lmax + 1) for m in range(-l, l + 1)]


def _weights_grid(rule):
    w = rule.weights[:, None] * (2.0 * math.pi / rule.n_phi)
    return np.broadcast_to(w, (len(rule.cos_nodes), rule.n_phi))


def test_acceptance_1_tensor_gram_orthonormality(capsys):
    t0 = time.perf_counter()
    lmax = 6
    modes = _modes(1, lmax)
    rule = QuadratureRule.for_degree(lmax)
    tt, pp = rule.thetas[:, None], rule.phis[None, :]
    shape = (len(rule.cos_nodes), rule.n_phi, 3, 3)
    f = np.stack([np.broadcast_to(flm_grid(mode, tt, pp), shape) for mode in modes])
    w = _weights_grid(rule)
    gram = np.einsum("tp,atpki,btpkj->abij", w, f.conj(), f)
    expected = np.einsum("ab,ij->abij", np.eye(len(modes)), np.eye(3))
    err = np.max(np.abs(gram - expected))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(
        capsys,
        "acceptance 1, tensor harmonic gram is the identity (l <= 6)",
        [("max entry error", err, 1e-10)],
        f", {elapsed:.1f} s",
    )


def test_acceptance_2_scalar_vector_orthonormality(capsys):
    lmax = 6
    modes = _modes(1, lmax)
    rule = QuadratureRule.for_degree(lmax)
    tt, pp = rule.thetas[:, None], rule.phis[None, :]
    shape2 = (len(rule.cos_nodes), rule.n_phi)
    y = np.stack(
        [
            np.broadcast_to(np.asarray(ylm(mode, tt, pp), dtype=complex), shape2)
            for mode in modes
        ]
    )
    x = np.stack(
        [np.broadcast_to(xlm_grid(mode, tt, pp), shape2 + (3,)) for mode in modes]
    )
    w = _weights_grid(rule)
    eye = np.eye(len(modes))
    err_y = np.max(np.abs(np.einsum("tp,atp,btp->ab", w, y.conj(), y) - eye))
    err_x = np.max(np.abs(np.einsum("tp,atpk,btpk->ab", w, x.conj(), x) - eye))
    cross = np.einsum(
        "tp,atp,btp->ab", w, x[..., 1].conj(), x[..., 2]
    ) - np.einsum("tp,atp,btp->ab", w, x[..., 2].conj(), x[..., 1])
    err_cross = np.max(np.abs(cross))
    _report(
        capsys,
        "acceptance 2, scalar/vector orthonormality and cross integral (l <= 6)",
        [
            ("Y gram error", err_y, 1e-10),
            ("X gram error", err_x, 1e-10),
            ("cross integral", err_cross, 1e-10),
        ],
    )


def test_acceptance_3_invariant_identities(capsys, rng):
    err = 0.0
    for mode in _modes(0, 6):
        thetas = rng.uniform(0.05, math.pi - 0.05, 100)
        phis = rng.uniform(0.0, 2.0 * math.pi, 100)
        for th, ph in zip(thetas, phis):
            p = AngularPoint(float(th), float(ph))
            fmat = flm(mode, p)
            y = ylm(mode, th, ph)
            xv = xlm(mode, p)
            s = max(np.linalg.norm(fmat), 1e-30)
            xdotx = complex(np.sum(xv * xv))
            adj = adjoint(fmat)
            err = max(
                err,
                abs(trace(fmat) - (y + 2.0 * xv[1])) / s,
                abs(det(fmat) - y * xdotx) / s**3,
                np.max(np.abs(adj @ fmat - det(fmat) * np.eye(3))) / s**3,
                abs(trace(adj) - (xdotx + 2.0 * y * xv[1])) / s**2,
                abs(trace(fmat @ fmat) - (trace(fmat) ** 2 - 2.0 * trace(adj)))
                / s**2,
            )
    _report(
        capsys,
        "acceptance 3, invariant identities at random points (l <= 6)",
        [("max relative error", err, 1e-12)],
    )


def test_acceptance_4_ladder_eigenrelations(capsys, rng):
    err = 0.0
    for mode in _modes(0, 6):
        thetas = rng.uniform(0.05, math.pi - 0.05, 100)
        phis = rng.uniform(0.0, 2.0 * math.pi, 100)
        for th, ph in zip(thetas, phis):
            p = AngularPoint(float(th), float(ph))
            err = max(
                err,
                l_squared_check(mode, p),
                lz_check(mode, p),
                l_dot_xlm_residual(mode, p),
                l_dot_er_cross_xlm_residual(mode, p),
            )
    _report(
        capsys,
        "acceptance 4, angular momentum eigenrelations (l <= 6)",
        [("max residual", err, 1e-10)],
    )


def test_acceptance_5_radial_consistency(capsys):
    k = 1.0
    med = Medium(2.25, 1.0)

    err_ode = 0.0
    for l in range(1, 5):
        r_mid = max(2.0 * l, 4.0) / (abs(med.n) * k)
        r = np.linspace(0.95 * r_mid, 1.05 * r_mid, 401)
        for kind in (J, H1):
            f = np.array([spherical_radial(kind, l, med.n * k * rr)[0] for rr in r])
            err_ode = max(err_ode, wtheta_ode_residual(l, k, med, r, f))

    err_prop = 0.0
    a, b = 0.5 / k, 10.0 / k
    profile = RadialProfile((3.0 / k,), (Medium(2.25, 1.0), Medium(1.0, 1.21)))
    for l in range(1, 5):
        phi0 = fundamental_matrix(l, J, Y, k, a, med)
        c = np.array([1.0, -0.5j, 0.25, 1.5j]) / l
        w0 = TangentialState.from_vector4(phi0 @ c / a)

        w1 = propagate(l, k, med, a, b, w0)
        ref = transfer_closed_form(l, k, a, b, med) @ (w0.as_vector4() * a) / b
        err_prop = max(
            err_prop,
            np.max(np.abs(w1.as_vector4() - ref)) / np.max(np.abs(ref)),
        )

        w2 = propagate(l, k, profile, a, b, w0)
        t1 = transfer_closed_form(l, k, a, 3.0 / k, profile.media[0])
        t2 = transfer_closed_form(l, k, 3.0 / k, b, profile.media[1])
        ref2 = t2 @ (t1 @ (w0.as_vector4() * a)) / b
        err_prop = max(
            err_prop,
            np.max(np.abs(w2.as_vector4() - ref2)) / np.max(np.abs(ref2)),
        )
    _report(
        capsys,
        "acceptance 5, radial solutions and propagator (l <= 4, kr in [0.5, 10])",
        [
            ("ode residual", err_ode, 1e-6),
            ("propagator error", err_prop, 1e-8),
        ],
    )


def test_acceptance_6_curl_equations_random_fields(capsys, rng):
    k = 1.0
    err = 0.0
    for _ in range(5):
        waves = []
        for mode in _modes(1, 3):
            c1 = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / mode.l
            c2 = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / mode.l
            waves.append(PartialWave(mode, c1, c2, (H1, H2)))

        def e_at(r, th, ph):
            return synthesize(waves, k, VACUUM, [[r, th, ph]])[0].e

        def h_at(r, th, ph):
            return synthesize(waves, k, VACUUM, [[r, th, ph]])[0].h

        for _ in range(2):
            r = float(rng.uniform(1.5, 3.0))
            th = float(rng.uniform(0.6, 2.5))
            ph = float(rng.uniform(0.0, 2.0 * math.pi))
            e0, h0 = e_at(r, th, ph), h_at(r, th, ph)
            curl_e = curl_fd(e_at, r, th, ph)
            curl_h = curl_fd(h_at, r, th, ph)
            err = max(
                err,
                np.max(np.abs(curl_e - 1j * k * h0)) / np.max(np.abs(k * h0)),
                np.max(np.abs(curl_h + 1j * k * e0)) / np.max(np.abs(k * e0)),
            )
    _report(
        capsys,
        "acceptance 6, curl equations for random superpositions (l <= 3)",
        [("max relative residual", err, 1e-5)],
    )


def test_acceptance_7_projection_round_trip(capsys, rng):
    k, med, r = 1.2, Medium(1.21, 1.0), 2.3
    kinds = (H1, H2)
    modes = _modes(1, 5)
    coeffs = {}
    waves = []
    for mode in modes:
        c1 = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / mode.l
        c2 = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / mode.l
        coeffs[mode] = (c1, c2)
        waves.append(PartialWave(mode, c1, c2, kinds))

    rule = QuadratureRule.for_degree(7)
    pts = [[r, th, ph] for th in rule.thetas for ph in rule.phis]
    samples = synthesize(waves, k, med, pts)
    nt = len(rule.cos_nodes)
    e_grid = np.array([s.e for s in samples]).reshape(nt, rule.n_phi, 3)
    h_grid = np.array([s.h for s in samples]).reshape(nt, rule.n_phi, 3)

    err_rt = 0.0
    hls, els = project_sampled(e_grid, h_grid, modes, rule)
    for mode, got1, got2 in zip(
        modes, *recover_coefficients(hls, els, modes, k, r, med, kinds)
    ):
        c1, c2 = coeffs[mode]
        err_rt = max(
            err_rt, np.max(np.abs(got1 - c1)), np.max(np.abs(got2 - c2))
        )

    err_leak = 0.0
    absent = [ModeIndex(6, 0), ModeIndex(6, -4), ModeIndex(7, 2)]
    for hl, el in zip(*project_sampled(e_grid, h_grid, absent, rule)):
        err_leak = max(err_leak, np.max(np.abs(hl)), np.max(np.abs(el)))
    _report(
        capsys,
        "acceptance 7, projection round trip and mode isolation (l <= 5)",
        [
            ("coefficient error", err_rt, 1e-10),
            ("cross-mode leakage", err_leak, 1e-10),
        ],
    )


def test_acceptance_8_mie_equivalence(capsys):
    t0 = time.perf_counter()
    k = 1.0
    err = 0.0
    for x in (0.5, 3.0):
        lmax = max(4, math.ceil(x + 4.0 * x ** (1.0 / 3.0) + 2.0))
        for m in (1.33 + 0.0j, 1.5 + 0.1j):
            want_a, want_b = mie_ab(m, x, lmax)
            sphere = Medium(m * m, 1.0)
            for l in range(1, lmax + 1):
                incident = PartialWave(ModeIndex(l, 0), [1.0, 1.0], [0, 0], (J, Y))
                scattered, _ = match_sphere(l, k, sphere, VACUUM, x, incident)
                err = max(
                    err,
                    abs(-scattered.c1[0] - want_a[l - 1]) / abs(want_a[l - 1]),
                    abs(-scattered.c1[1] - want_b[l - 1]) / abs(want_b[l - 1]),
                )
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(
        capsys,
        "acceptance 8, sphere matching vs independent Mie oracle",
        [("max relative error", err, 1e-9)],
        f", {elapsed:.1f} s",
    )


def test_acceptance_9_negative_controls(capsys):
    k = 1.0
    med = Medium(2.25, 1.0)
    r = np.linspace(2.85, 3.15, 401)
    not_a_solution = 0.2 + 0.03 * (r - 3.0) ** 2
    residual = wtheta_ode_residual(2, k, med, r, not_a_solution)
    rejects_non_solution = residual > 0.1

    with pytest.raises(ValueError, match=r"\|m\| <= l"):
        ModeIndex(2, 3)
    with pytest.raises(ValueError, match="l >= 1"):
        system_matrix(0, k, 1.0, med)
    with pytest.raises(ValueError, match="l >= 1"):
        propagate(0, k, med, 1.0, 2.0, TangentialState([0, 1, 0], [0, 0, 1]))
    with pytest.raises(ValueError, match="l >= 1"):
        incident = PartialWave(ModeIndex(1, 0), [1, 0], [0, 0], (J, Y))
        match_sphere(0, k, med, VACUUM, 1.0, incident)

    line = (
        f"[{'PASS' if rejects_non_solution else 'FAIL'}] acceptance 9, invalid "
        f"requests are rejected: quadratic probe residual {residual:.2e} "
        "(must exceed 0.1); bad mode, l=0 solver, and l=0 sphere calls raised"
    )
    with capsys.disabled():
        print(line)
    assert rejects_non_solution, line
