import json
import math
import pathlib

import numpy as np
import pytest

from oracles import curl_fd, div_fd, mie_ab, mie_ab_mp
from tensorwave.harmonics import QuadratureRule
from tensorwave.maxwell_radial import Medium
from tensorwave.specfun import ModeIndex, RadialKind
from tensorwave.synthesis import (
    FieldSample,
    PartialWave,
    match_sphere,
    multipole_amplitudes,
    project_sampled,
    recover_coefficients,
    synthesize,
)

J, Y, H1, H2 = (
    RadialKind.BESSEL_J,
    RadialKind.BESSEL_Y,
    RadialKind.HANKEL1,
    RadialKind.HANKEL2,
)
VACUUM = Medium(1.0, 1.0)


def wave(l, m, c1, c2=(0, 0), kinds=(H1, H2)):
    return PartialWave(ModeIndex(l, m), c1, c2, kinds)


def e_field_fn(waves, k, med):
    def at(r, th, ph):
        return synthesize(waves, k, med, [[r, th, ph]])[0].e

    return at


def h_field_fn(waves, k, med):
    def at(r, th, ph):
        return synthesize(waves, k, med, [[r, th, ph]])[0].h

    return at


def test_partial_wave_validation():
    with pytest.raises(ValueError, match="l >= 1"):
        wave(0, 0, (1, 0))
    with pytest.raises(ValueError, match="2-vector"):
        PartialWave(ModeIndex(1, 0), [1, 0, 0], [0, 0], (J, Y))
    with pytest.raises(ValueError, match="RadialKind"):
        PartialWave(ModeIndex(1, 0), [1, 0], [0, 0], ("hankel1", "hankel2"))


def test_field_sample_validation():
    with pytest.raises(ValueError, match="r > 0"):
        FieldSample(0.0, 1.0, 1.0, np.zeros(3), np.zeros(3))


def test_empty_wave_list_gives_zero_field():
    samples = synthesize([], 1.0, VACUUM, [[1.0, 0.5, 0.5], [2.0, 2.0, 3.0]])
    for s in samples:
        assert np.all(s.e == 0) and np.all(s.h == 0)


@pytest.mark.parametrize(
    "point, message",
    [
        ([0.0, 1.0, 1.0], "r > 0"),
        ([math.nan, 1.0, 1.0], "point 1 has r = nan"),
        ([1.0, math.nan, 1.0], "point 1 has theta = nan"),
        ([1.0, 1.0, math.nan], "point 1 has phi = nan"),
        ([1.0, 1.0, math.inf], "point 1 has phi = inf"),
        ([1.0, 3.5, 0.0], r"theta must lie in \[0, pi\], got 3.5"),
    ],
    ids=["origin", "r-nan", "theta-nan", "phi-nan", "phi-inf", "theta-range"],
)
def test_synthesize_rejects_origin(point, message):
    with pytest.raises(ValueError, match=message):
        synthesize([wave(1, 0, (1, 0))], 1.0, VACUUM, [[1.5, 0.5, 0.5], point])


def test_grouped_synthesis_matches_point_by_point():
    # shared theta across radii, shared r across thetas and shared phi
    # exercise the (r, theta)-row and phi grouping
    k, med = 1.3, Medium(1.44, 1.1)
    waves = [
        wave(1, 0, (1.0, 0.5j), (0.2, 0.0), kinds=(J, H1)),
        wave(2, -1, (0.3, -0.7), (0.0, 0.4j)),
        wave(3, -1, (0.1j, 0.2), kinds=(Y, H2)),
        wave(3, 2, (0.6, 0.0), (0.0, -0.5)),
        wave(2, -1, (0.2, 0.1), (0.3j, 0.0), kinds=(J, Y)),
    ]
    pts = [
        [1.5, 0.7, 0.3],
        [2.5, 0.7, 1.9],
        [1.5, 2.2, 0.3],
        [2.5, 0.7, 0.3],
        [3.0, 0.0, 4.0],
        [1.5, 0.7, 5.1],
        [3.0, math.pi, 4.0],
    ]
    grouped = synthesize(waves, k, med, pts)
    for p, s in zip(pts, grouped):
        single = synthesize(waves, k, med, [p])[0]
        for got, want in ((s.e, single.e), (s.h, single.h)):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_superposition(rng):
    k = 1.1
    a = [wave(1, 0, (1.0, 0.5j), (0.2, 0.0))]
    b = [wave(2, 1, (0.0, 1.0), (0.0, -0.3j)), wave(3, -2, (0.7, 0.0))]
    pts = [[1.5, 0.8, 0.3], [2.2, 2.1, 4.0]]
    both = synthesize(a + b, k, VACUUM, pts)
    only_a = synthesize(a, k, VACUUM, pts)
    only_b = synthesize(b, k, VACUUM, pts)
    for s, sa, sb in zip(both, only_a, only_b):
        scale = max(np.max(np.abs(s.e)), np.max(np.abs(s.h)))
        assert np.max(np.abs(s.e - sa.e - sb.e)) < 1e-12 * scale
        assert np.max(np.abs(s.h - sa.h - sb.h)) < 1e-12 * scale


def test_dipole_satisfies_curl_equations():
    # single outgoing (1, 0) wave, c2 = 0: both curl equations hold
    k = 1.0
    waves = [wave(1, 0, (1.0, 1.0))]
    e_at = e_field_fn(waves, k, VACUUM)
    h_at = h_field_fn(waves, k, VACUUM)
    for r, th, ph in [(1.5, 1.0, 0.5), (2.5, 2.2, 3.9)]:
        e0 = e_at(r, th, ph)
        h0 = h_at(r, th, ph)
        curl_e = curl_fd(e_at, r, th, ph)
        curl_h = curl_fd(h_at, r, th, ph)
        assert np.max(np.abs(curl_e - 1j * k * h0)) / np.max(np.abs(k * h0)) < 1e-5
        assert np.max(np.abs(curl_h + 1j * k * e0)) / np.max(np.abs(k * e0)) < 1e-5


def test_curl_equations_in_material_medium():
    k = 0.9
    med = Medium(2.25, 1.2)
    waves = [wave(2, -1, (0.8, -0.4j), (0.1, 0.2))]
    e_at = e_field_fn(waves, k, med)
    h_at = h_field_fn(waves, k, med)
    r, th, ph = 1.8, 1.2, 0.7
    e0, h0 = e_at(r, th, ph), h_at(r, th, ph)
    curl_e = curl_fd(e_at, r, th, ph)
    curl_h = curl_fd(h_at, r, th, ph)
    assert (
        np.max(np.abs(curl_e - 1j * k * med.mu * h0)) / np.max(np.abs(k * med.mu * h0))
        < 1e-5
    )
    assert (
        np.max(np.abs(curl_h + 1j * k * med.eps * e0))
        / np.max(np.abs(k * med.eps * e0))
        < 1e-5
    )


def test_synthesized_field_is_divergence_free():
    k = 1.0
    med = Medium(1.96, 1.0)
    waves = [wave(1, 1, (1.0, 0.3)), wave(2, 0, (0.0, 0.5j))]
    e_at = e_field_fn(waves, k, med)
    h_at = h_field_fn(waves, k, med)
    r, th, ph = 2.0, 1.1, 2.3
    scale = np.max(np.abs(e_at(r, th, ph))) * k
    assert abs(div_fd(e_at, r, th, ph)) < 1e-5 * scale
    assert abs(div_fd(h_at, r, th, ph)) < 1e-5 * scale


def test_projection_round_trip(rng):
    k, med, r = 1.2, Medium(1.21, 1.0), 2.3
    kinds = (H1, H2)
    coeffs = {}
    waves = []
    for l in range(1, 6):
        for m in sorted({-l, 0, l - 1}):
            c1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            c2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            coeffs[(l, m)] = (c1, c2)
            waves.append(PartialWave(ModeIndex(l, m), c1, c2, kinds))
    rule = QuadratureRule.for_degree(5)
    pts = [[r, th, ph] for th in rule.thetas for ph in rule.phis]
    samples = synthesize(waves, k, med, pts)
    e_grid = np.array([s.e for s in samples]).reshape(
        len(rule.cos_nodes), rule.n_phi, 3
    )
    h_grid = np.array([s.h for s in samples]).reshape(
        len(rule.cos_nodes), rule.n_phi, 3
    )
    modes = [ModeIndex(l, m) for l, m in coeffs]
    hls, els = project_sampled(e_grid, h_grid, modes, rule)
    got = recover_coefficients(hls, els, modes, k, r, med, kinds)
    for (c1, c2), got1, got2 in zip(coeffs.values(), *got):
        assert np.max(np.abs(got1 - c1)) < 1e-10
        assert np.max(np.abs(got2 - c2)) < 1e-10


def test_projection_cross_mode_leakage():
    k, med, r = 1.0, VACUUM, 1.7
    waves = [wave(2, 1, (1.0, -0.5j), (0.3, 0.1))]
    rule = QuadratureRule.for_degree(4)
    pts = [[r, th, ph] for th in rule.thetas for ph in rule.phis]
    samples = synthesize(waves, k, med, pts)
    e_grid = np.array([s.e for s in samples]).reshape(-1, rule.n_phi, 3)
    h_grid = np.array([s.h for s in samples]).reshape(-1, rule.n_phi, 3)
    others = [ModeIndex(3, 0), ModeIndex(1, 1), ModeIndex(4, -2)]
    for hl, el in zip(*project_sampled(e_grid, h_grid, others, rule)):
        assert np.max(np.abs(hl)) < 1e-10
        assert np.max(np.abs(el)) < 1e-10


def test_project_sampled_shape_validation():
    rule = QuadratureRule.for_degree(2)
    with pytest.raises(ValueError, match="shape"):
        project_sampled(
            np.zeros((2, 2, 3)), np.zeros((2, 2, 3)), [ModeIndex(1, 0)], rule
        )


def test_multipole_amplitudes_cases():
    amps = multipole_amplitudes(
        [
            wave(1, 0, (1.0, 0.0), kinds=(H1, H2)),
            wave(2, 1, (0.0, 1j), kinds=(H1, Y)),
            wave(3, -3, (0.0, 0.0), kinds=(H1, H2)),
        ]
    )
    assert amps.a_e[(1, 0)] == 1.0 and amps.a_m[(1, 0)] == 0.0
    assert amps.a_e[(2, 1)] == 0.0 and amps.a_m[(2, 1)] == 1j
    assert amps.a_e[(3, -3)] == 0.0 and amps.a_m[(3, -3)] == 0.0


def test_multipole_amplitudes_rejects_non_multipole():
    with pytest.raises(ValueError, match="hankel1"):
        multipole_amplitudes([wave(1, 0, (1, 0), kinds=(J, Y))])
    with pytest.raises(ValueError, match="c2 = 0"):
        multipole_amplitudes([wave(1, 0, (1, 0), (0.1, 0))])
    with pytest.raises(ValueError, match="duplicate"):
        multipole_amplitudes([wave(1, 0, (1, 0)), wave(1, 0, (0, 1))])


def incident(l, c1=(1.0, 1.0)):
    return PartialWave(ModeIndex(l, 0), c1, (0, 0), (J, Y))


def test_match_sphere_no_contrast():
    for l in (1, 3):
        scattered, interior = match_sphere(
            l, 1.0, VACUUM, VACUUM, 0.8, incident(l, (0.7, -0.2j))
        )
        assert np.max(np.abs(scattered.c1)) < 1e-14
        assert np.allclose(interior.c1, [0.7, -0.2j], atol=1e-14)
        assert scattered.kinds[0] is H1
        assert interior.kinds[0] is J


def test_match_sphere_reproduces_mie_dipole():
    # x = k a = 0.5, n = 1.33 sphere in vacuum; scattered/incident = -a_l, -b_l
    k, radius = 1.0, 0.5
    sphere = Medium(1.33**2, 1.0)
    a, b = mie_ab(1.33, 0.5, 1)
    scattered, _ = match_sphere(1, k, sphere, VACUUM, radius, incident(1))
    assert -scattered.c1[0] == pytest.approx(a[0], rel=1e-10)
    assert -scattered.c1[1] == pytest.approx(b[0], rel=1e-10)


def test_match_sphere_matches_mie_table():
    # committed oracle table doubles as a regression anchor
    path = pathlib.Path(__file__).parent / "data" / "mie_oracle.json"
    table = json.loads(path.read_text())
    for case in table["cases"]:
        k = case["k"]
        radius = case["radius"]
        m = complex(*case["m"])
        sphere = Medium(m**2, 1.0)
        for i, (a_pair, b_pair) in enumerate(zip(case["a"], case["b"])):
            l = i + 1
            scattered, _ = match_sphere(l, k, sphere, VACUUM, radius, incident(l))
            assert -scattered.c1[0] == pytest.approx(
                complex(*a_pair), rel=1e-9, abs=1e-15
            )
            assert -scattered.c1[1] == pytest.approx(
                complex(*b_pair), rel=1e-9, abs=1e-15
            )


@pytest.mark.parametrize("x", [50.0, 1000.0])
@pytest.mark.parametrize("m", [1.33, 1.5 + 0.1j])
def test_match_sphere_matches_mpmath_mie_at_large_x(x, m):
    # up to the CLI's default lmax; at x = 1000, m = 1.33 a_1 was 37% off
    # while the Bessel sequence started its Miller recursion too low
    for l in sorted({1, 7, int(x), math.ceil(x + 4.0 * x ** (1.0 / 3.0) + 2.0)}):
        a, b = mie_ab_mp(m, x, l)
        scattered, _ = match_sphere(l, 1.0, Medium(m * m, 1.0), VACUUM, x, incident(l))
        assert -scattered.c1[0] == pytest.approx(a, rel=1e-9)
        assert -scattered.c1[1] == pytest.approx(b, rel=1e-9)


def test_match_sphere_linearity():
    k, radius = 1.0, 0.7
    sphere = Medium(2.56, 1.0)
    lam = 1.7 - 0.9j
    s1, i1 = match_sphere(2, k, sphere, VACUUM, radius, incident(2, (1.0, 0.4)))
    s2, i2 = match_sphere(
        2, k, sphere, VACUUM, radius, incident(2, (lam * 1.0, lam * 0.4))
    )
    assert np.max(np.abs(s2.c1 - lam * s1.c1)) < 1e-12 * np.max(np.abs(s2.c1))
    assert np.max(np.abs(i2.c1 - lam * i1.c1)) < 1e-12 * np.max(np.abs(i2.c1))


def test_match_sphere_no_contrast_limit_is_continuous():
    k, radius = 1.0, 0.6
    prev = None
    for eps in (1.5, 1.1, 1.01, 1.001):
        scattered, _ = match_sphere(
            1, k, Medium(eps, 1.0), VACUUM, radius, incident(1)
        )
        mag = np.max(np.abs(scattered.c1))
        if prev is not None:
            assert mag < prev
        prev = mag
    assert prev < 1e-3


def test_match_sphere_unitarity_lossless():
    # lossless sphere: Mie-equivalent coefficients sit on the unitarity
    # circle |a - 1/2| = 1/2, i.e. |a|^2 = Re(a)
    k, radius = 1.0, 3.0
    sphere = Medium(1.33**2, 1.0)
    for l in range(1, 8):
        scattered, _ = match_sphere(l, k, sphere, VACUUM, radius, incident(l))
        for coeff in -scattered.c1:
            assert abs(coeff) ** 2 == pytest.approx(coeff.real, abs=1e-10)


def test_match_sphere_validation():
    with pytest.raises(ValueError, match="l >= 1"):
        match_sphere(0, 1.0, VACUUM, VACUUM, 1.0, incident(1))
    with pytest.raises(ValueError, match="radius"):
        match_sphere(1, 1.0, VACUUM, VACUUM, 0.0, incident(1))
    with pytest.raises(ValueError, match="l="):
        match_sphere(2, 1.0, VACUUM, VACUUM, 1.0, incident(1))
    bad = PartialWave(ModeIndex(1, 0), [1, 0], [0.2, 0], (J, Y))
    with pytest.raises(ValueError, match="regular"):
        match_sphere(1, 1.0, VACUUM, VACUUM, 1.0, bad)
    outgoing = PartialWave(ModeIndex(1, 0), [1, 0], [0, 0], (H1, H2))
    with pytest.raises(ValueError, match="regular"):
        match_sphere(1, 1.0, VACUUM, VACUUM, 1.0, outgoing)
