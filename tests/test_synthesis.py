import itertools
import json
import math
import pathlib

import numpy as np
import pytest

from oracles import curl_fd, div_fd, mie_ab, mie_ab_mp
from tensorwave import synthesis
from tensorwave.harmonics import QuadratureRule, flm
from tensorwave.maxwell_radial import Medium, _tangential, longitudinal_components
from tensorwave.specfun import ModeIndex, RadialKind, spherical_radial_seq
from tensorwave.synthesis import (
    KINDS,
    WaveTable,
    match_sphere,
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
    """One wave as a row (l, m, (c1, c2), kind codes) of a WaveTable."""
    return l, m, (c1, c2), [KINDS.index(kind) for kind in kinds]


def table(waves):
    """The WaveTable of rows made by `wave`."""
    l, m, c, kinds = zip(*waves) if waves else ([],) * 4
    return WaveTable(
        np.array(l, dtype=int),
        np.array(m, dtype=int),
        np.reshape(np.array(c, dtype=complex), (-1, 2, 2)),
        np.reshape(np.array(kinds, dtype=int), (-1, 2)),
    )


def e_field_fn(waves, k, med):
    def at(r, th, ph):
        return synthesize(table(waves), k, med, [[r, th, ph]])[0][0]

    return at


def h_field_fn(waves, k, med):
    def at(r, th, ph):
        return synthesize(table(waves), k, med, [[r, th, ph]])[1][0]

    return at


def test_partial_wave_validation():
    # the first faulty wave is named, with its first fault
    with pytest.raises(ValueError, match="l >= 1"):
        table([wave(1, 0, (1, 0)), wave(0, 0, (1, 0))])
    with pytest.raises(ValueError, match=r"\|m\| <= l required, got l=2, m=3"):
        table([wave(1, 0, (1, 0)), wave(2, 3, (1, 0)), wave(0, 0, (1, 0))])
    with pytest.raises(ValueError, match="2-vector"):
        WaveTable([1], [0], [[1, 0, 0], [0, 0, 0]], [[0, 1]])
    with pytest.raises(ValueError, match="RadialKind codes"):
        WaveTable([1], [0], [[[1, 0], [0, 0]]], [[0, len(KINDS)]])
    with pytest.raises(ValueError, match="integer"):
        WaveTable([1.5], [0], [[[1, 0], [0, 0]]], [[0, 1]])
    w = table([wave(2, -1, (1, 0.5j), (0, 1), (J, Y))])
    assert len(w) == 1 and w.kinds.tolist() == [[0, 1]]
    with pytest.raises(ValueError, match="read-only"):
        w.c[0, 0, 0] = 2.0


def test_empty_wave_list_gives_zero_field():
    e, h = synthesize(table([]), 1.0, VACUUM, [[1.0, 0.5, 0.5], [2.0, 2.0, 3.0]])
    assert e.shape == h.shape == (2, 3)
    assert np.all(e == 0) and np.all(h == 0)


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
        synthesize(table([wave(1, 0, (1, 0))]), 1.0, VACUUM, [[1.5, 0.5, 0.5], point])


def test_grouped_synthesis_matches_point_by_point(monkeypatch):
    # shared theta across radii, shared r across thetas and shared phi
    # exercise the (r, theta)-row and phi grouping
    k, med = 1.3, Medium(1.44, 1.1)
    pts = [
        [1.5, 0.7, 0.3],
        [2.5, 0.7, 1.9],
        [1.5, 2.2, 0.3],
        [2.5, 0.7, 0.3],
        [3.0, 0.0, 4.0],
        [1.5, 0.7, 5.1],
        [3.0, math.pi, 4.0],
    ]
    few = [
        wave(1, 0, (1.0, 0.5j), (0.2, 0.0), kinds=(J, H1)),
        wave(2, -1, (0.3, -0.7), (0.0, 0.4j)),
        wave(3, -1, (0.1j, 0.2), kinds=(Y, H2)),
        wave(3, 2, (0.6, 0.0), (0.0, -0.5)),
        wave(2, -1, (0.2, 0.1), (0.3j, 0.0), kinds=(J, Y)),
    ]
    # every mode l <= 4 in shuffled order, (3, -2) twice with other kinds;
    # at 20 entries per block the 5 rows take blocks of whole orders
    modes = [(l, m) for l in range(1, 5) for m in range(-l, l + 1)] + [(3, -2)]
    order = np.random.default_rng(7).permutation(len(modes))
    kinds = list(itertools.product(RadialKind, repeat=2))
    many = [
        wave(*modes[i], (1.0 / (1 + i), 0.5j), (0.1 * i, -0.3), kinds=kinds[i % 16])
        for i in order
    ]
    tables = []
    seq = synthesis._legendre_table
    monkeypatch.setattr(synthesis, "_legendre_table",
                        lambda *a, **kw: tables.append(a[0]) or seq(*a, **kw))
    for waves, block, tol in ((few, synthesis._BLOCK, 1e-14), (many, 20, 1e-15)):
        monkeypatch.setattr(synthesis, "_BLOCK", block)
        tables.clear()
        grouped = synthesize(table(waves), k, med, pts)
        if waves is many:
            assert len(tables) > 3
        for i, p in enumerate(pts):
            single = synthesize(table(waves), k, med, [p])
            for got, want in zip(grouped, single):
                assert np.max(np.abs(got[i] - want[0])) <= tol * np.max(np.abs(want))


def test_blocks_hold_whole_orders_and_at_most_the_block_entries(monkeypatch):
    # 5,000 rows at L = 24 once held every wave x row entry at once
    seen = []
    cols = synthesis._theta_columns

    def counted(l, m, table):
        seen.append(m.tolist())
        return cols(l, m, table)

    monkeypatch.setattr(synthesis, "_theta_columns", counted)
    monkeypatch.setattr(synthesis, "_BLOCK", 300)
    rng = np.random.default_rng(11)
    modes = [(l, m) for l in range(1, 7) for m in range(-l, l + 1)]
    pts = np.column_stack([rng.uniform(1.0, 3.0, 30), rng.uniform(0.1, 3.0, 30),
                           rng.uniform(0.0, 6.0, 30)])
    waves = table([wave(l, m, (1.0, 0.5)) for l, m in modes])
    synthesize(waves, 1.0, VACUUM, pts)
    assert sorted(m for block in seen for m in block) == sorted(m for _, m in modes)
    for block in seen:
        assert len(block) * 30 <= 300 or len(set(block)) == 1
        # whole orders, sorted by (|m|, m), none shared between blocks
        assert block == sorted(block, key=lambda m: (abs(m), m))
    orders = [set(block) for block in seen]
    assert sum(map(len, orders)) == len(set().union(*orders)) == 13
    assert len(seen) > 3


@pytest.mark.parametrize("shape", ["roundtrip", "nearfield"])
def test_one_pass_makes_one_call_of_each_table_layer(monkeypatch, shape):
    # the benchmark's shapes fit in one block: one Legendre table, one set
    # of theta columns and one tangential state for all of their waves
    calls = []
    for name in ("_legendre_table", "_theta_columns", "_tangential"):
        fn = getattr(synthesis, name)
        monkeypatch.setattr(synthesis, name, lambda *a, _fn=fn, _name=name, **kw:
                            calls.append(_name) or _fn(*a, **kw))
    if shape == "roundtrip":
        lmax, kinds = 16, (J, H1)
        rule = QuadratureRule.for_degree(16)
        pts = [[24.0, th, ph] for th in rule.thetas for ph in rule.phis]
    else:
        lmax, kinds = 6, (Y, H2)
        rng = np.random.default_rng(2)
        pts = np.column_stack([rng.uniform(1.5, 15.0, 120),
                               np.arccos(rng.uniform(-1.0, 1.0, 120)),
                               rng.uniform(0.0, 2.0 * np.pi, 120)])
    waves = table([wave(l, m, (1.0, 0.5j), (0.25, 0.0), kinds)
                   for l in range(1, lmax + 1) for m in range(-l, l + 1)])
    e, h = synthesize(waves, 1.0, VACUUM, pts)
    assert np.isfinite(e).all() and np.isfinite(h).all()
    assert sorted(calls) == ["_legendre_table", "_tangential", "_theta_columns"]


@pytest.mark.parametrize("kinds", list(itertools.product(RadialKind, repeat=2)))
def test_synthesize_matches_the_kinds_of_the_wave_evaluated_directly(kinds):
    # synthesize builds every kind from j and h1; the reference evaluates
    # the two kinds of the wave themselves, in an absorbing medium
    k, med, l = 1.3, Medium(2.25 + 0.4j, 1.0), 3
    c = np.array([(0.7, -0.2j), (0.3j, 0.5)])
    pts = np.array([[0.8, 0.4, 1.1], [2.5, 2.0, 5.0], [6.0, 1.3, 0.2]])
    e, h = synthesize(table([wave(l, -2, *c, kinds=kinds)]), k, med, pts)
    for i, (r, th, ph) in enumerate(pts):
        (f1, d1), (f2, d2) = (
            (f[l], d[l])
            for f, d in (spherical_radial_seq(kind, l, med.n * k * r) for kind in kinds)
        )
        u = _tangential(f1, d1, f2, d2, k, r, med, c.ravel())
        e_r, h_r = longitudinal_components(l, k, r, med, u / r)
        f = flm(ModeIndex(l, -2), th, ph)
        for got, want in ((h[i], f @ [h_r, u[0] / r, u[1] / r]),
                          (e[i], f @ [e_r, u[2] / r, u[3] / r])):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_synthesize_runs_each_radial_part_only_as_far_as_its_waves(monkeypatch):
    # h1_80 at x = 1e-3 is past the double range, but only the l = 2 wave
    # uses h1; a superposition of j waves alone builds j alone
    calls = []
    pair = synthesis._radial_pair

    def counted(xs, tops, *args, **kwargs):
        calls.append((np.shape(xs), np.asarray(tops).tolist()))
        return pair(xs, tops, *args, **kwargs)

    monkeypatch.setattr(synthesis, "_radial_pair", counted)
    waves = [wave(80, 3, (1.0, 0.5), (0.2j, 0.0), kinds=(J, J)),
             wave(2, 1, (0.3, 0.0), (0.0, 0.7), kinds=(J, H1))]
    pts = [[1e-3, 0.9, 0.4], [1e-3, 2.0, 1.0], [2e-3, 2.0, 1.0]]
    e, h = synthesize(table(waves), 1.0, VACUUM, pts)
    assert np.isfinite(e).all() and np.isfinite(h).all()
    assert calls == [((2,), [[80, 80], [2, 2]])]
    calls.clear()
    synthesize(table(waves[:1]), 1.0, VACUUM, pts)
    assert calls == [((2,), [[80, 80], [-1, -1]])]


def test_product_grid_and_scattered_points_agree(monkeypatch, rng):
    # the quadrature grid takes the phase sum on its (phi, row) grid, a
    # scattered subset of its points takes it point by point
    contractions = []
    tensordot = np.tensordot
    monkeypatch.setattr(np, "tensordot", lambda *a, **kw: contractions.append(1)
                        or tensordot(*a, **kw))
    rule = QuadratureRule.for_degree(8)
    pts = np.array([[2.5, th, ph] for th in rule.thetas for ph in rule.phis])
    waves = table([wave(l, m, *rng.standard_normal((2, 2)), kinds=(J, H1))
                   for l in range(1, 9) for m in range(-l, l + 1)])
    grid = np.hstack(synthesize(waves, 1.2, VACUUM, pts))
    assert contractions == [1]
    pick = rng.choice(len(pts), 25, replace=False)
    scattered = np.hstack(synthesize(waves, 1.2, VACUUM, pts[pick]))
    assert contractions == [1]
    assert np.max(np.abs(scattered - grid[pick])) <= 1e-15 * np.max(np.abs(grid))
    # one order per block and chunks of 8 points give the same sums
    monkeypatch.setattr(synthesis, "_BLOCK", 8)
    chunked = np.hstack(synthesize(waves, 1.2, VACUUM, pts[pick]))
    assert np.max(np.abs(chunked - scattered)) <= 1e-15 * np.max(np.abs(grid))


def test_non_finite_field_names_its_point():
    # large but finite coefficients overflow in the contraction
    big = [wave(1, 0, (1e308 + 1e308j, 1e308 - 1e308j), (1e308 + 1e308j, 0.0),
                kinds=(Y, H2))]
    with np.errstate(all="raise"), pytest.raises(OverflowError) as info:
        synthesize(table(big), 1.0, VACUUM, [[0.5, 1.0, 0.3], [3.0, 2.0, 1.0]])
    assert str(info.value) == (
        "the field at point 0 (r, theta, phi) = (0.5, 1.0, 0.3) leaves the "
        "double range"
    )


def test_superposition(rng):
    k = 1.1
    a = [wave(1, 0, (1.0, 0.5j), (0.2, 0.0))]
    b = [wave(2, 1, (0.0, 1.0), (0.0, -0.3j)), wave(3, -2, (0.7, 0.0))]
    pts = [[1.5, 0.8, 0.3], [2.2, 2.1, 4.0]]
    both = np.stack(synthesize(table(a + b), k, VACUUM, pts))
    only_a = np.stack(synthesize(table(a), k, VACUUM, pts))
    only_b = np.stack(synthesize(table(b), k, VACUUM, pts))
    for i in range(len(pts)):
        scale = np.max(np.abs(both[:, i]))
        assert np.max(np.abs(both[:, i] - only_a[:, i] - only_b[:, i])) < 1e-12 * scale


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
            waves.append(wave(l, m, c1, c2, kinds))
    rule = QuadratureRule.for_degree(5)
    pts = [[r, th, ph] for th in rule.thetas for ph in rule.phis]
    e, h = synthesize(table(waves), k, med, pts)
    e_grid = e.reshape(len(rule.cos_nodes), rule.n_phi, 3)
    h_grid = h.reshape(len(rule.cos_nodes), rule.n_phi, 3)
    modes = [ModeIndex(l, m) for l, m in coeffs]
    hls, els = project_sampled(e_grid, h_grid, modes, rule)
    got = recover_coefficients(hls, els, modes, k, r, med, kinds)
    for (c1, c2), got1, got2 in zip(coeffs.values(), *got):
        assert np.max(np.abs(got1 - c1)) < 1e-10
        assert np.max(np.abs(got2 - c2)) < 1e-10


def test_projection_cross_mode_leakage():
    k, med, r = 1.0, VACUUM, 1.7
    waves = table([wave(2, 1, (1.0, -0.5j), (0.3, 0.1))])
    rule = QuadratureRule.for_degree(4)
    pts = [[r, th, ph] for th in rule.thetas for ph in rule.phis]
    e, h = synthesize(waves, k, med, pts)
    e_grid = e.reshape(-1, rule.n_phi, 3)
    h_grid = h.reshape(-1, rule.n_phi, 3)
    others = [ModeIndex(3, 0), ModeIndex(1, 1), ModeIndex(4, -2)]
    for hl, el in zip(*project_sampled(e_grid, h_grid, others, rule)):
        assert np.max(np.abs(hl)) < 1e-10
        assert np.max(np.abs(el)) < 1e-10


def test_project_sampled_equals_the_quadrature_sum_of_each_mode(rng):
    # the reference: sum over every node of w F_lm^H @ field, mode by mode,
    # with F_lm from `flm`; modes unsorted, repeated, and l = 0 among them
    rule = QuadratureRule.for_degree(5)
    shape = (len(rule.cos_nodes), rule.n_phi, 3)
    e_grid = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    h_grid = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    modes = [ModeIndex(*lm) for lm in
             ((3, -2), (1, 1), (5, 5), (0, 0), (3, -2), (4, 0), (2, -1), (5, -4))]
    hls, els = project_sampled(e_grid, h_grid, modes, rule)
    w = rule.weights[:, None] * (2.0 * math.pi / rule.n_phi)
    for mode, hl, el in zip(modes, hls, els):
        f_h = flm(mode, rule.thetas[:, None], rule.phis[None, :]).conj().swapaxes(-1, -2)
        for got, grid in ((hl, h_grid), (el, e_grid)):
            want = np.einsum("tp,tpij,tpj->i", w, f_h, grid)
            assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


def test_project_sampled_shape_validation():
    rule = QuadratureRule.for_degree(2)
    with pytest.raises(ValueError, match="shape"):
        project_sampled(
            np.zeros((2, 2, 3)), np.zeros((2, 2, 3)), [ModeIndex(1, 0)], rule
        )


def test_match_sphere_no_contrast():
    scattered, interior = match_sphere(3, 1.0, VACUUM, VACUUM, 0.8, (0.7, -0.2j))
    assert scattered.shape == interior.shape == (3, 2)
    for l in (1, 3):
        assert np.max(np.abs(scattered[l - 1])) < 1e-14
        assert np.allclose(interior[l - 1], [0.7, -0.2j], atol=1e-14)


def test_match_sphere_reproduces_mie_dipole():
    # x = k a = 0.5, n = 1.33 sphere in vacuum; scattered/incident = -a_l, -b_l
    k, radius = 1.0, 0.5
    sphere = Medium(1.33**2, 1.0)
    a, b = mie_ab(1.33, 0.5, 1)
    scattered, _ = match_sphere(1, k, sphere, VACUUM, radius, (1.0, 1.0))
    assert -scattered[0, 0] == pytest.approx(a[0], rel=1e-10)
    assert -scattered[0, 1] == pytest.approx(b[0], rel=1e-10)


def test_match_sphere_matches_mie_table():
    # committed oracle table doubles as a regression anchor
    path = pathlib.Path(__file__).parent / "data" / "mie_oracle.json"
    table = json.loads(path.read_text())
    for case in table["cases"]:
        k = case["k"]
        radius = case["radius"]
        m = complex(*case["m"])
        sphere = Medium(m**2, 1.0)
        scattered, _ = match_sphere(
            len(case["a"]), k, sphere, VACUUM, radius, (1.0, 1.0)
        )
        for i, (a_pair, b_pair) in enumerate(zip(case["a"], case["b"])):
            assert -scattered[i, 0] == pytest.approx(
                complex(*a_pair), rel=1e-9, abs=1e-15
            )
            assert -scattered[i, 1] == pytest.approx(
                complex(*b_pair), rel=1e-9, abs=1e-15
            )


@pytest.mark.parametrize("x", [50.0, 1000.0])
@pytest.mark.parametrize("m", [1.33, 1.5 + 0.1j])
def test_match_sphere_matches_mpmath_mie_at_large_x(x, m):
    # up to the CLI's default lmax, from one batched call; at x = 1000,
    # m = 1.33 a_1 was 37% off while the Bessel sequence started its
    # Miller recursion too low
    lmax = math.ceil(x + 4.0 * x ** (1.0 / 3.0) + 2.0)
    scattered, _ = match_sphere(lmax, 1.0, Medium(m * m, 1.0), VACUUM, x, (1.0, 1.0))
    for l in sorted({1, 7, int(x), lmax}):
        a, b = mie_ab_mp(m, x, l)
        assert -scattered[l - 1, 0] == pytest.approx(a, rel=1e-9)
        assert -scattered[l - 1, 1] == pytest.approx(b, rel=1e-9)


def test_match_sphere_linearity():
    k, radius = 1.0, 0.7
    sphere = Medium(2.56, 1.0)
    lam = 1.7 - 0.9j
    s1, i1 = match_sphere(2, k, sphere, VACUUM, radius, (1.0, 0.4))
    s2, i2 = match_sphere(2, k, sphere, VACUUM, radius, (lam * 1.0, lam * 0.4))
    assert np.max(np.abs(s2[1] - lam * s1[1])) < 1e-12 * np.max(np.abs(s2[1]))
    assert np.max(np.abs(i2[1] - lam * i1[1])) < 1e-12 * np.max(np.abs(i2[1]))


def test_match_sphere_no_contrast_limit_is_continuous():
    k, radius = 1.0, 0.6
    prev = None
    for eps in (1.5, 1.1, 1.01, 1.001):
        scattered, _ = match_sphere(1, k, Medium(eps, 1.0), VACUUM, radius, (1.0, 1.0))
        mag = np.max(np.abs(scattered[0]))
        if prev is not None:
            assert mag < prev
        prev = mag
    assert prev < 1e-3


def test_match_sphere_unitarity_lossless():
    # lossless sphere: Mie-equivalent coefficients sit on the unitarity
    # circle |a - 1/2| = 1/2, i.e. |a|^2 = Re(a)
    k, radius = 1.0, 3.0
    sphere = Medium(1.33**2, 1.0)
    scattered, _ = match_sphere(7, k, sphere, VACUUM, radius, (1.0, 1.0))
    for coeff in -scattered.ravel():
        assert abs(coeff) ** 2 == pytest.approx(coeff.real, abs=1e-10)


def test_match_sphere_validation():
    with pytest.raises(ValueError, match="l >= 1"):
        match_sphere(0, 1.0, VACUUM, VACUUM, 1.0, (1.0, 1.0))
    with pytest.raises(ValueError, match="radius"):
        match_sphere(1, 1.0, VACUUM, VACUUM, 0.0, (1.0, 1.0))
    for bad in ([1.0], [1.0, 0.0, 0.0], [[1.0, 0.0]] * 2):
        with pytest.raises(ValueError, match="incident_c1"):
            match_sphere(2, 1.0, VACUUM, VACUUM, 1.0, bad)
