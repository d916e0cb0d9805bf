import contextlib
import copy
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mie_ab_mp

Y00 = 0.28209479177387814


def src_env(**extra) -> dict:
    """The environment of a subprocess that imports tensorwave from this
    checkout: pyproject's pythonpath does not reach it."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_cli(*argv, env_extra=None, timeout=None):
    # pyproject's filterwarnings does not reach the subprocess
    env = src_env(PYTHONWARNINGS="error::RuntimeWarning")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "tensorwave.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_eval_ylm_monopole_is_constant():
    res = run_cli("eval", "--harmonic", "ylm", "--l", "0", "--m", "0",
                  "--grid", "2x2")
    assert res.returncode == 0, res.stderr
    header, rows = parse_csv(res.stdout)
    assert header == ["theta", "phi", "y_re", "y_im"]
    assert len(rows) == 4
    for row in rows:
        assert float(row[2]) == Y00
        assert float(row[3]) == 0.0
    # theta midpoints of two equal bands, phi at 0 and pi
    assert float(rows[0][0]) == math.pi / 4
    assert float(rows[3][1]) == math.pi


def test_eval_flm_has_full_component_set():
    res = run_cli("eval", "--harmonic", "flm", "--l", "2", "--m", "1",
                  "--grid", "2x3")
    assert res.returncode == 0, res.stderr
    header, rows = parse_csv(res.stdout)
    assert len(header) == 2 + 18
    assert header[2] == "f_rr_re"
    assert header[-1] == "f_phiphi_im"
    assert len(rows) == 6


def test_eval_xlm_json_layout():
    res = run_cli("eval", "--harmonic", "xlm", "--l", "1", "--m", "1",
                  "--grid", "3x4", "--format", "json")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["harmonic"] == "xlm" and (doc["l"], doc["m"]) == (1, 1)
    assert doc["grid"] == {"n_theta": 3, "n_phi": 4}
    assert len(doc["points"]) == 12
    first = doc["points"][0]
    assert first["theta"] == pytest.approx(math.pi / 6)
    assert len(first["value"]) == 3
    assert all(len(pair) == 2 for pair in first["value"])
    # X has no radial component anywhere
    assert all(p["value"][0] == [0.0, 0.0] for p in doc["points"])


def test_eval_writes_output_file(tmp_path):
    out = tmp_path / "y.csv"
    res = run_cli("eval", "--harmonic", "ylm", "--l", "1", "--m", "0",
                  "--grid", "2x2", "--out", str(out))
    assert res.returncode == 0 and res.stdout == ""
    header, rows = parse_csv(out.read_text())
    assert len(rows) == 4


def test_eval_rejects_invalid_mode():
    res = run_cli("eval", "--harmonic", "ylm", "--l", "1", "--m", "3",
                  "--grid", "2x2")
    assert res.returncode == 2
    assert "|m| <= l" in res.stderr


def test_eval_rejects_bad_grid_spec():
    res = run_cli("eval", "--harmonic", "ylm", "--l", "0", "--m", "0",
                  "--grid", "8y16")
    assert res.returncode == 2
    assert "grid" in res.stderr


def test_verify_suite_passes_and_reports():
    res = run_cli("verify", "--suite", "ortho", "--lmax", "2")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["suite"] == "ortho" and doc["lmax"] == 2
    assert doc["pass"] is True
    for check in doc["checks"]:
        assert set(check) == {"check", "max_error", "tolerance", "pass"}
        assert check["pass"] is True


def test_verify_failure_exits_nonzero():
    res = run_cli("verify", "--suite", "invariants", "--lmax", "1",
                  "--tol", "1e-30")
    assert res.returncode == 1
    assert "verify failed" in res.stderr
    doc = json.loads(res.stdout)
    assert doc["pass"] is False


@pytest.mark.parametrize("argv, message", [
    (["eval", "--harmonic", "ylm", "--l", "200001", "--m", "0", "--grid", "1x1"],
     "--l must be at most 200000, got 200001"),
    (["eval", "--harmonic", "flm", "--l", "1", "--m", "0", "--grid", "1000x1001"],
     "grid must hold at most 1000000 points, got 1000x1001"),
    (["eval", "--harmonic", "xlm", "--l", "999", "--m", "0", "--grid", "1001x1"],
     "--l 999 on 1001 thetas: (l + 1) n_theta must be at most 1000000"),
    (["verify", "--suite", "ortho", "--lmax", "13"],
     "lmax for suite ortho must be in 1 .. 12, got 13"),
    (["verify", "--suite", "invariants", "--lmax", "25"],
     "lmax for suite invariants must be in 1 .. 24, got 25"),
    (["verify", "--suite", "maxwell", "--lmax", "100"],
     "lmax for suite maxwell must be in 1 .. 99, got 100"),
])
def test_eval_and_verify_past_their_size_caps_exit_2_before_allocating(
    capsys, argv, message
):
    import tracemalloc

    import tensorwave.verify  # noqa: F401  its import is not what is measured
    from tensorwave.cli import main

    tracemalloc.start()
    try:
        assert main(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert capsys.readouterr() == ("", f"error: {message}\n")


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_solve_scatter_matches_reference_table(tmp_path):
    table = json.loads(
        (pathlib.Path(__file__).parent / "data" / "mie_oracle.json").read_text()
    )
    case = next(c for c in table["cases"] if c["radius"] == 0.5
                and c["m"] == [1.5, 0.1])
    m = complex(*case["m"])
    eps = m * m
    cfg = {
        "task": "scatter",
        "k": case["k"],
        "radius": case["radius"],
        "sphere": {"eps": [eps.real, eps.imag], "mu": [1.0, 0.0]},
        "host": {"eps": [1.0, 0.0], "mu": [1.0, 0.0]},
    }
    res = run_cli("solve", "--config", write_config(tmp_path, "s.json", cfg))
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["lmax"] == len(case["a"])
    for mode, a_pair, b_pair in zip(doc["modes"], case["a"], case["b"]):
        got_a = -complex(*mode["scattered_c1"][0])
        got_b = -complex(*mode["scattered_c1"][1])
        assert got_a == pytest.approx(complex(*a_pair), rel=1e-9, abs=1e-15)
        assert got_b == pytest.approx(complex(*b_pair), rel=1e-9, abs=1e-15)


def test_solve_scatter_no_contrast_csv(tmp_path):
    cfg = {
        "task": "scatter",
        "k": 1.0,
        "radius": 1.0,
        "lmax": 3,
        "sphere": {"eps": [1.0, 0.0], "mu": [1.0, 0.0]},
        "host": {"eps": [1.0, 0.0], "mu": [1.0, 0.0]},
    }
    res = run_cli("solve", "--config", write_config(tmp_path, "n.json", cfg),
                  "--format", "csv")
    assert res.returncode == 0, res.stderr
    header, rows = parse_csv(res.stdout)
    assert header[0] == "l" and len(rows) == 3
    for row in rows:
        sc = [float(x) for x in row[1:5]]
        inr = [float(x) for x in row[5:9]]
        assert max(abs(v) for v in sc) < 1e-14
        assert inr == pytest.approx([1.0, 0.0, 1.0, 0.0], abs=1e-14)


def test_solve_synthesize_then_project_round_trip(tmp_path):
    waves = [
        {"l": 2, "m": 1, "c1": [[0.5, 0.0], [0.0, -0.25]],
         "c2": [[0.1, 0.0], [0.0, 0.2]], "kinds": ["hankel1", "hankel2"]},
    ]
    medium = {"eps": [1.21, 0.0], "mu": [1.0, 0.0]}
    syn_cfg = {
        "task": "synthesize",
        "k": 1.3,
        "medium": medium,
        "waves": waves,
        "grid": {"r": 2.0, "quadrature_lmax": 3},
    }
    field_path = tmp_path / "field.csv"
    res = run_cli("solve", "--config", write_config(tmp_path, "syn.json", syn_cfg),
                  "--out", str(field_path), "--format", "csv")
    assert res.returncode == 0, res.stderr

    proj_cfg = {
        "task": "project",
        "k": 1.3,
        "medium": medium,
        "quadrature_lmax": 3,
        "field": str(field_path),
        "modes": [[1, 0], [2, 1], [3, -3]],
    }
    res = run_cli("solve", "--config", write_config(tmp_path, "proj.json", proj_cfg))
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    by_mode = {(m["l"], m["m"]): m for m in doc["modes"]}
    got = by_mode[(2, 1)]
    assert complex(*got["c1"][0]) == pytest.approx(0.5, abs=1e-10)
    assert complex(*got["c1"][1]) == pytest.approx(-0.25j, abs=1e-10)
    assert complex(*got["c2"][0]) == pytest.approx(0.1, abs=1e-10)
    assert complex(*got["c2"][1]) == pytest.approx(0.2j, abs=1e-10)
    for other in [(1, 0), (3, -3)]:
        entry = by_mode[other]
        for key in ("c1", "c2"):
            assert all(abs(complex(*p)) < 1e-10 for p in entry[key])


def test_solve_synthesize_rejects_non_finite_point(tmp_path):
    cfg = {
        "task": "synthesize",
        "k": 1.3,
        "medium": {"eps": [1.21, 0.0], "mu": [1.0, 0.0]},
        "waves": [{"l": 1, "m": 0, "c1": [[1.0, 0.0], [0.0, 0.0]],
                   "kinds": ["hankel1", "hankel2"]}],
        "points": [[2.0, 1.1, 0.3], [2.0, math.nan, 0.3]],
    }
    res = run_cli("solve", "--config", write_config(tmp_path, "nan.json", cfg))
    assert res.returncode == 2
    assert "theta = nan" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_solve_synthesize_takes_one_point_as_a_flat_list(tmp_path, capsys, fmt):
    from tensorwave.cli import main

    outputs = []
    for points in ([[2.0, 1.0, 0.5]], [2.0, 1.0, 0.5]):
        cfg = write_config(tmp_path, "s.json", dict(SYNTH, points=points))
        assert main(["solve", "--config", cfg, "--format", fmt]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_solve_propagate_round_trips(tmp_path):
    profile = {
        "shells": [{"r_out": 2.5, "eps": [2.25, 0.0], "mu": [1.0, 0.0]}],
        "outer": {"eps": [1.0, 0.0], "mu": [1.0, 0.0]},
    }
    w0 = [[0.3, 0.0], [0.0, -0.2], [1.0, 0.0], [0.0, 0.5]]
    fwd_cfg = {"task": "propagate", "l": 2, "k": 1.0, "profile": profile,
               "r_from": 2.0, "r_to": 3.5, "w": w0}
    res = run_cli("solve", "--config", write_config(tmp_path, "f.json", fwd_cfg))
    assert res.returncode == 0, res.stderr
    fwd = json.loads(res.stdout)
    assert set(fwd) == {"task", "l", "k", "r_from", "r_to", "w", "e_r", "h_r"}

    back_cfg = dict(fwd_cfg, r_from=3.5, r_to=2.0, w=fwd["w"])
    res = run_cli("solve", "--config", write_config(tmp_path, "b.json", back_cfg))
    assert res.returncode == 0, res.stderr
    back = json.loads(res.stdout)
    got = np.array([complex(*p) for p in back["w"]])
    want = np.array([complex(*p) for p in w0])
    assert np.max(np.abs(got - want)) < 1e-8 * np.max(np.abs(want))


@pytest.mark.parametrize("r_to", [math.nan, math.inf])
def test_solve_propagate_rejects_non_finite_radius_promptly(tmp_path, r_to):
    # a NaN or infinite end radius used to send the integrator into an
    # endless loop
    cfg = {"task": "propagate", "l": 1, "k": 1.0,
           "profile": {"outer": {"eps": [1.0, 0.0], "mu": [1.0, 0.0]}},
           "r_from": 1.0, "r_to": r_to, "w": [[1.0, 0.0]] * 4}
    res = run_cli("solve", "--config", write_config(tmp_path, "p.json", cfg),
                  timeout=5)
    assert res.returncode == 2
    assert "r_to" in res.stderr


def test_solve_propagate_reports_overflow_promptly(tmp_path):
    # h1_200 at k r = 1e-3 is far outside the double range
    cfg = {"task": "propagate", "l": 200, "k": 1.0,
           "profile": {"outer": {"eps": [1.0, 0.0], "mu": [1.0, 0.0]}},
           "r_from": 1e-3, "r_to": 2e-3, "w": [[1.0, 0.0]] * 4}
    res = run_cli("solve", "--config", write_config(tmp_path, "p.json", cfg),
                  timeout=5)
    assert res.returncode == 1
    assert "double range" in res.stderr
    assert res.stdout == ""


def test_solve_scatter_names_the_overflowing_function(tmp_path):
    # host n = 1.5+1i at radius 720: sin and cos of the host argument
    # 1080+720i are past the double range
    cfg = dict(SCATTER, radius=720.0, host={"eps": [1.25, 3.0], "mu": [1.0, 0.0]})
    res = run_cli("solve", "--config", write_config(tmp_path, "s.json", cfg),
                  "--format", "csv", timeout=5)
    assert res.returncode == 1
    assert "error: bessel_j overflowed at x=(1080+720j)" in res.stderr
    assert res.stdout == ""


def test_solve_scatter_names_the_coefficient_past_the_double_range(tmp_path, capsys):
    # eps = 1e-300 puts the interior argument at 1e-150, where j_3 leaves
    # the double range; this once read "singular matching matrix", but
    # matching is recovery at the surface and has no matrix
    from tensorwave.cli import main

    assert main(["solve", "--config", write_config(tmp_path, "s.json", VOID_SPHERE)]) == 1
    assert capsys.readouterr() == (
        "", "error: the scattered coefficient of l=3 leaves the double range\n")


def test_solve_scatter_past_the_interior_double_range_matches_mpmath(tmp_path):
    # sphere n = 1.5+1i at radius 720: the interior argument 1080+720i
    # enters only through e^{ix} j_l, so nothing overflows
    cfg = dict(SCATTER, radius=720.0, sphere={"eps": [1.25, 3.0], "mu": [1.0, 0.0]})
    res = run_cli("solve", "--config", write_config(tmp_path, "s.json", cfg),
                  timeout=30)
    assert res.returncode == 0, res.stderr
    modes = json.loads(res.stdout)["modes"]
    for l in (1, 7, 720):
        want = mie_ab_mp(1.5 + 1j, 720.0, l)
        got = [-complex(*pair) for pair in modes[l - 1]["scattered_c1"]]
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-9 * abs(w)


def test_solve_scatter_at_a_tiny_radius_matches_mpmath(tmp_path):
    # j_1 at the tiny interior argument came from a cancelled j_0/x - cos/x:
    # interior l=1 c1 read (-6.8e34, -4.3e34) where radius 1e-10 gives
    # (18/17, 2/3)
    docs = {}
    for radius in (1e-25, 1e-10):
        cfg = dict(SCATTER, radius=radius, lmax=2)
        res = run_cli("solve", "--config", write_config(tmp_path, "s.json", cfg))
        assert res.returncode == 0, res.stderr
        docs[radius] = json.loads(res.stdout)["modes"]
    for mode, ref in zip(docs[1e-25], docs[1e-10]):
        want = mie_ab_mp(1.5, 1e-25, mode["l"])
        got = [-complex(*pair) for pair in mode["scattered_c1"]]
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-9 * max(map(abs, want))
        for g, w in zip(mode["interior_c1"], ref["interior_c1"]):
            assert complex(*g) == pytest.approx(complex(*w), rel=1e-12, abs=1e-12)


def test_cli_import_loads_no_scipy():
    code = ("import sys, tensorwave.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, env=src_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_cli_import_leaves_the_verify_suites_to_the_verify_command():
    code = "import sys, tensorwave.cli; print('tensorwave.verify' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, env=src_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


SPHERE = {"eps": [2.25, 0.0], "mu": [1.0, 0.0]}
HOST = {"eps": [1.0, 0.0], "mu": [1.0, 0.0]}
SCATTER = {"task": "scatter", "k": 1.0, "radius": 1.0, "sphere": SPHERE, "host": HOST}
WAVE = {"l": 1, "m": 0, "c1": [[1.0, 0.0], [0.0, 0.0]], "kinds": ["hankel1", "hankel2"]}
SYNTH = {"task": "synthesize", "k": 1.0, "medium": HOST, "waves": [WAVE],
         "points": [[2.0, 1.0, 0.5]]}
PROJECT = {"task": "project", "k": 1.0, "medium": HOST, "quadrature_lmax": 2,
           "field": "absent.csv"}
GRID_FIELD = "grid field"  # stands for the field file of `_grid_field`
PROPAGATE = {"task": "propagate", "l": 1, "k": 1.0, "profile": {"outer": HOST},
             "r_from": 1.0, "r_to": 2.0, "w": [[1.0, 0.0]] * 4}
# a sphere of eps = 1e-300 in vacuum: its scattered coefficient of l = 3
# leaves the double range in the match
VOID_SPHERE = dict(SCATTER, lmax=4, sphere={"eps": [1e-300, 0.0], "mu": [1.0, 0.0]})


@pytest.mark.parametrize(
    "cfg, key",
    [
        (dict(SCATTER, lmax=2.7), "lmax"),
        (dict(SCATTER, sphere={"eps": [math.nan, 0.0], "mu": [1.0, 0.0]}),
         "sphere eps"),
        (dict(SCATTER, k=math.inf), "k"),
        (dict(SYNTH, medium={"eps": [1.0, 0.0], "mu": [1.0, math.nan]}), "medium mu"),
        (dict(SYNTH, waves=[dict(WAVE, l=1.5)]), "l"),
        (dict(SYNTH, waves=[dict(WAVE, c1=[[1.0, math.nan], [0.0, 0.0]])]), "c1"),
        (dict(SYNTH, points=None, grid={"r": 2.0, "quadrature_lmax": 3.5}),
         "quadrature_lmax"),
        (dict(PROJECT, quadrature_lmax=2.5), "quadrature_lmax"),
        (dict(PROJECT, modes=[[2, 0.5]]), "modes m"),
        (dict(PROPAGATE, l=2.5), "l"),
        (dict(PROPAGATE, r_from=math.nan), "r_from"),
        (dict(PROPAGATE, profile={"shells": [dict(SPHERE, r_out=math.inf)],
                                  "outer": HOST}), "shell r_out"),
        (dict(SCATTER, incident_c1=5), "incident_c1"),
        (dict(SYNTH, waves=[5]), "wave"),
        (dict(SYNTH, waves=[dict(WAVE, c1=5)]), "c1"),
        (dict(SYNTH, waves=[dict(WAVE, c2=5)]), "c2"),
        (dict(PROJECT, modes=[5]), "modes entry"),
        (dict(PROJECT, modes=[[1]]), "modes entry"),
        (dict(SYNTH, points=[[2.0, 1.0, {}]]), "points"),
        (dict(SYNTH, points=None, grid={"r": 2.0, "quadrature_lmax": -1}),
         "quadrature_lmax"),
        # degrees past parsing.MAX_DEGREE: numpy could not allocate their
        # arrays, and the run ended in a traceback
        (dict(SCATTER, lmax=10**12), "lmax"),
        (dict(PROPAGATE, l=10**12), "l"),
        (dict(SYNTH, waves=[dict(WAVE, l=10**12)]), "l"),
        (dict(PROJECT, modes=[[10**12, 0]]), "modes l"),
        # the default lmax rule took x^(1/3) of a negative k * radius: a
        # TypeError traceback
        (dict(SCATTER, radius=-1.0), "sphere radius"),
        (dict(SCATTER, k=-1.0), "wavenumber"),
        # leggauss was asked for a 2,000,002 x 2,000,002 matrix: a numpy
        # allocation traceback
        (dict(SYNTH, points=None, grid={"r": 2.0, "quadrature_lmax": 10**6}),
         "quadrature_lmax"),
        (dict(PROJECT, quadrature_lmax=10**6), "quadrature_lmax"),
        # a degree past quadrature_lmax came back aliased with exit 0 (a
        # bessel_j wave of l = 10 on the degree-4 grid read c1 = 1.909 for
        # 1), and l = 0 failed naming no key
        (dict(PROJECT, modes=[[3, 0]]), "modes l"),
        (dict(PROJECT, modes=[[0, 0]]), "modes l"),
        # n k r = 4e308 with k = 1e308, eps = 4: synthesize and project
        # exited 2 with "x must be finite, got x=(inf+nanj)", propagate 1
        # with "transfer across [1.0, 2.0] overflows"
        (dict(SYNTH, k=1e308, medium=dict(HOST, eps=[4.0, 0.0])),
         "k * r times the refractive index of medium"),
        (dict(PROJECT, k=1e308, medium=dict(HOST, eps=[4.0, 0.0]), field=GRID_FIELD),
         "k * r times the refractive index of medium"),
        (dict(PROPAGATE, k=1e308, profile={"outer": dict(HOST, eps=[4.0, 0.0])}),
         "k * r_from and k * r_to times the refractive index of every profile "
         "medium"),
    ],
)
def test_solve_rejects_non_finite_and_non_integral_values(tmp_path, capsys, cfg, key):
    from tensorwave.cli import main

    cfg = {name: v for name, v in cfg.items() if v is not None}
    if cfg.get("field") == GRID_FIELD:
        cfg["field"] = str(_grid_field(tmp_path)[0])
    assert main(["solve", "--config", write_config(tmp_path, "c.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert f"error: {key} must be" in err


def test_solve_scatter_rejects_a_default_lmax_past_the_cap(tmp_path, capsys):
    # the default rule would size lmax 1000000040002
    from tensorwave.cli import main
    from tensorwave.parsing import MAX_DEGREE, degree

    assert degree(MAX_DEGREE, "lmax") == MAX_DEGREE == 200_000
    cfg = write_config(tmp_path, "s.json", dict(SCATTER, radius=1e12))
    assert main(["solve", "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(
        "error: lmax must be at most 200000, got 1000000040002 from the "
        "default rule at k * radius = 1000000000000.0"
    )


def test_solve_scatter_builds_one_radial_sequence_per_kind_and_argument(
    tmp_path, capsys, radial_passes
):
    from tensorwave.cli import main

    cfg = write_config(tmp_path, "s.json", dict(SCATTER, lmax=40))
    assert main(["solve", "--config", cfg]) == 0
    assert len(json.loads(capsys.readouterr().out)["modes"]) == 40
    # one pass of j_l and h1_l in the host, one of the scaled j_l inside
    # the sphere, each for every l
    assert radial_passes == [
        ([1.0 + 0j], [40, 40], False),
        ([1.5 + 0j], [40, -1], True),
    ]


def test_solve_synthesize_builds_only_the_j_and_h1_sequences(
    tmp_path, capsys, radial_passes
):
    from tensorwave.cli import main

    # nearfield-shaped: every wave l <= 6 with two of the four kinds, at
    # 120 points of distinct radii
    kinds = ["bessel_j", "bessel_y", "hankel1", "hankel2"]
    waves = [
        {"l": l, "m": m, "c1": [[1.0, 0.5], [0.0, -1.0]],
         "c2": [[0.5, 0.0], [0.0, 0.25]],
         "kinds": [kinds[(l + m) % 4], kinds[(l + m + 1) % 4]]}
        for l in range(1, 7) for m in range(-l, l + 1)
    ]
    rng = np.random.default_rng(3)
    points = np.column_stack([
        rng.uniform(1.5, 15.0, 120),
        np.arccos(rng.uniform(-1.0, 1.0, 120)),
        rng.uniform(0.0, 2.0 * np.pi, 120),
    ])
    cfg = dict(SYNTH, waves=waves, points=points.tolist())
    cfg = write_config(tmp_path, "s.json", cfg)
    assert main(["solve", "--config", cfg, "--format", "csv"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 121
    # every kind is a combination of j and h1, both built by one pass over
    # all 120 radii, and no kind is built by itself
    assert [(len(xs), tops, scaled) for xs, tops, scaled in radial_passes] == [
        (120, [6, 6], False)
    ]


def test_solve_synthesize_with_a_non_finite_field_exits_1(tmp_path):
    # finite coefficients near the double range overflow in the
    # contraction: no RuntimeWarning (an error in run_cli) and no nan cells
    big = [[1e308, 1e308], [1e308, -1e308]]
    wave = {"l": 1, "m": 0, "c1": big, "c2": [[1e308, 1e308], [0, 0]],
            "kinds": ["bessel_y", "hankel2"]}
    cfg = dict(SYNTH, waves=[wave], points=[[0.5, 1.0, 0.3], [3.0, 2.0, 1.0]])
    res = run_cli("solve", "--config", write_config(tmp_path, "big.json", cfg),
                  "--format", "csv")
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr == (
        "error: the field at point 0 (r, theta, phi) = (0.5, 1.0, 0.3) leaves "
        "the double range\n"
    )


@pytest.mark.parametrize("kr", [1e-200, 1e-155])
def test_solve_synthesize_a_bessel_j_wave_where_k_r_underflows(tmp_path, kr):
    # 1/(k r) divided by zero at k r = 1e-400 (a RuntimeWarning, then exit 1
    # with "the field at point 0 ... leaves the double range"), and past
    # the double range at k r = 1e-310, where j_l also read "bessel_j
    # overflowed"; E_r and E_theta take their x -> 0 limits from j_l(x) / x
    wave = dict(WAVE, kinds=["bessel_j", "bessel_j"])
    cfg = dict(SYNTH, k=kr, waves=[wave], points=[[kr, 1.0, 0.5]])
    res = subprocess.run(
        [sys.executable, "-W", "error", "-m", "tensorwave.cli", "solve", "--config",
         write_config(tmp_path, "tiny.json", cfg), "--format", "csv"],
        capture_output=True, text=True, env=src_env(),
    )
    assert res.returncode == 0, res.stderr
    row = [float(v) for v in res.stdout.split("\n")[1].split(",")]
    y10, x_phi = math.sqrt(3 / (4 * math.pi)) * math.cos(1.0), math.sqrt(
        3 / (8 * math.pi)) * math.sin(1.0)
    # E_r = -(sqrt(2)/3) Y_10 and E_theta = -X_phi (2i/3) for l = 1, c1_theta = 1
    assert row[3] == pytest.approx(-math.sqrt(2) / 3 * y10, rel=1e-15, abs=0)
    assert row[5] == pytest.approx(2 / 3 * x_phi, rel=1e-15, abs=0)
    # every other component holds j_1(x) = x/3 or less
    assert all(abs(v) < 1e-300 for v in row[4:5] + row[6:])


def _grid_field(tmp_path):
    """A synthesized field CSV on the quadrature grid of lmax 2 at r = 2:
    its path, header and rows."""
    from tensorwave.cli import main

    syn = {key: v for key, v in SYNTH.items() if key != "points"}
    syn["grid"] = {"r": 2.0, "quadrature_lmax": 2}
    field = tmp_path / "field.csv"
    assert main(["solve", "--config", write_config(tmp_path, "s.json", syn),
                 "--format", "csv", "--out", str(field)]) == 0
    header, *rows = field.read_text().splitlines()
    return field, header, rows


@pytest.mark.parametrize("kind", ["hankel2", "bessel_j"])
def test_solve_project_rejects_one_kind_twice(tmp_path, capsys, kind):
    # the basis of one kind twice is singular: hankel2 twice printed c1 of
    # about 1e15 with exit 0, as rounding hid it, and bessel_j twice
    # exited 1 naming the kinds by their enum reprs
    from tensorwave.cli import main

    field, _, _ = _grid_field(tmp_path)
    cfg = dict(PROJECT, field=str(field), kinds=[kind, kind])
    assert main(["solve", "--config", write_config(tmp_path, "p.json", cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: kinds must name two different kinds, got {kind} twice\n"


@pytest.mark.parametrize("task", ["synthesize", "project"])
def test_a_bad_kind_name_gets_one_message_for_waves_and_project(tmp_path, capsys,
                                                                 task):
    # one kind-pair parser: a wave said "'foo' is not a valid RadialKind",
    # the project kinds "radial kinds must be among [...]"
    from tensorwave.cli import main

    if task == "synthesize":
        cfg = dict(SYNTH, waves=[dict(WAVE, kinds=["foo", "hankel1"])])
        key = "wave 'kinds'"
    else:
        cfg, key = dict(PROJECT, kinds=["foo", "hankel1"]), "'kinds'"
    assert main(["solve", "--config", write_config(tmp_path, "c.json", cfg)]) == 2
    assert capsys.readouterr().err == (
        f"error: {key} entry 'foo' must be one of "
        "['bessel_j', 'bessel_y', 'hankel1', 'hankel2']\n"
    )


def test_solve_project_places_samples_by_angle(tmp_path, capsys):
    from tensorwave.cli import main
    from tensorwave.harmonics import QuadratureRule

    field, header, rows = _grid_field(tmp_path)
    proj = write_config(tmp_path, "p.json", dict(PROJECT, field=str(field)))
    assert main(["solve", "--config", proj]) == 0
    in_grid_order = capsys.readouterr().out

    # sample order does not matter, only the angles
    field.write_text("\n".join([header, *rows[::-1]]) + "\n")
    assert main(["solve", "--config", proj]) == 0
    assert capsys.readouterr().out == in_grid_order

    # rows are theta-major like the grid; move rows 7 and 4 off it and the
    # error names the first grid cell left uncovered
    for i in (7, 4):
        cells = rows[i].split(",")
        cells[2] = repr(float(cells[2]) + 0.01)
        rows[i] = ",".join(cells)
    field.write_text("\n".join([header, *rows]) + "\n")
    assert main(["solve", "--config", proj]) == 2
    rule = QuadratureRule.for_degree(2)
    th, ph = rule.thetas[4 // rule.n_phi], rule.phis[4 % rule.n_phi]
    # plain floats, not numpy reprs such as np.float64(...)
    assert f"missing theta={float(th)!r}, phi={float(ph)!r}" in capsys.readouterr().err


def test_solve_project_rejects_samples_at_two_tiny_radii(tmp_path, capsys):
    # half the samples at r = 1e-13 and half at 3e-13 agree to 12 decimal
    # places, so an absolute check took them for one radius
    from tensorwave.cli import main

    field, header, rows = _grid_field(tmp_path)
    rows = [",".join(["1e-13" if i % 2 else "3e-13", *row.split(",")[1:]])
            for i, row in enumerate(rows)]
    field.write_text("\n".join([header, *rows]) + "\n")
    proj = write_config(tmp_path, "p.json", dict(PROJECT, field=str(field)))
    assert main(["solve", "--config", proj]) == 2
    out = capsys.readouterr()
    assert out == ("", "error: field samples must share a single radius\n")


def test_solve_project_rejects_a_config_radius_off_the_file(tmp_path, capsys):
    from tensorwave.cli import main

    field, _, _ = _grid_field(tmp_path)
    proj = write_config(tmp_path, "p.json", dict(PROJECT, field=str(field), r=2.5))
    assert main(["solve", "--config", proj]) == 2
    out = capsys.readouterr()
    assert out == ("", "error: config r 2.5 does not match file radius 2.0\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("column", [None, "h_r_re"])
def test_solve_project_stops_at_a_mode_past_the_double_range(tmp_path, capsys, fmt,
                                                              column):
    # every nonzero field cell, or every h_r_re cell, at 1e308 (finite, so
    # the reader takes it): project exited 0 with nan and inf rows, and its
    # JSON held NaN and Infinity, which is not JSON
    from tensorwave.cli import main

    def big(name, v):
        if column is None:
            return v if name in ("r", "theta", "phi") or float(v) == 0 else "1e308"
        return "1e308" if name == column else v

    field, header, rows = _grid_field(tmp_path)
    rows = [",".join(map(big, header.split(","), row.split(","))) for row in rows]
    field.write_text("\n".join([header, *rows]) + "\n")
    proj = write_config(tmp_path, "p.json", dict(PROJECT, field=str(field)))
    out = tmp_path / f"out.{fmt}"
    assert main(["solve", "--config", proj, "--format", fmt, "--out", str(out)]) == 1
    assert capsys.readouterr() == (
        "", "error: the projection onto mode (1, -1) leaves the double range\n"
    )
    assert not out.exists()


NO_POINTS = "'points' must be a non-empty list of [r, theta, phi]"


@pytest.mark.parametrize(
    "change, message",
    [
        ({"grid": {"r": 2.0, "quadrature_lmax": 2}},
         "provide exactly one of 'points' or 'grid'"),
        ({"points": None}, "provide exactly one of 'points' or 'grid'"),
        ({"points": []}, NO_POINTS),
        ({"points": {"r": 2.0}}, NO_POINTS),
    ],
)
def test_solve_synthesize_rejects_bad_sample_specs(tmp_path, capsys, change, message):
    from tensorwave.cli import main

    cfg = {key: v for key, v in dict(SYNTH, **change).items() if v is not None}
    assert main(["solve", "--config", write_config(tmp_path, "s.json", cfg)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_solve_project_rejects_non_finite_field_cell(tmp_path, capsys, cell):
    from tensorwave.cli import main

    field, header, rows = _grid_field(tmp_path)
    lines = [header, *rows]
    cells = lines[3].split(",")
    cells[5] = cell  # e_theta_re of the third sample
    lines[3] = ",".join(cells)
    field.write_text("\n".join(lines) + "\n")
    proj = write_config(tmp_path, "p.json", dict(PROJECT, field=str(field)))
    assert main(["solve", "--config", proj]) == 2
    out = capsys.readouterr()
    assert "field CSV line 4: e_theta_re is not finite" in out.err
    assert out.out == ""


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"fields": 5}, "field JSON must be an object with a 'fields' list"),
        ({"fields": [5]}, "field sample must be an object, got 5"),
        ({"fields": [{"r": 2.0, "theta": 1.0, "phi": 0.5, "e": 5,
                      "h": [[0.0, 0.0]] * 3}]}, "e must have shape (3,)"),
        ({"fields": [{"r": 2.0, "theta": 1.0, "phi": 0.5, "e": [[0.0, 0.0]] * 3,
                      "h": "x"}]}, "h must have shape (3,)"),
    ],
)
def test_solve_project_rejects_malformed_field_json(tmp_path, capsys, doc, message):
    from tensorwave.cli import main

    field = tmp_path / "field.json"
    field.write_text(json.dumps(doc))
    proj = write_config(tmp_path, "p.json", dict(PROJECT, field=str(field)))
    assert main(["solve", "--config", proj]) == 2
    out = capsys.readouterr()
    assert f"error: {message}" in out.err
    assert out.out == ""


def test_solve_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    res = run_cli("solve", "--config", str(path))
    assert res.returncode == 2
    assert "error:" in res.stderr


def test_solve_rejects_unknown_task(tmp_path):
    res = run_cli("solve", "--config",
                  write_config(tmp_path, "t.json", {"task": "warp"}))
    assert res.returncode == 2
    assert "task" in res.stderr


def test_solve_rejects_unknown_keys(tmp_path):
    cfg = {"task": "scatter", "k": 1.0, "radius": 1.0,
           "sphere": {"eps": [1, 0], "mu": [1, 0]},
           "host": {"eps": [1, 0], "mu": [1, 0]},
           "wavelength": 5}
    res = run_cli("solve", "--config", write_config(tmp_path, "u.json", cfg))
    assert res.returncode == 2
    assert "wavelength" in res.stderr


@pytest.mark.parametrize("extra", [{}, {"lmax": 3}])
def test_solve_scatter_rejects_a_non_finite_size_parameter(tmp_path, capsys, extra):
    # k * radius = 1e310 is past the double range, with the default lmax
    # rule and with an explicit lmax alike
    from tensorwave.cli import main

    cfg = write_config(tmp_path, "s.json", dict(SCATTER, k=1e10, radius=1e300, **extra))
    assert main(["solve", "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: k * radius times the refractive index of sphere and host "
        "must be finite, got k=10000000000.0, radius=1e+300\n"
    )


@pytest.mark.parametrize("where, got", [
    ({"points": [[1e-300, 1.0, 0.5], [2.0, 1.0, 0.5]]}, "r=2.0 at point 1"),
    ({"grid": {"r": 2.0, "quadrature_lmax": 2}}, "grid r=2.0"),
])
def test_solve_synthesize_names_the_radius_past_the_double_range(
    tmp_path, capsys, where, got
):
    # the first point whose n k r overflows, or the grid's radius
    from tensorwave.cli import main

    cfg = {key: v for key, v in SYNTH.items() if key != "points"}
    cfg.update(where, k=1e308, medium=dict(HOST, eps=[4.0, 0.0]))
    assert main(["solve", "--config", write_config(tmp_path, "s.json", cfg)]) == 2
    name = got.split("=")[0]
    assert capsys.readouterr().err == (
        f"error: k * {name} times the refractive index of medium must be "
        f"finite, got k=1e+308, {got}\n"
    )


def test_solve_missing_config_file():
    res = run_cli("solve", "--config", "/no/such/file.json")
    assert res.returncode == 2


def test_output_is_deterministic_across_runs_and_threads(tmp_path):
    # the third run lets BLAS use two threads: the projection contracts
    # every mode in one tensordot, which must not depend on that
    eval_argv = ("eval", "--harmonic", "flm", "--l", "4", "--m", "-2",
                 "--grid", "6x8")
    waves = [dict(WAVE, l=l, m=m, c1=[[1.0, 0.5 * m], [0.25 * l, -1.0]])
             for l in range(1, 5) for m in range(-l, l + 1)]
    synth = write_config(tmp_path, "synth.json", {
        "task": "synthesize", "k": 1.3, "medium": HOST, "waves": waves,
        "grid": {"r": 6.0, "quadrature_lmax": 4}})
    outputs = []
    for i, env in enumerate(
        (None, None, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"})
    ):
        field = tmp_path / f"field{i}.csv"
        project = write_config(tmp_path, f"project{i}.json", dict(
            PROJECT, k=1.3, quadrature_lmax=4, field=str(field)))
        runs = [
            run_cli(*eval_argv, env_extra=env),
            run_cli("solve", "--config", synth, "--format", "csv",
                    "--out", str(field), env_extra=env),
            run_cli("solve", "--config", project, "--format", "csv", env_extra=env),
        ]
        assert [res.returncode for res in runs] == [0, 0, 0], runs
        outputs.append((runs[0].stdout, field.read_bytes(), runs[2].stdout))
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stdout_and_out_get_the_same_bytes(tmp_path, capsys, fmt):
    # every command writes its pieces through one opener, to either place
    from tensorwave.cli import main

    field, _, _ = _grid_field(tmp_path)
    tasks = (SCATTER, SYNTH, dict(PROJECT, field=str(field)), PROPAGATE)
    commands = [["eval", "--harmonic", harmonic, "--l", "3", "--m", "-2", "--grid", "3x4",
                 "--format", fmt] for harmonic in ("ylm", "xlm", "flm")]
    commands += [["solve", "--config", write_config(tmp_path, f"{cfg['task']}.json", cfg),
                  "--format", fmt] for cfg in tasks]
    commands.append(["verify", "--suite", "invariants", "--lmax", "2"])
    for i, argv in enumerate(commands):
        out = tmp_path / f"out{i}"
        assert main(argv) == 0
        printed = capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 0
        assert printed.err == "" and capsys.readouterr() == ("", "")
        assert out.read_bytes() == printed.out.encode(), argv


@pytest.mark.parametrize("old", [None, b"an earlier result\n"])
@pytest.mark.parametrize("cfg, code", [
    (VOID_SPHERE, 1),
    (dict(SYNTH, points=[[-1.0, 1.0, 0.5]]), 2),
])
def test_a_failing_solve_creates_and_truncates_no_out_file(tmp_path, capsys, old, cfg,
                                                           code):
    # the result is computed in full before --out is opened
    from tensorwave.cli import main

    out = tmp_path / "out.csv"
    if old is not None:
        out.write_bytes(old)
    argv = ["solve", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)]
    assert main(argv) == code
    assert capsys.readouterr().err.startswith("error: ")
    if old is None:
        assert not out.exists()
    else:
        assert out.read_bytes() == old


def test_solve_synthesize_of_a_low_and_a_high_order_at_one_point_exits_0(
    tmp_path, capsys
):
    # waves (100,000, 0) and (100,000, 99,999): a dense table of the orders
    # 0 .. 100,000 asked for 74.5 GiB; two running rows take about 1.5 s
    from tensorwave.cli import main

    waves = [dict(WAVE, l=100000, m=m, kinds=["bessel_j", "hankel1"]) for m in (0, 99999)]
    cfg = dict(SYNTH, waves=waves, points=[[150000.0, 1.2, 0.5]])
    argv = ["solve", "--config", write_config(tmp_path, "s.json", cfg), "--format", "csv"]
    assert main(argv) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    values = np.array(rows, dtype=float)
    assert values.shape == (1, len(header))
    assert np.isfinite(values).all() and np.abs(values[0, 3:]).max() > 0.0


def test_solve_synthesize_writes_a_large_field_in_bounded_memory(tmp_path):
    # 133,128 rows at quadrature_lmax 128, a 43 MB CSV, written block by
    # block as it is encoded: 31 MB of tracemalloc peak, where the whole
    # text and its blocks at once took 130.5 MB (about 1 s)
    import tracemalloc

    from tensorwave.cli import main

    waves = [dict(WAVE, l=l, m=m, kinds=["bessel_j", "hankel1"])
             for l, m in ((1, 0), (5, -3), (20, 7))]
    cfg = {"task": "synthesize", "k": 1.0, "medium": HOST, "waves": waves,
           "grid": {"r": 255.0, "quadrature_lmax": 128}}
    argv = ["solve", "--config", write_config(tmp_path, "s.json", cfg), "--format", "csv",
            "--out", str(tmp_path / "field.csv")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 45e6
    with open(tmp_path / "field.csv") as handle:
        assert sum(1 for _ in handle) == 1 + 258 * 516


@pytest.mark.parametrize("harmonic", ["ylm", "xlm", "flm"])
def test_eval_of_a_harmonic_past_the_double_range_exits_1(capsys, harmonic):
    # it exited 0 printing 16 nan rows and 3.37e180, after RuntimeWarnings
    from tensorwave.cli import main

    argv = ["eval", "--harmonic", harmonic, "--l", "25000", "--m", "22000", "--grid", "39x1"]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: the harmonic (l, m) = (25000, 22000) at "
                                   "theta = 0.6041524333826525 leaves the double range\n")


@pytest.mark.parametrize("suite", ["ortho", "invariants", "maxwell"])
def test_verify_reports_the_suite_default_lmax(tmp_path, suite):
    import inspect

    from tensorwave import verify
    from tensorwave.cli import main

    out = tmp_path / "report.json"
    assert main(["verify", "--suite", suite, "--out", str(out)]) == 0
    default = inspect.signature(getattr(verify, f"{suite}_suite"))
    assert json.loads(out.read_text())["lmax"] == default.parameters["lmax"].default


# The JSON outputs against references built element by element from the CSV
# output of the same command, whose 17 significant digits give back every
# double exactly


def cli_text(capsys, *argv):
    from tensorwave.cli import main

    assert main(list(argv)) == 0
    return capsys.readouterr().out


def csv_floats(text):
    return [[float(c) for c in row] for row in parse_csv(text)[1]]


def cell_pairs(row, start, n):
    return [[row[start + 2 * i], row[start + 2 * i + 1]] for i in range(n)]


def dumped(doc):
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("harmonic", ["ylm", "xlm", "flm"])
def test_eval_json_matches_element_wise_reference(capsys, harmonic):
    argv = ["eval", "--harmonic", harmonic, "--l", "3", "--m", "-2", "--grid", "3x4"]
    points = []
    for row in csv_floats(cli_text(capsys, *argv)):
        if harmonic == "ylm":
            value = cell_pairs(row, 2, 1)[0]
        elif harmonic == "xlm":
            value = cell_pairs(row, 2, 3)
        else:
            value = [cell_pairs(row, 2 + 6 * a, 3) for a in range(3)]
        points.append({"theta": row[0], "phi": row[1], "value": value})
    want = {"harmonic": harmonic, "l": 3, "m": -2,
            "grid": {"n_theta": 3, "n_phi": 4}, "points": points}
    assert cli_text(capsys, *argv, "--format", "json") == dumped(want)


def test_scatter_json_matches_element_wise_reference(tmp_path, capsys):
    cfg = write_config(tmp_path, "s.json", dict(SCATTER, lmax=4, radius=1.5))
    rows = csv_floats(cli_text(capsys, "solve", "--config", cfg, "--format", "csv"))
    want = {"task": "scatter", "k": 1.0, "radius": 1.5, "lmax": 4, "modes": [
        {"l": int(row[0]), "scattered_c1": cell_pairs(row, 1, 2),
         "interior_c1": cell_pairs(row, 5, 2)}
        for row in rows
    ]}
    assert cli_text(capsys, "solve", "--config", cfg) == dumped(want)


def test_project_json_matches_element_wise_reference(tmp_path, capsys):
    field = str(tmp_path / "field.csv")
    wave = dict(WAVE, l=2, m=1, c2=[[0.1, 0.0], [0.0, 0.2]])
    grid = {"r": 2.0, "quadrature_lmax": 2}
    cfg = {key: v for key, v in SYNTH.items() if key != "points"}
    synth = write_config(tmp_path, "g.json", dict(cfg, waves=[wave], grid=grid))
    cli_text(capsys, "solve", "--config", synth, "--format", "csv", "--out", field)
    proj = write_config(tmp_path, "p.json", dict(PROJECT, field=field))
    rows = csv_floats(cli_text(capsys, "solve", "--config", proj, "--format", "csv"))
    want = {"task": "project", "k": 1.0, "r": 2.0, "quadrature_lmax": 2, "modes": [
        {"l": int(row[0]), "m": int(row[1]), "h": cell_pairs(row, 2, 3),
         "e": cell_pairs(row, 8, 3), "c1": cell_pairs(row, 14, 2),
         "c2": cell_pairs(row, 18, 2)}
        for row in rows
    ]}
    assert cli_text(capsys, "solve", "--config", proj) == dumped(want)


def test_project_rows_come_in_l_m_order_as_one_mode_requests_give_them(tmp_path,
                                                                      capsys):
    field = str(tmp_path / "field.csv")
    wave = dict(WAVE, l=2, m=1, c2=[[0.1, 0.0], [0.0, 0.2]])
    grid = {"r": 2.0, "quadrature_lmax": 3}
    cfg = {key: v for key, v in SYNTH.items() if key != "points"}
    synth = write_config(tmp_path, "g.json", dict(cfg, waves=[wave], grid=grid))
    cli_text(capsys, "solve", "--config", synth, "--format", "csv", "--out", field)

    def project(modes, *fmt):
        proj = write_config(tmp_path, "p.json", dict(
            PROJECT, field=field, quadrature_lmax=3, modes=modes))
        return cli_text(capsys, "solve", "--config", proj, *fmt)

    want = [[1, 0], [1, 0], [2, 1], [3, -3]]
    rows = csv_floats(project([[3, -3], [1, 0], [2, 1], [1, 0]], "--format", "csv"))
    assert [row[:2] for row in rows] == want and rows[0] == rows[1]
    # modes projected together share one phi transform and one Legendre
    # window, so a row matches its one-mode request to rounding only
    alone = [csv_floats(project([lm], "--format", "csv"))[0] for lm in want]
    assert np.allclose(rows, alone, rtol=1e-13, atol=1e-15)
    doc = json.loads(project([[3, -3], [1, 0], [2, 1], [1, 0]]))
    assert [[row["l"], row["m"]] for row in doc["modes"]] == want
    assert [row["h"] for row in doc["modes"]] == [cell_pairs(row, 2, 3) for row in rows]


@pytest.mark.parametrize("where", ["points", "grid"])
def test_synthesize_json_matches_element_wise_reference(tmp_path, capsys, where):
    wave = dict(WAVE, l=2, m=1, c2=[[0.1, 0.0], [0.0, 0.2]])
    cfg = dict(SYNTH, waves=[wave, dict(WAVE, m=-1)])
    if where == "grid":
        del cfg["points"]
        cfg["grid"] = {"r": 2.0, "quadrature_lmax": 2}
    else:
        cfg["points"] = [[2.0, 1.0, 0.5], [0.5, 0.0, 6.0], [3.0, 3.1, 0.0]]
    cfg = write_config(tmp_path, "s.json", cfg)
    rows = csv_floats(cli_text(capsys, "solve", "--config", cfg, "--format", "csv"))
    want = {"fields": [
        {"r": row[0], "theta": row[1], "phi": row[2], "e": cell_pairs(row, 3, 3),
         "h": cell_pairs(row, 9, 3)}
        for row in rows
    ]}
    assert len(rows) == (3 if where == "points" else 6 * 12)
    assert cli_text(capsys, "solve", "--config", cfg) == dumped(want)


def test_propagate_json_matches_element_wise_reference(tmp_path, capsys):
    cfg = write_config(tmp_path, "p.json", dict(PROPAGATE, l=2))
    (row,) = csv_floats(cli_text(capsys, "solve", "--config", cfg, "--format", "csv"))
    want = {"task": "propagate", "l": 2, "k": 1.0, "r_from": 1.0, "r_to": row[0],
            "w": cell_pairs(row, 1, 4), "e_r": cell_pairs(row, 9, 1)[0],
            "h_r": cell_pairs(row, 11, 1)[0]}
    assert cli_text(capsys, "solve", "--config", cfg) == dumped(want)


# one value of a valid config, at any depth, is replaced by one of these
FUZZ_VALUES = [None, "x", [], [1.0, 0.0], {}, {"eps": [1, 0]}, -1, 0, 2.7, 3]


def _synth_error(tmp_path, capsys, waves) -> str:
    from tensorwave.cli import main

    cfg = write_config(tmp_path, "w.json", dict(SYNTH, waves=waves))
    code = main(["solve", "--config", cfg])
    out, err = capsys.readouterr()
    assert (code == 0) == (err == "") and (code == 0) != (out == "")
    return err


@pytest.mark.parametrize("key", ["l", "m", "c1", "c2", "kinds"])
def test_synthesize_names_a_bad_wave_as_the_wave_parser_does(tmp_path, capsys, key):
    # the one-pass parse of the wave table falls back to the per-wave
    # parser on anything it does not take, so each fault keeps its message
    from tensorwave.cli import _wave_from_dict

    wave2 = dict(WAVE, l=2, m=-1, c2=[[0.0, 0.5], [1.0, 0.0]],
                 kinds=["bessel_j", "hankel1"])
    for value in FUZZ_VALUES:
        bad = dict(wave2, **{key: value})
        try:
            _wave_from_dict(bad)
            want = ""
        except ValueError as exc:
            want = f"error: {exc}\n"
        assert _synth_error(tmp_path, capsys, [WAVE, bad, WAVE]) == want, value


@pytest.mark.parametrize("bad, message", [
    ({"l": 1e300}, f"l must be at most 200000, got {int(1e300)}"),
    ({"l": 2.5}, "l must be an integer, got 2.5"),
    ({"l": 3, "m": 1e300}, f"|m| <= l required, got l=3, m={int(1e300)}"),
    ({"l": 0}, "partial waves need l >= 1; the (0,0) harmonic carries no "
               "transverse field"),
    ({"l": -3}, "l must be >= 0, got l=-3"),
])
def test_synthesize_rejects_a_bad_degree_without_a_warning(tmp_path, capsys, bad,
                                                           message):
    # a cast of 1e300 to int would warn; pytest makes a RuntimeWarning an error
    waves = [WAVE, dict(WAVE, l=2), dict(WAVE, **bad)]
    assert _synth_error(tmp_path, capsys, waves) == f"error: {message}\n"


@pytest.fixture(scope="module")
def fuzz_configs(tmp_path_factory):
    """Valid configs of every task, kept small so that no replacement
    allocates a large grid; the project config reads a real field file."""
    from tensorwave.cli import main

    d = tmp_path_factory.mktemp("fuzz")
    grid = {key: v for key, v in SYNTH.items() if key != "points"}
    grid["grid"] = {"r": 2.0, "quadrature_lmax": 2}
    field = str(d / "field.csv")
    assert main(["solve", "--config", write_config(d, "g.json", grid),
                 "--format", "csv", "--out", field]) == 0
    wave2 = dict(WAVE, l=2, m=-1, c2=[[0.0, 0.5], [1.0, 0.0]],
                 kinds=["bessel_j", "hankel1"])
    configs = {
        "scatter": dict(SCATTER, lmax=3, incident_c1=[[1.0, 0.0], [0.0, 1.0]]),
        "synthesize points": dict(SYNTH, waves=[WAVE, wave2]),
        "synthesize grid": grid,
        "project": dict(PROJECT, field=field, modes=[[1, 0], [2, -1]],
                        kinds=["bessel_j", "hankel1"], r=2.0),
        "propagate": dict(PROPAGATE, profile={"shells": [dict(SPHERE, r_out=1.5)],
                                              "outer": HOST}),
    }
    return d, configs


def _paths(doc, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        items = ()
    for key, v in items:
        yield from _paths(v, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _all_finite(text, fmt):
    if fmt == "csv":
        rows = [line.split(",") for line in text.splitlines()[1:]]
        return all(math.isfinite(float(cell)) for row in rows for cell in row)

    def finite(v):
        if isinstance(v, dict):
            return all(map(finite, v.values()))
        if isinstance(v, list):
            return all(map(finite, v))
        return not isinstance(v, float) or math.isfinite(v)

    return finite(json.loads(text))


# per-example time bound: every input ends promptly, in exit 0, 1 or 2
FUZZ_DEADLINE_MS = 2000


@settings(max_examples=400, deadline=FUZZ_DEADLINE_MS)
@given(data=st.data())
def test_solve_survives_one_bad_value_anywhere(fuzz_configs, data):
    from tensorwave.cli import main

    d, configs = fuzz_configs
    cfg = configs[data.draw(st.sampled_from(sorted(configs)))]
    path = data.draw(st.sampled_from(list(_paths(cfg))))
    value = data.draw(st.sampled_from(FUZZ_VALUES))
    fmt = data.draw(st.sampled_from(["json", "csv"]))
    path_cfg = write_config(d, "fuzz.json", _replaced(cfg, path, value))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["solve", "--config", path_cfg, "--format", fmt])
    assert code in (0, 1, 2)
    if code == 0:
        assert _all_finite(out.getvalue(), fmt)
    else:
        assert err.getvalue().startswith("error: ") and out.getvalue() == ""


# one cell of a valid field CSV is replaced by one of these
FIELD_FUZZ_VALUES = ["", "x", "nan", "-inf", "1e400", "0", "-1"]


@settings(max_examples=200, deadline=FUZZ_DEADLINE_MS)
@given(data=st.data())
def test_solve_project_survives_one_bad_field_cell(fuzz_configs, data):
    from tensorwave.cli import main

    d, configs = fuzz_configs
    cfg = configs["project"]
    with open(cfg["field"]) as handle:
        header, *rows = handle.read().splitlines()
    i = data.draw(st.integers(0, len(rows) - 1))
    cells = rows[i].split(",")
    cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(
        st.sampled_from(FIELD_FUZZ_VALUES)
    )
    field = d / "fuzz_field.csv"
    field.write_text("\n".join([header, *rows[:i], ",".join(cells), *rows[i + 1:]]) + "\n")
    fmt = data.draw(st.sampled_from(["json", "csv"]))
    path_cfg = write_config(d, "fuzz_field.json", dict(cfg, field=str(field)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["solve", "--config", path_cfg, "--format", fmt])
    assert code in (0, 2)
    if code == 0:
        assert _all_finite(out.getvalue(), fmt)
    else:
        assert err.getvalue().startswith("error: ") and out.getvalue() == ""
