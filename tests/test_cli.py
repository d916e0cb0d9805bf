import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

Y00 = 0.28209479177387814


def run_cli(*argv, env_extra=None, timeout=None):
    env = os.environ.copy()
    env.pop("TW_THREADS", None)
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


SPHERE = {"eps": [2.25, 0.0], "mu": [1.0, 0.0]}
HOST = {"eps": [1.0, 0.0], "mu": [1.0, 0.0]}
SCATTER = {"task": "scatter", "k": 1.0, "radius": 1.0, "sphere": SPHERE, "host": HOST}
WAVE = {"l": 1, "m": 0, "c1": [[1.0, 0.0], [0.0, 0.0]], "kinds": ["hankel1", "hankel2"]}
SYNTH = {"task": "synthesize", "k": 1.0, "medium": HOST, "waves": [WAVE],
         "points": [[2.0, 1.0, 0.5]]}
PROJECT = {"task": "project", "k": 1.0, "medium": HOST, "quadrature_lmax": 2,
           "field": "absent.csv"}
PROPAGATE = {"task": "propagate", "l": 1, "k": 1.0, "profile": {"outer": HOST},
             "r_from": 1.0, "r_to": 2.0, "w": [[1.0, 0.0]] * 4}


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
    ],
)
def test_solve_rejects_non_finite_and_non_integral_values(tmp_path, capsys, cfg, key):
    from tensorwave.cli import main

    cfg = {name: v for name, v in cfg.items() if v is not None}
    assert main(["solve", "--config", write_config(tmp_path, "c.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert f"error: {key} must be" in err


def test_solve_project_places_samples_by_angle(tmp_path, capsys):
    from tensorwave.cli import main
    from tensorwave.harmonics import QuadratureRule

    syn = {key: v for key, v in SYNTH.items() if key != "points"}
    syn["grid"] = {"r": 2.0, "quadrature_lmax": 2}
    field = tmp_path / "field.csv"
    assert main(["solve", "--config", write_config(tmp_path, "s.json", syn),
                 "--format", "csv", "--out", str(field)]) == 0
    header, *rows = field.read_text().splitlines()
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
    assert f"missing theta={th!r}, phi={ph!r}" in capsys.readouterr().err


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


def test_solve_missing_config_file():
    res = run_cli("solve", "--config", "/no/such/file.json")
    assert res.returncode == 2


def test_output_is_deterministic_across_runs_and_threads():
    argv = ("eval", "--harmonic", "flm", "--l", "4", "--m", "-2",
            "--grid", "6x8")
    first = run_cli(*argv)
    second = run_cli(*argv)
    threaded = run_cli(*argv, env_extra={"TW_THREADS": "3"})
    assert first.returncode == second.returncode == threaded.returncode == 0
    assert first.stdout == second.stdout == threaded.stdout


def test_bad_thread_count_is_a_usage_error():
    res = run_cli("eval", "--harmonic", "ylm", "--l", "0", "--m", "0",
                  "--grid", "2x2", env_extra={"TW_THREADS": "0"})
    assert res.returncode == 2
    assert "TW_THREADS" in res.stderr
