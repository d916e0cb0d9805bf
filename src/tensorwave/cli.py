"""Command-line front end.

Three subcommands:

    tensorwave eval    evaluate a harmonic on a (theta, phi) grid
    tensorwave verify  run a named self-check suite, report pass/fail
    tensorwave solve   run a task described by a JSON config file

Exit codes: 0 success, 1 numerical or check failure, 2 usage/validation
error.  Output is deterministic.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys
from dataclasses import astuple

import numpy as np

from . import fileio
from .harmonics import QuadratureRule, flm, xlm
from .maxwell_radial import (
    Medium,
    RadialProfile,
    longitudinal_components,
    propagate,
)
from .parsing import (
    MAX_DEGREE,
    MAX_GRID_POINTS,
    _csv_table,
    _pairs,
    _re_im,
    complex_pairs,
    degree,
    integer,
    quadrature_degree,
    real,
    require_keys,
)
from .specfun import ModeIndex, RadialKind, ylm
from .synthesis import (
    KINDS,
    WaveTable,
    match_sphere,
    project_sampled,
    recover_coefficients,
    synthesize,
)
from .verify import run_suite

__all__ = ["main", "cmd_eval", "cmd_verify", "cmd_solve"]


def _write_text(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as handle:
            handle.write(text)


# --- eval -------------------------------------------------------------------


def _parse_grid(spec: str):
    parts = spec.lower().split("x")
    try:
        nt, nphi = (int(p) for p in parts)
    except ValueError:
        raise ValueError(f"grid must look like '8x16', got {spec!r}") from None
    if len(parts) != 2 or nt < 1 or nphi < 1:
        raise ValueError(f"grid must be two positive counts, got {spec!r}")
    if nt * nphi > MAX_GRID_POINTS:
        raise ValueError(f"grid must hold at most {MAX_GRID_POINTS} points, got {spec}")
    return nt, nphi


_EVAL_COLUMNS = {
    "ylm": ["y"],
    "xlm": ["x_r", "x_theta", "x_phi"],
    "flm": [
        f"f_{a}{b}"
        for a in ("r", "theta", "phi")
        for b in ("r", "theta", "phi")
    ],
}


def cmd_eval(args) -> int:
    mode = ModeIndex(degree(args.l, "--l"), args.m)
    nt, nphi = _parse_grid(args.grid)
    if (mode.l + 1) * nt > MAX_GRID_POINTS:  # about 3 Legendre values each
        raise ValueError(f"--l {mode.l} on {nt} thetas: (l + 1) n_theta must be at "
                         f"most {MAX_GRID_POINTS}")
    thetas = math.pi * (np.arange(nt) + 0.5) / nt
    phis = 2.0 * math.pi * np.arange(nphi) / nphi
    harmonic = {"ylm": ylm, "xlm": xlm, "flm": flm}[args.harmonic]
    # one row per point, theta-major: shape (points,), (points, 3) or (points, 3, 3)
    vals = harmonic(mode, thetas[:, None], phis[None, :])
    vals = vals.reshape((nt * nphi,) + vals.shape[2:])
    tt, pp = (g.ravel() for g in np.meshgrid(thetas, phis, indexing="ij"))

    if args.format == "csv":
        text = _csv_table(
            ["theta", "phi", *_re_im(_EVAL_COLUMNS[args.harmonic])], [tt, pp, vals]
        )
    else:
        doc = {
            "harmonic": args.harmonic,
            "l": mode.l,
            "m": mode.m,
            "grid": {"n_theta": nt, "n_phi": nphi},
            "points": [
                {"theta": th, "phi": ph, "value": v}
                for th, ph, v in zip(tt.tolist(), pp.tolist(), _pairs(vals))
            ],
        }
        text = json.dumps(doc, indent=2) + "\n"

    _write_text(text, args.out)
    return 0


# --- verify -----------------------------------------------------------------


def cmd_verify(args) -> int:
    lmax, checks = run_suite(args.suite, lmax=args.lmax, tol=args.tol)
    ok = all(c["pass"] for c in checks)
    doc = {
        "suite": args.suite,
        "lmax": lmax,
        "checks": checks,
        "pass": ok,
    }
    _write_text(json.dumps(doc, indent=2) + "\n", args.out)
    if not ok:
        worst = max(
            (c for c in checks if not c["pass"]),
            key=lambda c: c["max_error"] / c["tolerance"],
        )
        print(
            f"verify failed: {worst['check']} max_error {worst['max_error']:.3e} "
            f"> tolerance {worst['tolerance']:.3e}",
            file=sys.stderr,
        )
        return 1
    return 0


# --- solve ------------------------------------------------------------------


_KIND_CODES = {kind.value: code for code, kind in enumerate(KINDS)}


def _wave_table(entries) -> WaveTable:
    """The WaveTable of config wave entries in one pass, which takes only
    what `fileio._wave_from_dict` takes, to the same values: numbers as
    JSON gives them, checked finite, integral and in range before any
    cast.  Anything else raises, with no message to show."""
    if not all(type(rec) is dict and rec.keys() - {"c2"} == {"l", "m", "c1", "kinds"}
               and type(rec["kinds"]) is list for rec in entries):
        raise ValueError
    codes = [[_KIND_CODES[a], _KIND_CODES[b]] for a, b in (r["kinds"] for r in entries)]
    lm = np.array([(rec["l"], rec["m"]) for rec in entries])
    zero = [[0.0, 0.0], [0.0, 0.0]]
    c = np.array([(rec["c1"], rec.get("c2", zero)) for rec in entries])
    if lm.shape != (len(entries), 2) or c.shape != (len(entries), 2, 2, 2) or not (
        {lm.dtype.kind, c.dtype.kind} <= {"i", "f"} and np.isfinite(c).all()
        and np.isfinite(lm).all() and (lm == np.trunc(lm)).all()
        and (lm[:, 0] <= MAX_DEGREE).all() and (abs(lm[:, 1]) <= lm[:, 0]).all()
    ):
        raise ValueError
    # (re, im) pairs viewed as complex keep signed zeros
    c = np.ascontiguousarray(c, dtype=float).view(complex)[..., 0]
    return WaveTable(lm[:, 0].astype(int), lm[:, 1].astype(int), c, codes)


def _waves_from_config(entries) -> WaveTable:
    if not isinstance(entries, list) or not entries:
        raise ValueError("'waves' must be a non-empty list")
    try:
        return _wave_table(entries)
    except (ValueError, TypeError, KeyError, OverflowError):
        # wave by wave, so that the first faulty wave gets its own message
        rows = [astuple(fileio._wave_from_dict(rec)) for rec in entries]
        return WaveTable(*map(np.concatenate, zip(*rows)))


def _kinds_from(raw) -> tuple:
    if not (isinstance(raw, (list, tuple)) and len(raw) == 2):
        raise ValueError("'kinds' must be a pair of kind names")
    try:
        return (RadialKind(raw[0]), RadialKind(raw[1]))
    except ValueError:
        valid = sorted(k.value for k in RadialKind)
        raise ValueError(f"radial kinds must be among {valid}") from None


def _quadrature_points(r: float, rule: QuadratureRule) -> np.ndarray:
    """(r, theta, phi) rows of the rule's grid, theta-major."""
    tt, pp = np.meshgrid(rule.thetas, rule.phis, indexing="ij")
    return np.column_stack([np.full(tt.size, r), tt.ravel(), pp.ravel()])


def _solve_scatter(cfg: dict, fmt: str):
    require_keys(
        cfg,
        ("task", "k", "radius", "sphere", "host"),
        optional=("lmax", "incident_c1"),
        what="scatter config",
    )
    k = real(cfg["k"], "k")
    radius = real(cfg["radius"], "radius")
    sphere = Medium.from_dict(cfg["sphere"], "sphere")
    host = Medium.from_dict(cfg["host"], "host")
    if not np.isfinite([k * radius, sphere.n * k * radius, host.n * k * radius]).all():
        raise ValueError(
            "k * radius times the refractive index of sphere and host must be "
            f"finite, got k={k!r}, radius={radius!r}"
        )
    if "lmax" in cfg:
        lmax = degree(cfg["lmax"], "lmax")
    else:
        # a k or radius <= 0 gets lmax 4 here and is rejected by match_sphere
        x = max(k * radius, 0.0)
        lmax = max(4, math.ceil(x + 4.0 * x ** (1.0 / 3.0) + 2.0))
        if lmax > MAX_DEGREE:
            raise ValueError(
                f"lmax must be at most {MAX_DEGREE}, got {lmax} from the "
                f"default rule at k * radius = {x!r}; give a smaller radius "
                "or an explicit lmax"
            )
    inc_c1 = complex_pairs(
        cfg.get("incident_c1", [[1.0, 0.0], [1.0, 0.0]]), 2, "incident_c1"
    )
    scattered, interior = match_sphere(lmax, k, sphere, host, radius, inc_c1)
    ls = np.arange(1, lmax + 1)

    if fmt == "csv":
        names = ("scattered_theta", "scattered_phi", "interior_theta", "interior_phi")
        return _csv_table(["l", *_re_im(names)], [ls, scattered, interior], ints=1)
    doc = {
        "task": "scatter",
        "k": k,
        "radius": radius,
        "lmax": lmax,
        "modes": [
            {"l": l, "scattered_c1": sc, "interior_c1": inr}
            for l, sc, inr in zip(ls.tolist(), _pairs(scattered), _pairs(interior))
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _solve_synthesize(cfg: dict, fmt: str):
    require_keys(
        cfg,
        ("task", "k", "medium", "waves"),
        optional=("points", "grid"),
        what="synthesize config",
    )
    k = real(cfg["k"], "k")
    med = Medium.from_dict(cfg["medium"])
    waves = _waves_from_config(cfg["waves"])
    if ("points" in cfg) == ("grid" in cfg):
        raise ValueError("provide exactly one of 'points' or 'grid'")
    if "points" in cfg:
        pts = cfg["points"]
        if not isinstance(pts, list) or not pts:
            raise ValueError("'points' must be a non-empty list of [r, theta, phi]")
    else:
        grid = cfg["grid"]
        require_keys(grid, ("r", "quadrature_lmax"), what="grid spec")
        rule = QuadratureRule.for_degree(quadrature_degree(grid["quadrature_lmax"], 0))
        pts = _quadrature_points(real(grid["r"], "r"), rule)
    e, h = synthesize(waves, k, med, pts)
    buf = io.StringIO()
    write = fileio.write_field_csv if fmt == "csv" else fileio.write_field_json
    write(pts, e, h, buf)
    return buf.getvalue()


def _solve_project(cfg: dict, fmt: str):
    require_keys(
        cfg,
        ("task", "k", "medium", "quadrature_lmax", "field"),
        optional=("modes", "kinds", "r"),
        what="project config",
    )
    k = real(cfg["k"], "k")
    med = Medium.from_dict(cfg["medium"])
    lq = quadrature_degree(cfg["quadrature_lmax"], 1)
    rule = QuadratureRule.for_degree(lq)
    kinds = _kinds_from(cfg.get("kinds", ["hankel1", "hankel2"]))
    if "modes" in cfg:
        raw = cfg["modes"]
        if not isinstance(raw, list) or not raw:
            raise ValueError("'modes' must be a non-empty list of [l, m] pairs")
        for lm in raw:
            if not (isinstance(lm, list) and len(lm) == 2):
                raise ValueError(f"modes entry must be an [l, m] pair, got {lm!r}")
        modes = [
            ModeIndex(degree(lm[0], "modes l"), integer(lm[1], "modes m"))
            for lm in raw
        ]
    else:
        modes = [
            ModeIndex(l, m) for l in range(1, lq + 1) for m in range(-l, l + 1)
        ]

    path = cfg["field"]
    if not isinstance(path, str):
        raise ValueError("'field' must be a path to a CSV or JSON sample file")
    read = fileio.read_field_json if path.endswith(".json") else fileio.read_field_csv
    where, e, h = read(path)

    nt, nphi = len(rule.cos_nodes), rule.n_phi
    if len(where) != nt * nphi:
        raise ValueError(
            f"field file has {len(where)} samples; quadrature grid "
            f"for lmax {lq} needs {nt * nphi}"
        )
    if len(np.unique(np.round(where[:, 0], 12))) != 1:
        raise ValueError("field samples must share a single radius")
    r = float(where[0, 0])
    if "r" in cfg and not math.isclose(real(cfg["r"], "r"), r, rel_tol=1e-12):
        raise ValueError(f"config r {cfg['r']} does not match file radius {r}")

    # each grid cell takes the last sample whose angles agree to 9 digits
    # (keyed as the complex numbers theta + i phi)
    cells = _quadrature_points(r, rule)[:, 1:]
    keys = np.round(np.concatenate([cells, where[:, 1:]]), 9).view(complex)
    _, key_of = np.unique(keys.ravel(), return_inverse=True)
    sample_of_key = np.full(key_of.max() + 1, -1)
    sample_of_key[key_of[nt * nphi:]] = np.arange(len(where))
    pick = sample_of_key[key_of[: nt * nphi]]
    if np.any(pick < 0):
        i, j = divmod(int(np.argmax(pick < 0)), nphi)
        raise ValueError(
            "field samples do not lie on the quadrature grid for "
            f"lmax {lq} (missing theta={float(rule.thetas[i])!r}, "
            f"phi={float(rule.phis[j])!r})"
        )
    e_grid = e[pick].reshape(nt, nphi, 3)
    h_grid = h[pick].reshape(nt, nphi, 3)

    hls, els = project_sampled(e_grid, h_grid, modes, rule)
    c1s, c2s = recover_coefficients(hls, els, modes, k, r, med, kinds)
    order = sorted(range(len(modes)), key=lambda i: (modes[i].l, modes[i].m))

    if fmt == "csv":
        names = ("h_r", "h_theta", "h_phi", "e_r", "e_theta", "e_phi",
                 "c1_theta", "c1_phi", "c2_theta", "c2_phi")
        lm = [(modes[i].l, modes[i].m) for i in order]
        return _csv_table(
            ["l", "m", *_re_im(names)],
            [np.array(lm), hls[order], els[order], c1s[order], c2s[order]],
            ints=2,
        )
    doc = {
        "task": "project",
        "k": k,
        "r": r,
        "quadrature_lmax": lq,
        "modes": [
            {
                "l": modes[i].l,
                "m": modes[i].m,
                "h": _pairs(hls[i]),
                "e": _pairs(els[i]),
                "c1": _pairs(c1s[i]),
                "c2": _pairs(c2s[i]),
            }
            for i in order
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _solve_propagate(cfg: dict, fmt: str):
    require_keys(
        cfg,
        ("task", "l", "k", "profile", "r_from", "r_to", "w"),
        what="propagate config",
    )
    l = degree(cfg["l"], "l")
    k = real(cfg["k"], "k")
    profile = RadialProfile.from_dict(cfg["profile"])
    r_from = real(cfg["r_from"], "r_from")
    r_to = real(cfg["r_to"], "r_to")
    # (H_theta, H_phi, E_theta, E_phi)
    w0 = complex_pairs(cfg["w"], 4, "w")
    w1 = propagate(l, k, profile, r_from, r_to, w0)
    e_r, h_r = longitudinal_components(l, k, r_to, profile.medium_at(r_to), w1)

    if fmt == "csv":
        names = ("h_theta", "h_phi", "e_theta", "e_phi", "e_r", "h_r")
        return _csv_table(
            ["r_to", *_re_im(names)], [[r_to], [[*w1, e_r, h_r]]]
        )
    doc = {
        "task": "propagate",
        "l": l,
        "k": k,
        "r_from": r_from,
        "r_to": r_to,
        "w": _pairs(w1),
        "e_r": _pairs(e_r),
        "h_r": _pairs(h_r),
    }
    return json.dumps(doc, indent=2) + "\n"


_TASKS = {
    "scatter": _solve_scatter,
    "synthesize": _solve_synthesize,
    "project": _solve_project,
    "propagate": _solve_propagate,
}


def cmd_solve(args) -> int:
    with open(args.config) as handle:
        cfg = json.load(handle)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    task = cfg.get("task")
    if not isinstance(task, str) or task not in _TASKS:
        raise ValueError(f"config 'task' must be one of {sorted(_TASKS)}")
    text = _TASKS[task](cfg, args.format)
    _write_text(text, args.out)
    return 0


# --- parser -----------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it
    unchanged, so every call of `main` can share it."""
    parser = argparse.ArgumentParser(
        prog="tensorwave",
        description="Tensor spherical harmonics and radial Maxwell solutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a harmonic on a grid")
    p_eval.add_argument(
        "--harmonic", required=True, choices=("ylm", "xlm", "flm")
    )
    p_eval.add_argument("--l", required=True, type=int)
    p_eval.add_argument("--m", required=True, type=int)
    p_eval.add_argument(
        "--grid",
        required=True,
        help="NthetaxNphi counts; thetas at pi(i+1/2)/Ntheta, phis at 2pi j/Nphi",
    )
    p_eval.add_argument("--out", default=None)
    p_eval.add_argument("--format", choices=("csv", "json"), default="csv")
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="run a self-check suite")
    p_verify.add_argument(
        "--suite", required=True, choices=("ortho", "invariants", "maxwell")
    )
    p_verify.add_argument("--lmax", type=int, default=None)
    p_verify.add_argument("--tol", type=float, default=None)
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--format", choices=("json",), default="json")
    p_verify.set_defaults(func=cmd_verify)

    p_solve = sub.add_parser("solve", help="run a task from a JSON config")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", default=None)
    p_solve.add_argument("--format", choices=("csv", "json"), default="json")
    p_solve.set_defaults(func=cmd_solve)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, OverflowError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
