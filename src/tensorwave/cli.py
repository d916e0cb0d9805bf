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
import contextlib
import functools
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
    _table,
    complex_pairs,
    degree,
    integer,
    kind_pair,
    quadrature_degree,
    real,
    require_keys,
)
from .specfun import ModeIndex, ylm
from .synthesis import (
    KINDS,
    WaveTable,
    match_sphere,
    project_sampled,
    recover_coefficients,
    synthesize,
)

__all__ = ["main"]


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
    if (mode.l + 1) * nt > MAX_GRID_POINTS:  # the recurrence's work
        raise ValueError(f"--l {mode.l} on {nt} thetas: (l + 1) n_theta must be at "
                         f"most {MAX_GRID_POINTS}")
    thetas = math.pi * (np.arange(nt) + 0.5) / nt
    phis = 2.0 * math.pi * np.arange(nphi) / nphi
    harmonic = {"ylm": ylm, "xlm": xlm, "flm": flm}[args.harmonic]
    # one row per point, theta-major: shape (points,), (points, 3) or (points, 3, 3)
    vals = harmonic(mode, thetas[:, None], phis[None, :])
    vals = vals.reshape((nt * nphi,) + vals.shape[2:])
    tt, pp = (g.ravel() for g in np.meshgrid(thetas, phis, indexing="ij"))

    meta = {"harmonic": args.harmonic, "l": mode.l, "m": mode.m,
            "grid": {"n_theta": nt, "n_phi": nphi}}
    columns = [("theta", ["theta"], tt), ("phi", ["phi"], pp),
               ("value", _EVAL_COLUMNS[args.harmonic], vals)]
    with fileio._opened(sys.stdout if args.out is None else args.out, "w") as handle:
        handle.writelines(_table(args.format, columns, meta, "points"))
    return 0


# --- verify -----------------------------------------------------------------


def cmd_verify(args) -> int:
    from .verify import run_suite  # only this command needs the suites
    lmax, checks = run_suite(args.suite, lmax=args.lmax, tol=args.tol)
    ok = all(c["pass"] for c in checks)
    doc = {
        "suite": args.suite,
        "lmax": lmax,
        "checks": checks,
        "pass": ok,
    }
    with fileio._opened(sys.stdout if args.out is None else args.out, "w") as handle:
        handle.writelines(_table("json", [], doc))
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


def _wave_from_dict(rec: dict) -> WaveTable:
    """The one-wave table of a config's wave entry, each fault named."""
    require_keys(rec, ("l", "m", "c1", "kinds"), ("c2",), what="wave")
    kinds = kind_pair(rec["kinds"], "wave 'kinds'")
    c1 = complex_pairs(rec["c1"], 2, "c1")
    c2 = complex_pairs(rec.get("c2", [[0.0, 0.0], [0.0, 0.0]]), 2, "c2")
    mode = ModeIndex(degree(rec["l"], "l"), integer(rec["m"], "m"))
    codes = [_KIND_CODES[kind.value] for kind in kinds]
    return WaveTable([mode.l], [mode.m], [[c1, c2]], [codes])


def _wave_table(entries) -> WaveTable:
    """The WaveTable of config wave entries in one pass, which takes only
    what `_wave_from_dict` takes, to the same values: numbers as
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
        rows = [astuple(_wave_from_dict(rec)) for rec in entries]
        return WaveTable(*map(np.concatenate, zip(*rows)))


def _quadrature_points(r: float, rule: QuadratureRule) -> np.ndarray:
    """(r, theta, phi) rows of the rule's grid, theta-major."""
    tt, pp = np.meshgrid(rule.thetas, rule.phis, indexing="ij")
    return np.column_stack([np.full(tt.size, r), tt.ravel(), pp.ravel()])


def _check_size(k: float, media, what: str, radii: dict) -> None:
    """ValueError naming k and `radii` unless k r and n k r are finite for
    each finite radius r of `radii` and the refractive index n of each of
    `media`, which `what` names: past the double range the radial
    functions fail naming no config key.  A radius may be an array of
    points, named by its first bad entry."""
    ns = [1.0] + [med.n for med in media]
    got, ok = "", True
    for key, r in radii.items():
        rs = np.ravel(r)
        with np.errstate(over="ignore", invalid="ignore"):
            bad = np.isfinite(rs) & ~np.isfinite(np.multiply.outer(rs * k, ns)).all(1)
        i = int(np.argmax(bad))
        ok &= not bad[i]
        got += f", {key}={float(rs[i])!r}" + (f" at point {i}" if np.ndim(r) else "")
    if not ok:
        raise ValueError(
            f"k * {' and k * '.join(radii)} times the refractive index of {what} "
            f"must be finite, got k={k!r}{got}"
        )


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
    _check_size(k, (sphere, host), "sphere and host", {"radius": radius})
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
    columns = [("l", ["l"], np.arange(1, lmax + 1)),
               ("scattered_c1", ["scattered_theta", "scattered_phi"], scattered),
               ("interior_c1", ["interior_theta", "interior_phi"], interior)]
    meta = {"task": "scatter", "k": k, "radius": radius, "lmax": lmax}
    return _table(fmt, columns, meta, "modes")


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
        radii = {}  # a malformed point is left for synthesize to name
        with contextlib.suppress(TypeError, ValueError, IndexError):
            radii["r"] = np.asarray(pts, dtype=float)[:, 0]
    else:
        grid = cfg["grid"]
        require_keys(grid, ("r", "quadrature_lmax"), what="grid spec")
        rule = QuadratureRule.for_degree(quadrature_degree(grid["quadrature_lmax"], 0))
        radii = {"grid r": real(grid["r"], "r")}
        pts = _quadrature_points(radii["grid r"], rule)
    _check_size(k, (med,), "medium", radii)
    e, h = synthesize(waves, k, med, pts)
    return fileio._field_table(fmt, pts, e, h)


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
    kinds = kind_pair(cfg.get("kinds", ["hankel1", "hankel2"]), "'kinds'")
    if "modes" in cfg:
        raw = cfg["modes"]
        if not isinstance(raw, list) or not raw:
            raise ValueError("'modes' must be a non-empty list of [l, m] pairs")
        modes = []
        for lm in raw:
            if not (isinstance(lm, list) and len(lm) == 2):
                raise ValueError(f"modes entry must be an [l, m] pair, got {lm!r}")
            l = integer(lm[0], "modes l")
            if not 1 <= l <= lq:  # l = 0 has no transverse field
                raise ValueError(f"modes l must be between 1 and quadrature_lmax "
                                 f"= {lq}, the degrees its grid resolves, got {l}")
            modes.append(ModeIndex(l, integer(lm[1], "modes m")))
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
    r = float(where[0, 0])
    if np.ptp(where[:, 0]) > 1e-12 * np.max(np.abs(where[:, 0])):
        raise ValueError("field samples must share a single radius")
    if "r" in cfg and not math.isclose(real(cfg["r"], "r"), r, rel_tol=1e-12):
        raise ValueError(f"config r {cfg['r']} does not match file radius {r}")
    _check_size(k, (med,), "medium", {"r": r})

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

    modes.sort(key=lambda mode: (mode.l, mode.m))
    hls, els = project_sampled(e_grid, h_grid, modes, rule)
    c1s, c2s = recover_coefficients(hls, els, modes, k, r, med, kinds)
    lm = np.array([(mode.l, mode.m) for mode in modes])
    columns = [("l", ["l"], lm[:, 0]), ("m", ["m"], lm[:, 1]),
               ("h", ["h_r", "h_theta", "h_phi"], hls),
               ("e", ["e_r", "e_theta", "e_phi"], els),
               ("c1", ["c1_theta", "c1_phi"], c1s), ("c2", ["c2_theta", "c2_phi"], c2s)]
    meta = {"task": "project", "k": k, "r": r, "quadrature_lmax": lq}
    return _table(fmt, columns, meta, "modes")


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
    # every medium of the profile at both radii bounds the n k r it forms
    radii = {"r_from": r_from, "r_to": r_to}
    _check_size(k, profile.media, "every profile medium", radii)
    w1 = propagate(l, k, profile, r_from, r_to, w0)
    e_r, h_r = longitudinal_components(l, k, r_to, profile.medium_at(r_to), w1)
    # one row, its keys at the top level of the JSON document
    columns = [("r_to", ["r_to"], [r_to]),
               ("w", ["h_theta", "h_phi", "e_theta", "e_phi"], [w1]),
               ("e_r", ["e_r"], [e_r]), ("h_r", ["h_r"], [h_r])]
    meta = {"task": "propagate", "l": l, "k": k, "r_from": r_from}
    return _table(fmt, columns, meta)


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
    pieces = _TASKS[task](cfg, args.format)  # computed before --out is opened
    with fileio._opened(sys.stdout if args.out is None else args.out, "w") as handle:
        handle.writelines(pieces)
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
