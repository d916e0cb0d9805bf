"""Command-line front end.

Three subcommands:

    tensorwave eval    evaluate a harmonic on a (theta, phi) grid
    tensorwave verify  run a named self-check suite, report pass/fail
    tensorwave solve   run a task described by a JSON config file

Exit codes: 0 success, 1 numerical or check failure, 2 usage/validation
error.  Output is deterministic.  The TW_THREADS environment variable
(default 1) is still validated, a bad value exits 2, but every command
runs in a single thread whatever its value.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys

import numpy as np

from . import fileio
from .harmonics import QuadratureRule, flm_grid, xlm_grid
from .maxwell_radial import (
    Medium,
    RadialProfile,
    TangentialState,
    longitudinal_components,
    propagate,
)
from .parsing import _fmt, _pair, complex_pair, integer, real, require_keys
from .specfun import ModeIndex, RadialKind, ylm
from .synthesis import (
    PartialWave,
    match_sphere,
    project_sampled,
    recover_coefficients,
    synthesize,
)
from .verify import run_suite

__all__ = ["main", "cmd_eval", "cmd_verify", "cmd_solve"]


def _check_threads() -> None:
    """Validate TW_THREADS; it selects nothing, as every command is serial."""
    raw = os.environ.get("TW_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"TW_THREADS must be a positive integer, got {raw!r}")


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
    mode = ModeIndex(args.l, args.m)
    nt, nphi = _parse_grid(args.grid)
    thetas = math.pi * (np.arange(nt) + 0.5) / nt
    phis = 2.0 * math.pi * np.arange(nphi) / nphi
    tt = thetas[:, None]
    pp = phis[None, :]

    if args.harmonic == "ylm":
        vals = np.broadcast_to(
            np.asarray(ylm(mode, tt, pp), dtype=complex), (nt, nphi)
        ).reshape(nt, nphi, 1)
    elif args.harmonic == "xlm":
        vals = np.broadcast_to(xlm_grid(mode, tt, pp), (nt, nphi, 3))
    else:
        vals = np.broadcast_to(
            flm_grid(mode, tt, pp), (nt, nphi, 3, 3)
        ).reshape(nt, nphi, 9)

    if args.format == "csv":
        header = ["theta", "phi"]
        for name in _EVAL_COLUMNS[args.harmonic]:
            header.extend([name + "_re", name + "_im"])

        def row_block(i):
            lines = []
            for j in range(nphi):
                cells = [_fmt(thetas[i]), _fmt(phis[j])]
                for v in vals[i, j]:
                    cells.extend([_fmt(v.real), _fmt(v.imag)])
                lines.append(",".join(cells))
            return "\n".join(lines)

        body = [row_block(i) for i in range(nt)]
        text = ",".join(header) + "\n" + "\n".join(body) + "\n"
    else:

        def point_block(i):
            pts = []
            for j in range(nphi):
                v = vals[i, j]
                if args.harmonic == "ylm":
                    payload = _pair(v[0])
                elif args.harmonic == "xlm":
                    payload = [_pair(c) for c in v]
                else:
                    payload = [[_pair(v[3 * a + b]) for b in range(3)] for a in range(3)]
                pts.append(
                    {"theta": thetas[i], "phi": phis[j], "value": payload}
                )
            return pts

        points = [p for i in range(nt) for p in point_block(i)]
        doc = {
            "harmonic": args.harmonic,
            "l": mode.l,
            "m": mode.m,
            "grid": {"n_theta": nt, "n_phi": nphi},
            "points": points,
        }
        text = json.dumps(doc, indent=2) + "\n"

    _write_text(text, args.out)
    return 0


# --- verify -----------------------------------------------------------------


_SUITE_DEFAULT_LMAX = {"ortho": 4, "invariants": 4, "maxwell": 3}


def cmd_verify(args) -> int:
    checks = run_suite(args.suite, lmax=args.lmax, tol=args.tol)
    ok = all(c["pass"] for c in checks)
    doc = {
        "suite": args.suite,
        "lmax": args.lmax if args.lmax is not None
        else _SUITE_DEFAULT_LMAX[args.suite],
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


def _waves_from_config(entries) -> list:
    if not isinstance(entries, list) or not entries:
        raise ValueError("'waves' must be a non-empty list")
    return [fileio._wave_from_dict(rec) for rec in entries]


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
    if "lmax" in cfg:
        lmax = integer(cfg["lmax"], "lmax")
    else:
        x = k * radius
        lmax = max(4, math.ceil(x + 4.0 * x ** (1.0 / 3.0) + 2.0))
    if lmax < 1:
        raise ValueError("lmax must be >= 1")
    inc_c1 = [
        complex_pair(v, "incident_c1")
        for v in cfg.get("incident_c1", [[1.0, 0.0], [1.0, 0.0]])
    ]
    if len(inc_c1) != 2:
        raise ValueError("incident_c1 must be a pair of [re, im] pairs")

    def one_mode(l):
        incident = PartialWave(
            ModeIndex(l, 0),
            inc_c1,
            [0.0, 0.0],
            (RadialKind.BESSEL_J, RadialKind.BESSEL_Y),
        )
        scattered, interior = match_sphere(l, k, sphere, host, radius, incident)
        return l, scattered.c1, interior.c1

    rows = [one_mode(l) for l in range(1, lmax + 1)]

    if fmt == "csv":
        header = ["l"]
        for name in ("scattered_theta", "scattered_phi",
                     "interior_theta", "interior_phi"):
            header.extend([name + "_re", name + "_im"])
        lines = [",".join(header)]
        for l, sc, inr in rows:
            cells = [str(l)]
            for v in (*sc, *inr):
                cells.extend([_fmt(v.real), _fmt(v.imag)])
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"
    doc = {
        "task": "scatter",
        "k": k,
        "radius": radius,
        "lmax": lmax,
        "modes": [
            {
                "l": l,
                "scattered_c1": [_pair(v) for v in sc],
                "interior_c1": [_pair(v) for v in inr],
            }
            for l, sc, inr in rows
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
        rule = QuadratureRule.for_degree(
            integer(grid["quadrature_lmax"], "quadrature_lmax")
        )
        pts = _quadrature_points(real(grid["r"], "r"), rule)
    samples = synthesize(waves, k, med, pts)
    buf = io.StringIO()
    if fmt == "csv":
        fileio.write_field_csv(samples, buf)
    else:
        fileio.write_field_json(samples, buf)
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
    lq = integer(cfg["quadrature_lmax"], "quadrature_lmax")
    if lq < 1:
        raise ValueError("quadrature_lmax must be >= 1")
    rule = QuadratureRule.for_degree(lq)
    kinds = _kinds_from(cfg.get("kinds", ["hankel1", "hankel2"]))
    if "modes" in cfg:
        raw = cfg["modes"]
        if not isinstance(raw, list) or not raw:
            raise ValueError("'modes' must be a non-empty list of [l, m] pairs")
        modes = [
            ModeIndex(integer(lm[0], "modes l"), integer(lm[1], "modes m"))
            for lm in raw
        ]
    else:
        modes = [
            ModeIndex(l, m) for l in range(1, lq + 1) for m in range(-l, l + 1)
        ]

    path = cfg["field"]
    if not isinstance(path, str):
        raise ValueError("'field' must be a path to a CSV or JSON sample file")
    if path.endswith(".json"):
        samples = fileio.read_field_json(path)
    else:
        samples = fileio.read_field_csv(path)

    nt, nphi = len(rule.cos_nodes), rule.n_phi
    if len(samples) != nt * nphi:
        raise ValueError(
            f"field file has {len(samples)} samples; quadrature grid "
            f"for lmax {lq} needs {nt * nphi}"
        )
    where = np.array([(s.r, s.theta, s.phi) for s in samples])
    if len(np.unique(np.round(where[:, 0], 12))) != 1:
        raise ValueError("field samples must share a single radius")
    r = samples[0].r
    if "r" in cfg and not math.isclose(real(cfg["r"], "r"), r, rel_tol=1e-12):
        raise ValueError(f"config r {cfg['r']} does not match file radius {r}")

    # each grid cell takes the last sample whose angles agree to 9 digits
    cells = _quadrature_points(r, rule)[:, 1:]
    _, key_of = np.unique(
        np.round(np.concatenate([cells, where[:, 1:]]), 9),
        axis=0,
        return_inverse=True,
    )
    key_of = key_of.ravel()
    sample_of_key = np.full(key_of.max() + 1, -1)
    sample_of_key[key_of[nt * nphi:]] = np.arange(len(samples))
    pick = sample_of_key[key_of[: nt * nphi]]
    if np.any(pick < 0):
        i, j = divmod(int(np.argmax(pick < 0)), nphi)
        raise ValueError(
            "field samples do not lie on the quadrature grid for "
            f"lmax {lq} (missing theta={rule.thetas[i]!r}, phi={rule.phis[j]!r})"
        )
    e_grid = np.array([s.e for s in samples])[pick].reshape(nt, nphi, 3)
    h_grid = np.array([s.h for s in samples])[pick].reshape(nt, nphi, 3)

    hls, els = project_sampled(e_grid, h_grid, modes, rule)
    c1s, c2s = recover_coefficients(hls, els, modes, k, r, med, kinds)
    rows = sorted(
        zip(modes, hls, els, c1s, c2s), key=lambda t: (t[0].l, t[0].m)
    )

    if fmt == "csv":
        header = ["l", "m"]
        for name in ("h_r", "h_theta", "h_phi", "e_r", "e_theta", "e_phi",
                     "c1_theta", "c1_phi", "c2_theta", "c2_phi"):
            header.extend([name + "_re", name + "_im"])
        lines = [",".join(header)]
        for mode, hl, el, c1, c2 in rows:
            cells = [str(mode.l), str(mode.m)]
            for v in (*hl, *el, *c1, *c2):
                cells.extend([_fmt(v.real), _fmt(v.imag)])
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"
    doc = {
        "task": "project",
        "k": k,
        "r": r,
        "quadrature_lmax": lq,
        "modes": [
            {
                "l": mode.l,
                "m": mode.m,
                "h": [_pair(v) for v in hl],
                "e": [_pair(v) for v in el],
                "c1": [_pair(v) for v in c1],
                "c2": [_pair(v) for v in c2],
            }
            for mode, hl, el, c1, c2 in rows
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _solve_propagate(cfg: dict, fmt: str):
    require_keys(
        cfg,
        ("task", "l", "k", "profile", "r_from", "r_to", "w"),
        what="propagate config",
    )
    l = integer(cfg["l"], "l")
    k = real(cfg["k"], "k")
    profile = RadialProfile.from_dict(cfg["profile"])
    r_from = real(cfg["r_from"], "r_from")
    r_to = real(cfg["r_to"], "r_to")
    w_raw = cfg["w"]
    if not (isinstance(w_raw, list) and len(w_raw) == 4):
        raise ValueError(
            "'w' must be four [re, im] pairs (H_theta, H_phi, E_theta, E_phi)"
        )
    w0 = TangentialState.from_vector4([complex_pair(v, "w") for v in w_raw])
    w1 = propagate(l, k, profile, r_from, r_to, w0).as_vector4()
    e_r, h_r = longitudinal_components(l, k, r_to, profile.medium_at(r_to), w1)

    if fmt == "csv":
        header = ["r_to"]
        for name in ("h_theta", "h_phi", "e_theta", "e_phi", "e_r", "h_r"):
            header.extend([name + "_re", name + "_im"])
        cells = [_fmt(r_to)]
        for v in (*w1, e_r, h_r):
            cells.extend([_fmt(v.real), _fmt(v.imag)])
        return ",".join(header) + "\n" + ",".join(cells) + "\n"
    doc = {
        "task": "propagate",
        "l": l,
        "k": k,
        "r_from": r_from,
        "r_to": r_to,
        "w": [_pair(v) for v in w1],
        "e_r": _pair(e_r),
        "h_r": _pair(h_r),
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
    if task not in _TASKS:
        raise ValueError(f"config 'task' must be one of {sorted(_TASKS)}")
    text = _TASKS[task](cfg, args.format)
    _write_text(text, args.out)
    return 0


# --- parser -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
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
        _check_threads()
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
