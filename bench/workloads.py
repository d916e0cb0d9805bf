"""The benchmark workloads: seeded inputs, CLI invocations and output checks.

Each operation is derived from (seed, workload, op index) alone, so a run can
replay any operation exactly.  The program sees only the JSON configs and the
files written here; every check compares its outputs against `oracles`, which
is built from scipy and mpmath and never from tensorwave.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

KINDS = ("bessel_j", "bessel_y", "hankel1", "hankel2")
WARMUP_INDEX = 10**9


class CheckFailed(Exception):
    """An output disagreed with its oracle, or was malformed."""


def _pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _cnormal(rng, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _read_rows(path: str):
    """Data rows of a CSV output as floats (the header is skipped)."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise CheckFailed(f"{os.path.basename(path)} is empty")
    return [[float(v) for v in row] for row in rows[1:] if row]


def _complexes(row, start: int, count: int) -> np.ndarray:
    return np.array(
        [complex(row[start + 2 * i], row[start + 2 * i + 1]) for i in range(count)]
    )


def _rel_err(got, want) -> float:
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _require(name: str, err: float, tol: float) -> float:
    if not err <= tol:
        raise CheckFailed(f"{name}: relative error {err:.3e} > {tol:g}")
    return err


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as handle:
        json.dump(doc, handle)


def _medium(eps, mu) -> dict:
    return {"eps": _pair(eps), "mu": _pair(mu)}


def _waves_doc(waves) -> list:
    return [
        {
            "l": l,
            "m": m,
            "c1": [_pair(v) for v in c1],
            "c2": [_pair(v) for v in c2],
            "kinds": list(kinds),
        }
        for l, m, c1, c2, kinds in waves
    ]


def _check_field_rows(ref, op, rows, picks) -> float:
    """Compare field-CSV rows against the scipy synthesis oracle."""
    err = 0.0
    for i in picks:
        row = rows[i]
        e_ref, h_ref = ref.field_at(
            op["waves"], op["k"], op["eps"], op["mu"], row[0], row[1], row[2]
        )
        got = np.concatenate([_complexes(row, 3, 3), _complexes(row, 9, 3)])
        err = max(err, _rel_err(got, np.concatenate([e_ref, h_ref])))
    return _require("field vs scipy", err, 1e-9)


class Workload:
    """One named workload; subclasses define `op`, `commands` and `check`."""

    name = ""
    index = 0

    def rng(self, seed: int, *key: int):
        return np.random.default_rng([seed, self.index, *key])

    def warmup(self, seed: int) -> dict:
        return self.op(seed, WARMUP_INDEX)


class Roundtrip(Workload):
    """Angular-bound: every mode l <= 16 synthesized on the quadrature grid,
    written as CSV, read back and projected (ylm, einsum, CSV I/O)."""

    name = "roundtrip"
    index = 0
    lmax = 16

    def op(self, seed: int, i: int) -> dict:
        rng = self.rng(seed, i)
        k = rng.uniform(0.5, 2.0)
        eps, mu = rng.uniform(1.0, 4.0), rng.uniform(1.0, 1.5)
        # n k r = L + 8 keeps the bessel_j part above rounding for every l <= L
        r = (self.lmax + 8) / (math.sqrt(eps * mu) * k)
        waves = [
            (l, m, *_cnormal(rng, 4).reshape(2, 2), ("bessel_j", "hankel1"))
            for l in range(1, self.lmax + 1)
            for m in range(-l, l + 1)
        ]
        picks = rng.choice((2 * self.lmax + 2) * (4 * self.lmax + 4), 2, replace=False)
        return {"k": k, "eps": eps, "mu": mu, "r": r, "waves": waves, "picks": picks}

    def commands(self, op: dict, d: str) -> list:
        common = {"k": op["k"], "medium": _medium(op["eps"], op["mu"])}
        _write_json(
            os.path.join(d, "synth.json"),
            {
                "task": "synthesize",
                **common,
                "waves": _waves_doc(op["waves"]),
                "grid": {"r": op["r"], "quadrature_lmax": self.lmax},
            },
        )
        _write_json(
            os.path.join(d, "project.json"),
            {
                "task": "project",
                **common,
                "quadrature_lmax": self.lmax,
                "field": os.path.join(d, "field.csv"),
                "kinds": ["bessel_j", "hankel1"],
            },
        )
        return [
            ["solve", "--config", os.path.join(d, "synth.json"), "--format", "csv",
             "--out", os.path.join(d, "field.csv")],
            ["solve", "--config", os.path.join(d, "project.json"), "--format", "csv",
             "--out", os.path.join(d, "coeffs.csv")],
        ]

    def check(self, op: dict, d: str, ref):
        """Recovered (c1, c2) match the inputs to 1e-10 (acceptance 7)."""
        rows = _read_rows(os.path.join(d, "coeffs.csv"))
        want = {(l, m): np.concatenate([c1, c2]) for l, m, c1, c2, _ in op["waves"]}
        if sorted((int(r[0]), int(r[1])) for r in rows) != sorted(want):
            raise CheckFailed("projection did not return every synthesized mode")
        err = max(
            _rel_err(_complexes(r, 14, 4), want[int(r[0]), int(r[1])]) for r in rows
        )
        _require("recovered coefficients", err, 1e-10)
        field_rows = _read_rows(os.path.join(d, "field.csv"))
        err = max(err, _check_field_rows(ref, op, field_rows, op["picks"]))
        return len(want) * len(field_rows), err


class Nearfield(Workload):
    """Same synthesize as roundtrip at scattered points with distinct radii:
    the radial layer dominates, so a product-grid speed-up must not slow it."""

    name = "nearfield"
    index = 1
    lmax = 6
    points = 120

    def op(self, seed: int, i: int) -> dict:
        rng = self.rng(seed, i)
        k = rng.uniform(0.5, 2.0)
        eps, mu = rng.uniform(1.0, 4.0), rng.uniform(1.0, 2.0)
        waves = []
        for l in range(1, self.lmax + 1):
            for m in range(-l, l + 1):
                kinds = tuple(KINDS[j] for j in rng.choice(4, 2, replace=False))
                waves.append((l, m, *_cnormal(rng, 4).reshape(2, 2), kinds))
        x = rng.uniform(1.5, 15.0, self.points)
        pts = np.column_stack(
            [
                x / (math.sqrt(eps * mu) * k),
                np.arccos(rng.uniform(-1.0, 1.0, self.points)),
                rng.uniform(0.0, 2.0 * math.pi, self.points),
            ]
        )
        picks = rng.choice(self.points, 4, replace=False)
        return {"k": k, "eps": eps, "mu": mu, "waves": waves, "points": pts,
                "picks": picks}

    def commands(self, op: dict, d: str) -> list:
        _write_json(
            os.path.join(d, "synth.json"),
            {
                "task": "synthesize",
                "k": op["k"],
                "medium": _medium(op["eps"], op["mu"]),
                "waves": _waves_doc(op["waves"]),
                "points": op["points"].tolist(),
            },
        )
        return [
            ["solve", "--config", os.path.join(d, "synth.json"), "--format", "csv",
             "--out", os.path.join(d, "field.csv")],
        ]

    def check(self, op: dict, d: str, ref):
        """Seeded points match scipy harmonics and Bessel functions to 1e-9."""
        rows = _read_rows(os.path.join(d, "field.csv"))
        if np.array([r[:3] for r in rows]).tolist() != op["points"].tolist():
            raise CheckFailed("field rows do not reproduce the requested points")
        err = _check_field_rows(ref, op, rows, op["picks"])
        return len(op["waves"]) * len(rows), err


class Spectrum(Workload):
    """Radial sequences plus sphere matching, no angular work; x spans
    [0.1, 1000], so p50 covers small spheres and p90 large ones."""

    name = "spectrum"
    index = 2
    m_set = (1.33 + 0j, 1.5 + 0.1j, 1.5 + 1j, 10 + 10j)
    strata = 10

    def op(self, seed: int, i: int) -> dict:
        # x is log-uniform; each block of 40 ops holds every (m, decile of
        # log x) cell once, so run medians do not hinge on a few seeded draws.
        block, slot = divmod(i, len(self.m_set) * self.strata)
        cell = self.rng(seed, block).permutation(len(self.m_set) * self.strata)[slot]
        rng = self.rng(seed, block, slot)
        stratum, which = divmod(int(cell), len(self.m_set))
        x = 10.0 ** (-1.0 + 4.0 * (stratum + rng.uniform()) / self.strata)
        return self._op(rng, x, self.m_set[which])

    def warmup(self, seed: int) -> dict:
        rng = self.rng(seed, WARMUP_INDEX)
        return self._op(rng, 1.0, self.m_set[0])

    def _op(self, rng, x: float, m: complex) -> dict:
        k = rng.uniform(0.5, 2.0)
        lmax = max(4, math.ceil(x + 4.0 * x ** (1.0 / 3.0) + 2.0))
        ls = sorted({1, lmax, int(rng.integers(1, lmax + 1))})
        return {"k": k, "x": x, "m": m, "lmax": lmax, "ls": ls}

    def commands(self, op: dict, d: str) -> list:
        _write_json(
            os.path.join(d, "scatter.json"),
            {
                "task": "scatter",
                "k": op["k"],
                "radius": op["x"] / op["k"],
                "sphere": _medium(op["m"] ** 2, 1.0),
                "host": _medium(1.0, 1.0),
            },
        )
        return [
            ["solve", "--config", os.path.join(d, "scatter.json"), "--format", "csv",
             "--out", os.path.join(d, "modes.csv")],
        ]

    def check(self, op: dict, d: str, ref):
        """Seeded l match mpmath Mie a_l, b_l to 1e-9 (acceptance 8)."""
        rows = _read_rows(os.path.join(d, "modes.csv"))
        if [int(r[0]) for r in rows] != list(range(1, op["lmax"] + 1)):
            raise CheckFailed(f"expected l = 1..{op['lmax']} (default lmax rule)")
        err = 0.0
        for l in op["ls"]:
            a, b = ref.mie_ab_ref(op["m"], op["x"], l)
            # scattered c1 of a unit (1, 1) incident wave is (-a_l, -b_l)
            got = -_complexes(rows[l - 1], 1, 2)
            err = max(err, _rel_err(got[0], a), _rel_err(got[1], b))
        _require("Mie a_l, b_l vs mpmath", err, 1e-9)
        return op["lmax"], err


class Shells(Workload):
    """The only caller of propagate: ODE integration through 20 shells, some
    absorbing, so almost all time is solve_ivp and system_matrix."""

    name = "shells"
    index = 3
    n_shells = 20

    def op(self, seed: int, i: int) -> dict:
        rng = self.rng(seed, i)
        k = rng.uniform(0.5, 2.0)
        r_from, r_to = 0.5 / k, 55.0 / k
        bounds = np.sort(rng.uniform(r_from, r_to, self.n_shells))
        media = []
        for _ in range(self.n_shells + 1):
            absorbing = rng.uniform() < 0.3
            eps = complex(rng.uniform(1.0, 4.0), rng.uniform(0.0, 0.5) if absorbing else 0.0)
            media.append((eps, 1.0 + 0j))
        return {"l": 1 + i % 8, "k": k, "r_from": r_from, "r_to": r_to,
                "bounds": bounds.tolist(), "media": media, "w": _cnormal(rng, 4)}

    def commands(self, op: dict, d: str) -> list:
        shells = [
            {"r_out": b, **_medium(*med)} for b, med in zip(op["bounds"], op["media"])
        ]
        _write_json(
            os.path.join(d, "propagate.json"),
            {
                "task": "propagate",
                "l": op["l"],
                "k": op["k"],
                "profile": {"shells": shells, "outer": _medium(*op["media"][-1])},
                "r_from": op["r_from"],
                "r_to": op["r_to"],
                "w": [_pair(v) for v in op["w"]],
            },
        )
        return [
            ["solve", "--config", os.path.join(d, "propagate.json"), "--format", "csv",
             "--out", os.path.join(d, "state.csv")],
        ]

    def check(self, op: dict, d: str, ref):
        """Final state matches the mpmath shell-by-shell transfer to 1e-8 (acceptance 5)."""
        rows = _read_rows(os.path.join(d, "state.csv"))
        if len(rows) != 1:
            raise CheckFailed("propagate must write one state row")
        w1, e_r, h_r = ref.propagate_ref(
            op["l"], op["k"], op["bounds"], op["media"], op["r_from"], op["r_to"], op["w"]
        )
        err = _rel_err(_complexes(rows[0], 1, 6), [*w1, e_r, h_r])
        _require("state vs mpmath transfer", err, 1e-8)
        crossings = sum(1 for b in op["bounds"] if op["r_from"] < b < op["r_to"])
        return crossings, err


WORKLOADS = {w.name: w for w in (Roundtrip(), Nearfield(), Spectrum(), Shells())}

# the workloads a traced run covers: the two in BENCHMARK.json, and shells,
# the only one that reaches propagate and system_matrix
TRACED = ("roundtrip", "nearfield", "shells")
