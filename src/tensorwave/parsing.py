"""The one parsing layer for JSON configs and JSON artifacts.

Every number, integer, [re, im] pair and keyed object read from a config
or artifact goes through these functions, so non-finite and non-integral
values are rejected alike everywhere, with a ValueError naming the key;
`kind_pair` reads a pair of radial kind names.
`degree` also caps a degree l at MAX_DEGREE, and `quadrature_degree` a
quadrature grid at MAX_GRID_POINTS.  `_table` is the matching encoder:
every result table, CSV or JSON, is rendered from one column list.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .specfun import RadialKind

# the largest degree l a config may ask for: radial sequences and angular
# tables grow linearly with it.  A scatter at k * radius = 1e5 (default
# lmax 100,188) takes about 2 s and 132 MB on a 2-vCPU Xeon, so runs up
# to the cap stay in seconds, and a degree whose arrays could not be
# allocated is rejected before anything is
MAX_DEGREE = 200_000

# the most points, (2L + 2)(4L + 4), a quadrature grid of degree L may
# hold: np.polynomial.legendre.leggauss builds a dense (2L + 2)^2 matrix,
# in 0.07 s at the cap (L = 352), where a field CSV is about 0.3 GB
MAX_GRID_POINTS = 1_000_000

# the most CSV rows `_table` formats in one % pass, which holds a float per cell
_ROWS = 8192


def _table(fmt: str, columns, meta: dict, rows: str | None = None) -> str:
    """One result table as CSV or JSON text.

    `columns` is a list of (key, names, values): `values` holds N rows of
    shape (N,) or (N, ...), integer, real or complex, and `names` the CSV
    header cells of one row's values, each becoming name_re, name_im for a
    complex column.  CSV is the header line, then one line per row with
    integer cells as such and every other cell with 17 significant
    digits, which reproduces a double exactly.  JSON is the `meta` keys,
    then under `rows` one {key: value} object per row, a complex value as
    nested [re, im] pairs; with no `rows`, the one row's keys follow `meta`.
    """
    keys, header, cells, values = [], [], [], []
    for key, names, v in columns:
        v = np.asarray(v)
        if np.iscomplexobj(v):
            v = np.stack([v.real, v.imag], axis=-1)
            names = [f"{name}_{part}" for name in names for part in ("re", "im")]
        keys.append(key)
        header += names
        cells += ["%d" if v.dtype.kind in "iu" else "%.17g"] * len(names)
        values.append(v.reshape(len(v), len(names)) if fmt == "csv" else v.tolist())
    if fmt == "csv":
        table = np.hstack(values, dtype=float)
        line = ",".join(cells) + "\n"
        blocks = (table[i:i + _ROWS] for i in range(0, len(table), _ROWS))
        body = "".join(line * len(b) % tuple(b.ravel().tolist()) for b in blocks)
        return ",".join(header) + "\n" + body
    records = [dict(zip(keys, row)) for row in zip(*values)]
    doc = dict(meta)
    if rows is None:
        (record,) = records
        doc.update(record)
    else:
        doc[rows] = records
    return json.dumps(doc, indent=2) + "\n"


def require_keys(doc, required, optional=(), what="config") -> None:
    """Raise unless `doc` is an object holding every required key and no
    key outside required + optional."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object")
    extra = set(doc) - set(required) - set(optional)
    if extra:
        raise ValueError(f"unknown {what} keys {sorted(extra)}")
    missing = set(required) - set(doc)
    if missing:
        raise ValueError(f"{what} missing keys {sorted(missing)}")


def real(v, key: str) -> float:
    """A finite float."""
    try:
        x = float(v)
    except (TypeError, ValueError):
        raise ValueError(f"{key} must be a number, got {v!r}") from None
    if not math.isfinite(x):
        raise ValueError(f"{key} must be finite, got {v!r}")
    return x


def integer(v, key: str) -> int:
    """An integral finite number, as int; 3.0 is accepted, 2.7 is not."""
    x = real(v, key)
    if x != int(x):
        raise ValueError(f"{key} must be an integer, got {v!r}")
    return int(x)


def degree(v, key: str) -> int:
    """An integral radial degree of at most MAX_DEGREE."""
    l = integer(v, key)
    if l > MAX_DEGREE:
        raise ValueError(f"{key} must be at most {MAX_DEGREE}, got {l}")
    return l


def quadrature_degree(v, least: int) -> int:
    """An integral quadrature_lmax >= least within MAX_GRID_POINTS."""
    lq = integer(v, "quadrature_lmax")
    if lq < least or (2 * lq + 2) * (4 * lq + 4) > MAX_GRID_POINTS:
        raise ValueError(
            f"quadrature_lmax must be >= {least} and give at most {MAX_GRID_POINTS} "
            f"grid points (2L + 2)(4L + 4), got {lq}"
        )
    return lq


def complex_pair(v, key: str) -> complex:
    """A complex value from a [re, im] pair of finite numbers."""
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise ValueError(f"{key} must be a [re, im] pair, got {v!r}")
    return complex(real(v[0], key), real(v[1], key))


def complex_pairs(v, n: int, key: str) -> list:
    """n complex values from a list of n [re, im] pairs."""
    if not (isinstance(v, (list, tuple)) and len(v) == n):
        raise ValueError(f"{key} must be a list of {n} [re, im] pairs, got {v!r}")
    return [complex_pair(p, key) for p in v]


def kind_pair(v, key: str) -> tuple:
    """Two RadialKind from a list of two kind names."""
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise ValueError(f"{key} must be a pair of kind names, got {v!r}")
    valid = [kind.value for kind in RadialKind]
    for name in v:
        if name not in valid:
            raise ValueError(f"{key} entry {name!r} must be one of {valid}")
    return RadialKind(v[0]), RadialKind(v[1])
