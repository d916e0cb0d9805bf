"""The one parsing layer for JSON configs and JSON artifacts.

Every number, integer, [re, im] pair and keyed object read from a config
or artifact goes through these functions, so non-finite and non-integral
values are rejected alike everywhere, with a ValueError naming the key;
`kind_pair` reads a pair of radial kind names.
`degree` also caps a degree l at MAX_DEGREE, and `quadrature_degree` a
quadrature grid at MAX_GRID_POINTS.  `_table` is the matching encoder:
every result table, CSV or JSON, is rendered from one column list and
yielded in pieces.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from .specfun import RadialKind, _two_prod

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

# the most CSV rows `_csv_block` encodes at once, with 0.3 kB of scratch a cell
_ROWS = 512


@functools.cache
def _pow10(q: int) -> tuple:
    """10^q as a double-double (hi, lo): with 10^q = n / dn and hi = m / s,
    hi and lo = 10^q - hi are correctly rounded int divisions."""
    n, dn = 10 ** max(q, 0), 10 ** max(-q, 0)
    hi = n / dn
    m, s = hi.as_integer_ratio()
    return hi, (n * s - m * dn) / (dn * s)


@functools.cache
def _quads() -> np.ndarray:
    """The 4 ASCII digits of 0 .. 9999, as one uint32 each."""
    digits = 48 + np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10
    return digits.astype(np.uint8).view(np.uint32).ravel()


def _percent(x: np.ndarray, ints: np.ndarray) -> list:
    """The cells x as % formats them: "%d" where `ints` marks one, else "%.17g"."""
    return [("%d" if i else "%.17g") % v for v, i in zip(x.tolist(), ints.tolist())]


def _csv_block(x: np.ndarray, ints) -> str:
    """The CSV lines of the rows of x, byte for byte as "%d" (in columns
    that `ints` marks) and "%.17g" format them.

    A cell at decimal exponent k (log10's, checked) with 1e-270 <= |x| <=
    1e290 rounds D = |x| 10^(16-k), the `_two_prod` of x and `_pow10` with
    an error below 1e-14, to 17 digits unless D lies within 1e-9 of a tie
    or outside [1e16, 1e17); a zero, or an integer cell below 1e16, is its
    truncation at k = 16.  A cell is a 45-byte column with a row for every
    character a form may show (sign, "0.000", the digits with a point slot
    after each, exponent, separator), zero where it shows none; the zeros
    are dropped.  `_percent` formats every other cell.
    """
    rows, width = x.shape
    x = x.ravel()
    ints = np.tile(ints, rows)
    ax = np.abs(x)
    window = (ax >= 1e-270) & (ax <= 1e290) & ~ints
    a = np.where(window, ax, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    q0 = 16 - int(k.max())
    hi, lo = np.array([_pow10(q) for q in range(q0, 17 - int(k.min()))]).T
    yh, yl = _two_prod(a, hi[16 - q0 - k])
    yl += a * lo[16 - q0 - k]
    whole = np.floor(yl)
    d = yh.astype(np.int64) + whole.astype(np.int64)
    ok = window & (d >= 10**16) & (d < 10**17) & (np.abs(yl - whole - 0.5) > 1e-9)
    d += yl - whole > 0.5
    exact = (ints | (x == 0)) & (ax < 1e16)
    t = np.where(exact, x, 0.0).astype(np.int64)
    ok |= exact
    k = np.where(exact, 16, k + (d == 10**17))
    d = np.where(exact, np.abs(t), np.where(d == 10**17, 10**16, d))
    first = (16 - np.searchsorted(10 ** np.arange(1, 17), d, "right")).astype(np.int8)
    chunk = np.empty((5, len(x)), np.int64)  # the first digit, then 4 digits each
    for j, p in enumerate((10**16, 10**12, 10**8, 10**4, 1)):
        chunk[j] = d // p
        d = d - chunk[j] * p
    quads = _quads()[chunk].view(np.uint8).reshape(5, len(x), 4)
    digits = quads.transpose(0, 2, 1).reshape(20, len(x))[3:]
    col = np.arange(17, dtype=np.int8)[:, None]
    nd = ((col + 1) * (digits != 48)).max(0)  # up to the last non-zero digit
    expo = (k < -4) | (k > 16)
    point = np.where(expo, 0, k).astype(np.int8)
    lead = np.where(point < 0, 1 - point, 0)  # "0." and the zeros after it
    row = np.zeros((45, len(x)), np.uint8)
    row[0] = np.signbit(np.where(ints, t, x)) * np.uint8(45)
    row[1:6] = (col[:5] < lead) * np.uint8([48, 46, 48, 48, 48])[:, None]
    row[6:39:2] = digits * ((col >= first) & (col < np.maximum(nd, point + 1)))
    row[7:38:2] = (col[:16] == np.where(nd > point + 1, point, -1)) * np.uint8(46)
    e = np.flatnonzero(expo)
    ke = _quads()[np.abs(k[e])].view(np.uint8).reshape(-1, 4).T  # |k| as 4 digits
    row[39:44, e] = [np.full(len(e), 101), np.where(k[e] < 0, 45, 43), *ke[1:]]
    row[41, e] *= ke[1] > 48  # a hundreds digit only past 99
    row[44] = np.tile([44] * (width - 1) + [10], rows)
    bad = np.flatnonzero(~ok)
    row[:44, bad] = 0
    row[0, bad] = 1
    text = row.T.tobytes().translate(None, b"\0").decode()
    if bad.size:
        head, *tails = text.split("\x01")
        text = head + "".join(map(str.__add__, _percent(x[bad], ints[bad]), tails))
    return text


def _table(fmt: str, columns, meta: dict, rows: str | None = None):
    """One result table as CSV or JSON text, yielded in pieces to write in turn.

    `columns` is a list of (key, names, values): `values` holds N rows of
    shape (N,) or (N, ...), integer, real or complex, and `names` the CSV
    header cells of one row's values, each becoming name_re, name_im for a
    complex column.  CSV is the header line, then one line per row with
    integer cells as such and every other cell with 17 significant
    digits, which reproduces a double exactly (`_csv_block`, byte for byte
    as "%d" and "%.17g").  JSON is the `meta` keys, then under `rows` one
    {key: value} object per row, a complex value as nested [re, im] pairs;
    with no `rows`, the keys of the one row, if any, follow `meta`.  CSV
    comes as the header, then one `_csv_block` per `_ROWS` rows.
    """
    keys, header, ints, values = [], [], [], []
    for key, names, v in columns:
        v = np.asarray(v)
        if np.iscomplexobj(v):
            v = np.stack([v.real, v.imag], axis=-1)
            names = [f"{name}_{part}" for name in names for part in ("re", "im")]
        keys.append(key)
        header += names
        ints += [v.dtype.kind in "iu"] * len(names)
        values.append(v.reshape(len(v), len(names)) if fmt == "csv" else v.tolist())
    if fmt == "csv":
        yield ",".join(header) + "\n"
        for i in range(0, len(values[0]), _ROWS):
            block = np.hstack([v[i:i + _ROWS] for v in values], dtype=float)
            yield _csv_block(block, ints)
        return
    records = [dict(zip(keys, row)) for row in zip(*values)]
    doc = dict(meta)
    if rows is None:
        doc.update(*records)
    else:
        doc[rows] = records
    yield from json.JSONEncoder(indent=2).iterencode(doc)
    yield "\n"


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
