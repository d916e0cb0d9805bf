"""Readers and writers for sampled-field files.

A field travels as three arrays: `points`, real of shape (N, 3) holding
(r, theta, phi), and `e`, `h`, complex of shape (N, 3) in the local
spherical frame.  On disk it is CSV (one row per point, complex values
split into _re/_im columns, 17 significant digits) or JSON with complex
numbers encoded as [re, im] pairs.  Writers are deterministic: same
inputs, same bytes.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from array import array
from contextlib import contextmanager

import numpy as np

from .parsing import _table, complex_pair, real

__all__ = [
    "write_field_csv",
    "read_field_csv",
    "write_field_json",
    "read_field_json",
]


@contextmanager
def _opened(fp, mode: str):
    if isinstance(fp, (str, bytes)):
        with open(fp, mode, newline="" if "b" not in mode else None) as handle:
            yield handle
    else:
        yield fp


def _field_table(fmt: str, points, e, h):
    """The field file's text, CSV or JSON, for N points and E, H at them, in pieces."""
    r, theta, phi = np.reshape(np.asarray(points, dtype=float), (-1, 3)).T
    e, h = (np.asarray(v, dtype=complex) for v in (e, h))
    columns = [("r", ["r"], r), ("theta", ["theta"], theta), ("phi", ["phi"], phi),
               ("e", ["e_r", "e_theta", "e_phi"], e),
               ("h", ["h_r", "h_theta", "h_phi"], h)]
    return _table(fmt, columns, {}, "fields")


# the header of the empty table
FIELD_CSV_COLUMNS = tuple(next(_field_table("csv", [], [], [])).rstrip("\n").split(","))


def write_field_csv(points, e, h, fp) -> None:
    with _opened(fp, "w") as handle:
        handle.writelines(_field_table("csv", points, e, h))


def _check_header(reader) -> None:
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty field CSV") from None
    if tuple(header) != FIELD_CSV_COLUMNS:
        raise ValueError(
            f"unexpected field CSV header {header!r}; "
            f"expected {','.join(FIELD_CSV_COLUMNS)}"
        )


def read_field_csv(fp) -> tuple:
    """(points, e, h) from a field CSV, a path or a seekable file object;
    blank lines are skipped.

    The body is parsed in C by np.loadtxt.  A body it cannot parse, or
    whose values are not all finite with r > 0, is read again from where
    the read began, row by row, by `_scan_field_csv`, which accepts the
    cells Python's float() does and names the first fault.
    """
    with _opened(fp, "r") as handle:
        # on a stream that cannot seek, the second read raises io.UnsupportedOperation
        start = handle.tell() if handle.seekable() else None
        _check_header(csv.reader(handle))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a body with no rows
                vals = np.loadtxt(handle, delimiter=",", comments=None, ndmin=2)
            ok = vals.shape[1] == len(FIELD_CSV_COLUMNS) and np.isfinite(vals).all()
        except ValueError:
            ok = False
        if not (ok and (vals[:, 0] > 0).all()):
            handle.seek(start)
            vals = _scan_field_csv(handle)
    # (re, im) cell pairs viewed as complex keep signed zeros and infinities
    eh = np.ascontiguousarray(vals[:, 3:]).view(complex)
    return vals[:, :3], eh[:, :3], eh[:, 3:]


def _scan_field_csv(lines) -> np.ndarray:
    """The (N, 15) values of a field CSV, read from its lines one row at a time.

    The first faulty row raises; a row is checked for its column count,
    numbers, finiteness and r > 0, in that order.
    """
    reader = csv.reader(lines)
    _check_header(reader)
    ncol = len(FIELD_CSV_COLUMNS)
    flat = array("d")
    for row in reader:
        if not row:
            continue
        if len(row) != ncol:
            raise ValueError(f"field CSV row has {len(row)} columns")
        n = len(flat)
        try:
            flat.extend(map(float, row))  # on a bad number, keeps the cells before it
        except ValueError:
            fault = f"{FIELD_CSV_COLUMNS[len(flat) - n]} is not a number"
        else:
            finite = list(map(math.isfinite, flat[n:]))
            if all(finite) and flat[n] > 0:
                continue
            if all(finite):
                raise ValueError("field samples require r > 0")
            fault = f"{FIELD_CSV_COLUMNS[finite.index(False)]} is not finite"
        raise ValueError(f"field CSV line {reader.line_num}: {fault}")
    return np.frombuffer(flat).reshape(-1, ncol)


def write_field_json(points, e, h, fp) -> None:
    with _opened(fp, "w") as handle:
        handle.writelines(_field_table("json", points, e, h))


def read_field_json(fp) -> tuple:
    """(points, e, h) from a field JSON document."""
    with _opened(fp, "r") as handle:
        doc = json.load(handle)
    if not (isinstance(doc, dict) and isinstance(doc.get("fields"), list)):
        raise ValueError("field JSON must be an object with a 'fields' list")
    points, e, h = [], [], []
    for rec in doc["fields"]:
        if not isinstance(rec, dict):
            raise ValueError(f"field sample must be an object, got {rec!r}")
        extra = set(rec) - {"r", "theta", "phi", "e", "h"}
        if extra:
            raise ValueError(f"unknown field-sample keys {sorted(extra)}")
        try:
            for name, v in (("e", e), ("h", h)):
                if not isinstance(rec[name], list):
                    raise ValueError(f"{name} must have shape (3,)")
                v.append([complex_pair(p, name) for p in rec[name]])
            points.append([real(rec[key], key) for key in ("r", "theta", "phi")])
        except KeyError as exc:
            raise ValueError(f"field sample missing key {exc}") from None
        if not points[-1][0] > 0:
            raise ValueError("field samples require r > 0")
        for name, v in (("e", e), ("h", h)):
            if len(v[-1]) != 3:
                raise ValueError(f"{name} must have shape (3,)")
    return (
        np.array(points, dtype=float).reshape(-1, 3),
        np.array(e, dtype=complex).reshape(-1, 3),
        np.array(h, dtype=complex).reshape(-1, 3),
    )

