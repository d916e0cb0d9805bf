"""The CSV encoder of `parsing._table` against Python's % formatting."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorwave import cli, parsing
from tensorwave.fileio import FIELD_CSV_COLUMNS, _field_table
from tensorwave.parsing import _csv_block, _table


def percent(columns) -> str:
    """The CSV body of `columns` as one % pass over the table as doubles
    formats it, the old encoder: "%d" for an integer column, else "%.17g"."""
    table = np.column_stack(columns).astype(float)
    line = ",".join("%d" if v.dtype.kind in "iu" else "%.17g" for v in columns) + "\n"
    return line * len(table) % tuple(table.ravel().tolist())


def encoded(columns) -> str:
    """The CSV body `_table` renders for `columns`, one table column each."""
    text = "".join(_table("csv", [(str(j), [f"c{j}"], v) for j, v in enumerate(columns)], {}))
    return text.split("\n", 1)[1]


# doubles m / 2^s with 17 or 18 significant decimal digits, many of them
# exact ties at the 17th digit (1125899906842624.25 is one)
DYADIC = st.builds(lambda m, s: m / 2**s, st.integers(2**49, 2**53), st.integers(0, 12))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.floats(), DYADIC),
                          st.integers(-2**63, 2**63 - 1)), min_size=1, max_size=40))
def test_encoder_matches_percent_on_any_double_and_integer(cells):
    # st.floats draws nan, +-inf, +-0, subnormals and the largest doubles
    x = np.array([c[0] for c in cells])
    n = np.array([c[1] for c in cells], dtype=np.int64)
    columns = [x, n, -x]
    assert encoded(columns) == percent(columns)


def test_encoder_matches_percent_on_a_million_random_bit_patterns():
    # 8 columns of 125,000 rows: many blocks, every exponent, nan and inf
    x = np.frombuffer(np.random.default_rng(30).bytes(8 * 10**6), np.float64)
    columns = list(x.reshape(-1, 8).T)
    assert encoded(columns) == percent(columns)


# the cells next to every switch of the encoder: a tie, each side of
# 10^p across the window 1e-270 .. 1e290 and past it (log10 may misplace
# k there), the switch to exponent form at 1e16 .. 1e17 and 1e-4 .. 1e-5,
# the subnormal and largest doubles, the 9.9999999999999996e-281 that a
# carry before the range check printed as 1e-280, and signed zero
BOUNDARY = [
    1125899906842624.25, 1125899906842624.75, 562949953421312.125,
    1e16, 1e17, 9999999999999998.0, 99999999999999984.0, 1e-4, 1e-5,
    9.9999999999999995e-05, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    9.9999999999999996e-281, 1e-270, 1e290, -0.0, 0.0, 1.0, 0.5, 123.5, 100.0,
    *(v for p in range(-275, 296)
      for v in (np.nextafter(float(f"1e{p}"), 0.0), float(f"1e{p}"),
                np.nextafter(float(f"1e{p}"), np.inf))),
]
INTEGERS = [0, 1, -1, 9, 10, 9999999999999999, 10**16, -10**16, 10**16 + 2,
            2**53 + 2, 2**63 - 1, -2**63]


def test_encoder_matches_percent_at_its_boundaries():
    x = np.array(BOUNDARY)
    n = np.resize(np.array(INTEGERS, dtype=np.int64), len(x))
    columns = [x, -x, n, -n, x / 10.0]
    assert encoded(columns) == percent(columns)


def test_an_integer_column_truncates_as_percent_d():
    # -0.0 prints "0" in an integer column and "-0" in a float one
    x = np.array([-0.0, -0.5, 2.7, -2.7, 0.0, 9999999999999998.0, 1e16, -1e300])
    block = np.column_stack([x, x])
    want = "".join("%d,%.17g\n" % (v, v) for v in x.tolist())
    assert _csv_block(block, np.array([True, False])) == want


def field(rng, n):
    points = rng.uniform(0.1, 5.0, (n, 3))
    e = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    return points, e, 1e-3 * e


def test_field_table_memory_is_bounded(rng):
    # the roundtrip field's shape: 2,312 rows of 15 cells; % took 2.1 MB
    # here, and blocks of 8,192 rows 10.2 MB
    fields = field(rng, 2312)
    "".join(_field_table("csv", *fields))  # the lazily built tables
    tracemalloc.start()
    try:
        text = "".join(_field_table("csv", *fields))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = [fields[0][:, 0], fields[0][:, 1], fields[0][:, 2],
               *(c for v in fields[1:] for j in range(3) for c in (v[:, j].real, v[:, j].imag))]
    assert text.split("\n", 1)[1] == percent(columns)
    assert peak <= 4e6


@pytest.mark.parametrize("fmt, bound", [("csv", 3.0e6), ("json", 3.2e6)])
def test_field_table_pieces_stream_in_bounded_memory(rng, fmt, bound):
    # the roundtrip field's 2,312 rows, hashed piece by piece as a writer
    # takes them, peak at 2.67 MB (CSV) and 2.85 MB (JSON, most of it the
    # rows as Python lists); as one text they took 3.21 and 10.8 MB
    points, e, h = fields = field(rng, 2312)
    if fmt == "csv":
        columns = [*points.T, *(c for v in (e, h) for z in v.T for c in (z.real, z.imag))]
        want = ",".join(FIELD_CSV_COLUMNS) + "\n" + percent(columns)
    else:
        rows = [{"r": p[0], "theta": p[1], "phi": p[2],
                 "e": [[z.real, z.imag] for z in ez], "h": [[z.real, z.imag] for z in hz]}
                for p, ez, hz in zip(points.tolist(), e.tolist(), h.tolist())]
        want = json.dumps({"fields": rows}, indent=2) + "\n"
    "".join(_field_table(fmt, *fields))  # the lazily built tables
    digest = hashlib.sha256()
    tracemalloc.start()
    try:
        for piece in _field_table(fmt, *fields):
            digest.update(piece.encode())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest.hexdigest() == hashlib.sha256(want.encode()).hexdigest()
    assert peak <= bound


def test_benchmark_shaped_tables_take_no_percent_cell(tmp_path, monkeypatch):
    # every mode l <= 16 on the degree-16 grid at n k r = 24, written and
    # projected back, and 48 modes of random kinds at 120 points: no cell
    # of either field table or of the coefficient table falls back to %
    fallback = []
    percent_cells = parsing._percent
    monkeypatch.setattr(parsing, "_percent",
                        lambda x, ints: fallback.extend(x) or percent_cells(x, ints))
    rng = np.random.default_rng(1)
    k, medium = 1.3, {"eps": [2.0, 0.0], "mu": [1.2, 0.0]}
    kinds = ["bessel_j", "bessel_y", "hankel1", "hankel2"]

    def waves(lmax, pick):
        return [{"l": l, "m": m, "kinds": pick(),
                 "c1": rng.standard_normal((2, 2)).tolist(),
                 "c2": rng.standard_normal((2, 2)).tolist()}
                for l in range(1, lmax + 1) for m in range(-l, l + 1)]

    def solve(name, cfg):
        (tmp_path / f"{name}.json").write_text(json.dumps({**cfg, "k": k, "medium": medium}))
        out = tmp_path / f"{name}.csv"
        argv = ["solve", "--config", str(tmp_path / f"{name}.json"), "--format", "csv"]
        assert cli.main([*argv, "--out", str(out)]) == 0
        return out.read_text()

    r = 24 / (k * math.sqrt(2.4))
    grid = solve("grid", {"task": "synthesize", "grid": {"r": r, "quadrature_lmax": 16},
                          "waves": waves(16, lambda: ["bessel_j", "hankel1"])})
    coeffs = solve("project", {"task": "project", "quadrature_lmax": 16,
                               "field": str(tmp_path / "grid.csv"),
                               "kinds": ["bessel_j", "hankel1"]})
    points = np.column_stack([rng.uniform(1.5, 15.0, 120) / (k * math.sqrt(2.4)),
                              np.arccos(rng.uniform(-1.0, 1.0, 120)),
                              rng.uniform(0.0, 2 * math.pi, 120)])
    near = solve("near", {"task": "synthesize", "points": points.tolist(),
                          "waves": waves(6, lambda: rng.choice(kinds, 2, False).tolist())})
    assert [text.count("\n") for text in (grid, coeffs, near)] == [2313, 289, 121]
    assert fallback == []
