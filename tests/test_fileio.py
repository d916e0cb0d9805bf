import csv
import io
import json
import pathlib
import re
import warnings

import numpy as np
import pytest

from tensorwave import cli
from tensorwave.cli import _wave_from_dict, _waves_from_config
from tensorwave.fileio import (
    FIELD_CSV_COLUMNS,
    _scan_field_csv,
    read_field_csv,
    read_field_json,
    write_field_csv,
    write_field_json,
)
from tensorwave.maxwell_radial import Medium, RadialProfile
from tensorwave.specfun import RadialKind
from tensorwave.synthesis import KINDS

EDGE_VALUES = [-0.0, 5e-324, 1.7976931348623157e308, 1e-300, 3.0, -2.0, 0.0]


def some_fields(rng, n=5):
    points = np.column_stack(
        [rng.uniform(0.5, 4.0, n), rng.uniform(0.1, 3.0, n), rng.uniform(0.0, 6.2, n)]
    )
    e = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    h = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    return points, e, h


def edge_fields():
    """Two rows whose cells hit signed zero, the subnormal and largest
    doubles, a tiny normal and exact integers."""
    vals = np.resize(np.array(EDGE_VALUES), 2 * 15).reshape(2, 15)
    vals[:, 0] = [1.0, 2.0]  # r > 0
    eh = vals[:, 3:].copy().view(complex)  # keeps the signed zeros
    return vals[:, :3], eh[:, :3], eh[:, 3:]


def reference_csv(points, e, h) -> str:
    """The field CSV built cell by cell with csv.writer and "%.17g"."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(FIELD_CSV_COLUMNS)
    for p, ei, hi in zip(points, e, h):
        row = list(p)
        for v in (*ei, *hi):
            row.extend([v.real, v.imag])
        writer.writerow(["%.17g" % x for x in row])
    return buf.getvalue()


def reference_json(points, e, h) -> str:
    def pairs(vs):
        return [[complex(v).real, complex(v).imag] for v in vs]

    doc = {
        "fields": [
            {"r": p[0], "theta": p[1], "phi": p[2], "e": pairs(ei), "h": pairs(hi)}
            for p, ei, hi in zip(points.tolist(), e, h)
        ]
    }
    return json.dumps(doc, indent=2) + "\n"


def assert_fields_equal(got, want):
    for g, w in zip(got, want):
        assert g.shape == np.shape(w)
        # bit for bit, signed zeros included
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


def field_text(*rows) -> str:
    return ",".join(FIELD_CSV_COLUMNS) + "\n" + "".join(r + "\n" for r in rows)


GOOD_ROW = ",".join(["1.5", "0.5", "0.25"] + ["0.125"] * 12)


def test_field_csv_round_trip_is_exact(rng, tmp_path):
    # 17 significant digits round-trips IEEE doubles bit for bit
    fields = some_fields(rng)
    path = tmp_path / "field.csv"
    write_field_csv(*fields, str(path))
    assert_fields_equal(read_field_csv(str(path)), fields)
    edges = edge_fields()
    write_field_csv(*edges, str(path))
    assert_fields_equal(read_field_csv(str(path)), edges)


def test_field_csv_accepts_file_objects(rng):
    fields = some_fields(rng, n=2)
    buf = io.StringIO()
    write_field_csv(*fields, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == ",".join(FIELD_CSV_COLUMNS)
    assert_fields_equal(read_field_csv(io.StringIO(text)), fields)


def test_field_csv_writer_is_deterministic(rng):
    fields = some_fields(rng, n=3)
    a, b = io.StringIO(), io.StringIO()
    write_field_csv(*fields, a)
    write_field_csv(*fields, b)
    assert a.getvalue() == b.getvalue()


@pytest.mark.parametrize("which", ["random", "edges", "empty"])
def test_field_csv_writer_matches_per_cell_reference(rng, which):
    fields = {
        "random": lambda: some_fields(rng, n=7),
        "edges": edge_fields,
        "empty": lambda: some_fields(rng, n=0),
    }[which]()
    buf = io.StringIO()
    write_field_csv(*fields, buf)
    assert buf.getvalue() == reference_csv(*fields)


def test_an_empty_field_table_is_its_header_or_an_empty_list():
    z = np.zeros((0, 3))
    for write, read, want in (
        (write_field_csv, read_field_csv, ",".join(FIELD_CSV_COLUMNS) + "\n"),
        (write_field_json, read_field_json, '{\n  "fields": []\n}\n'),
    ):
        buf = io.StringIO()
        write(z, z.astype(complex), z.astype(complex), buf)
        assert buf.getvalue() == want
        assert [v.shape for v in read(io.StringIO(want))] == [(0, 3)] * 3


def test_readme_gives_the_field_csv_header():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    header = re.search(r"use the fixed header\s+`([^`]*)`", readme).group(1)
    assert tuple(re.sub(r"\s", "", header).split(",")) == FIELD_CSV_COLUMNS


def test_field_csv_writer_cells_at_the_edges():
    buf = io.StringIO()
    write_field_csv(*edge_fields(), buf)
    cells = buf.getvalue().splitlines()[1].split(",")
    assert cells[:9] == [
        "1", "4.9406564584124654e-324", "1.7976931348623157e+308", "1e-300",
        "3", "-2", "0", "-0", "4.9406564584124654e-324",
    ]


def test_field_csv_rejects_bad_header():
    with pytest.raises(ValueError, match="header"):
        read_field_csv(io.StringIO("r,theta,phi\n1,2,3\n"))


def test_field_csv_rejects_empty_file():
    with pytest.raises(ValueError, match="empty"):
        read_field_csv(io.StringIO(""))


def test_field_csv_rejects_short_row():
    for row, n in (("1,2,3", 3), (GOOD_ROW.rsplit(",", 1)[0], 14)):
        with pytest.raises(ValueError, match=f"field CSV row has {n} columns"):
            read_field_csv(io.StringIO(field_text(GOOD_ROW, row)))


def test_field_csv_skips_blank_lines_and_counts_them():
    points, e, h = read_field_csv(io.StringIO(field_text("", GOOD_ROW, "", GOOD_ROW)))
    assert points.shape == e.shape == h.shape == (2, 3)
    # the header is line 1 and the blank lines 2 and 4, so the nan is on line 5
    bad = GOOD_ROW.split(",")
    bad[5] = "nan"
    text = field_text("", GOOD_ROW, "", ",".join(bad))
    with pytest.raises(ValueError, match="field CSV line 5: e_theta_re is not finite"):
        read_field_csv(io.StringIO(text))


@pytest.mark.parametrize("r", ["0", "-0", "-1"])
def test_field_csv_rejects_nonpositive_radius(r):
    text = field_text(GOOD_ROW, r + GOOD_ROW[3:])
    with pytest.raises(ValueError, match="field samples require r > 0"):
        read_field_csv(io.StringIO(text))
    doc = {"fields": [{"r": float(r), "theta": 1, "phi": 1, "e": [[0, 0]] * 3,
                       "h": [[0, 0]] * 3}]}
    with pytest.raises(ValueError, match="field samples require r > 0"):
        read_field_json(io.StringIO(json.dumps(doc)))


def _with_cell(row, j, value):
    cells = row.split(",")
    cells[j] = value
    return ",".join(cells)


@pytest.mark.parametrize(
    "rows, message",
    [
        # line 3 holds the first fault whatever comes after it
        ([GOOD_ROW, _with_cell(GOOD_ROW, 9, "nan"), _with_cell(GOOD_ROW, 2, "x")],
         "line 3: h_r_re is not finite"),
        ([GOOD_ROW, _with_cell(GOOD_ROW, 2, "x"), _with_cell(GOOD_ROW, 9, "nan")],
         "line 3: phi is not a number"),
        ([GOOD_ROW, _with_cell(GOOD_ROW, 1, "inf"), "1,2"],
         "line 3: theta is not finite"),
        ([GOOD_ROW, "1,2", _with_cell(GOOD_ROW, 1, "inf")], "row has 2 columns"),
        ([_with_cell(GOOD_ROW, 0, "0"), _with_cell(GOOD_ROW, 2, "x")], "r > 0"),
        # within a row a non-finite cell is reported before r <= 0
        ([_with_cell(_with_cell(GOOD_ROW, 0, "0"), 9, "-inf")],
         "line 2: h_r_re is not finite"),
        # and a cell that is no number before a non-finite one to its left
        ([_with_cell(_with_cell(GOOD_ROW, 1, "inf"), 5, "x")],
         "line 2: e_theta_re is not a number"),
    ],
)
def test_field_csv_reports_the_first_faulty_row(rows, message):
    with pytest.raises(ValueError, match=message):
        read_field_csv(io.StringIO(field_text(*rows)))


@pytest.mark.parametrize("j, cell", [(0, "x"), (2, ""), (7, '"1,5"'), (14, "0x10")])
def test_field_csv_names_the_cell_that_is_no_number(j, cell):
    # the header is line 1 and the blank line 3, so the bad row is line 5
    text = field_text(GOOD_ROW, "", GOOD_ROW, _with_cell(GOOD_ROW, j, cell))
    col = FIELD_CSV_COLUMNS[j]
    with pytest.raises(ValueError, match=f"^field CSV line 5: {col} is not a number$"):
        read_field_csv(io.StringIO(text))


def scanned_or_message(text):
    """What the row scanner makes of a field CSV: its arrays, or its message."""
    try:
        vals = _scan_field_csv(io.StringIO(text))
    except ValueError as exc:
        return str(exc)
    eh = np.ascontiguousarray(vals[:, 3:]).view(complex)
    return vals[:, :3], eh[:, :3], eh[:, 3:]


def read_or_message(text):
    try:
        return read_field_csv(io.StringIO(text))
    except ValueError as exc:
        return str(exc)


READER_CASES = {
    "header only": field_text(),
    "crlf": field_text(GOOD_ROW, GOOD_ROW).replace("\n", "\r\n"),
    "blank lines": field_text("", GOOD_ROW, "", "", GOOD_ROW, ""),
    "whitespace-only line": field_text(GOOD_ROW, "   ", GOOD_ROW),
    "tab-only line": field_text(GOOD_ROW, "\t"),
    "spaced cells": field_text(_with_cell(_with_cell(GOOD_ROW, 1, " 0.5 "), 4, "  2")),
    "tab cells": field_text(_with_cell(GOOD_ROW, 6, "\t0.125\t")),
    "quoted cells": field_text(_with_cell(GOOD_ROW, 2, '"0.25"')),
    "quoted header": field_text(GOOD_ROW).replace("theta", '"theta"', 1),
    "underscore": field_text(GOOD_ROW, _with_cell(GOOD_ROW, 5, "0_125")),
    "+inf": field_text(GOOD_ROW, _with_cell(GOOD_ROW, 7, "+inf")),
    "1e400": field_text(_with_cell(GOOD_ROW, 0, "1e400")),
    "hash": field_text(GOOD_ROW, _with_cell(GOOD_ROW, 3, "#1")),
    "non-ascii digits": field_text(_with_cell(GOOD_ROW, 8, "\u0661\u0662")),
    "wide digits": field_text(_with_cell(GOOD_ROW, 0, "\uff12")),
    "short row": field_text(GOOD_ROW, "1,2,3"),
    "trailing comma": field_text(GOOD_ROW + ","),
    "empty cell": field_text(_with_cell(GOOD_ROW, 9, "")),
    "r = -0": field_text(_with_cell(GOOD_ROW, 0, "-0")),
    "edge values": reference_csv(*edge_fields()),
}


@pytest.mark.parametrize("case", sorted(READER_CASES))
def test_field_csv_reader_agrees_with_the_row_scanner(case):
    text = READER_CASES[case]
    want = scanned_or_message(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = read_or_message(text)
    assert caught == []  # loadtxt's "input contained no data" stays inside
    if isinstance(want, str):
        assert got == want
    else:
        assert_fields_equal(got, want)


def test_field_csv_reader_agrees_with_the_row_scanner_on_disk(tmp_path):
    # CRLF endings and a blank line as a file on disk, the way the CLI reads it
    path = tmp_path / "field.csv"
    good = field_text(GOOD_ROW, "", GOOD_ROW).replace("\n", "\r\n")
    path.write_bytes(good.encode())
    assert_fields_equal(read_field_csv(str(path)), scanned_or_message(good))
    bad = field_text(GOOD_ROW, "", _with_cell(GOOD_ROW, 4, "x")).replace("\n", "\r\n")
    path.write_bytes(bad.encode())
    with pytest.raises(ValueError, match="^field CSV line 4: e_r_im is not a number$"):
        read_field_csv(str(path))


class _Unseekable(io.BytesIO):
    def seekable(self):
        return False


def test_field_csv_needs_a_seekable_stream_only_to_read_rows_again():
    # np.loadtxt reads a plain body in one pass; the row scan reads it again
    def stream(text):
        return io.TextIOWrapper(_Unseekable(text.encode()), newline="")

    good = field_text(GOOD_ROW, "", GOOD_ROW)
    assert_fields_equal(read_field_csv(stream(good)), read_field_csv(io.StringIO(good)))
    for row in (_with_cell(GOOD_ROW, 4, "x"), _with_cell(GOOD_ROW, 0, '"1.5"')):
        with pytest.raises(ValueError, match="not seekable"):
            read_field_csv(stream(field_text(GOOD_ROW, row)))


@pytest.mark.parametrize("quoted", [False, True])
def test_field_csv_read_memory_is_bounded_by_its_values(rng, tmp_path, quoted):
    # the read once held every line, and the row scan every cell, as a string:
    # 10,000 rows peaked at 5.7 MB plain and 23 MB with a quoted cell per row
    import tracemalloc

    fields = some_fields(rng, n=10_000)
    path = tmp_path / "field.csv"
    write_field_csv(*fields, str(path))
    if quoted:  # np.loadtxt takes no quotes, so the row scan reads this file
        path.write_text(re.sub(r"(?m)^([^,\n]+),", r'"\1",', path.read_text()))
    tracemalloc.start()
    try:
        got = read_field_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_fields_equal(got, fields)
    assert peak < 3 * 10_000 * 15 * 8  # three times the values as doubles


def test_field_json_round_trip(rng, tmp_path):
    fields = some_fields(rng)
    path = tmp_path / "field.json"
    write_field_json(*fields, str(path))
    assert_fields_equal(read_field_json(str(path)), fields)
    doc = json.loads(path.read_text())
    assert set(doc) == {"fields"}
    assert all(isinstance(p, list) and len(p) == 2 for p in doc["fields"][0]["e"])


@pytest.mark.parametrize("which", ["random", "edges", "empty"])
def test_field_json_writer_matches_reference(rng, which):
    fields = {
        "random": lambda: some_fields(rng, n=4),
        "edges": edge_fields,
        "empty": lambda: some_fields(rng, n=0),
    }[which]()
    buf = io.StringIO()
    write_field_json(*fields, buf)
    assert buf.getvalue() == reference_json(*fields)
    assert_fields_equal(read_field_json(io.StringIO(buf.getvalue())), fields)


def test_field_json_rejects_unknown_keys():
    doc = {"fields": [{"r": 1, "theta": 1, "phi": 1, "e": [[0, 0]] * 3,
                       "h": [[0, 0]] * 3, "bogus": 5}]}
    with pytest.raises(ValueError, match="bogus"):
        read_field_json(io.StringIO(json.dumps(doc)))


def test_field_json_rejects_missing_key():
    doc = {"fields": [{"r": 1, "theta": 1, "phi": 1, "e": [[0, 0]] * 3}]}
    with pytest.raises(ValueError, match="missing"):
        read_field_json(io.StringIO(json.dumps(doc)))


def test_field_json_rejects_bad_pair():
    doc = {"fields": [{"r": 1, "theta": 1, "phi": 1,
                       "e": [[0, 0, 0]] * 3, "h": [[0, 0]] * 3}]}
    with pytest.raises(ValueError, match="pair"):
        read_field_json(io.StringIO(json.dumps(doc)))


def test_field_json_rejects_wrong_vector_length():
    doc = {"fields": [{"r": 1, "theta": 1, "phi": 1,
                       "e": [[0, 0]] * 3, "h": [[0, 0]] * 4}]}
    with pytest.raises(ValueError, match=r"h must have shape \(3,\)"):
        read_field_json(io.StringIO(json.dumps(doc)))


def test_field_json_rejects_wrong_top_level():
    with pytest.raises(ValueError, match="fields"):
        read_field_json(io.StringIO("[1, 2]"))


# wave entries and profiles are read from the JSON of a config


def test_waves_json_round_trip(monkeypatch):
    text = json.dumps([
        {"l": 1, "m": 0, "c1": [[1.0, -0.0], [0.0, 0.5]], "c2": [[0.0, 0.0], [-0.0, 0.0]],
         "kinds": ["hankel1", "hankel2"]},
        {"l": 3, "m": -2, "c1": [[0.0, 0.0], [0.0, 0.0]], "c2": [[1.0, -2.0], [0.25, 0.0]],
         "kinds": ["bessel_j", "bessel_y"]},
    ])
    slow = [_wave_from_dict(rec) for rec in json.loads(text)]
    # valid entries are parsed in one pass, to the same bytes
    monkeypatch.setattr(cli, "_wave_from_dict", None)
    got = _waves_from_config(json.loads(text))
    for name in ("l", "m", "c", "kinds"):
        want = np.concatenate([getattr(t, name) for t in slow])
        assert getattr(got, name).tobytes() == want.tobytes()
    assert got.l.tolist() == [1, 3] and got.m.tolist() == [0, -2]
    assert np.array_equal(got.c[0, 0], [1.0, 0.5j])
    assert np.array_equal(got.c[1, 1], [1.0 - 2.0j, 0.25])
    assert [KINDS[i] for i in got.kinds[1]] == [RadialKind.BESSEL_J, RadialKind.BESSEL_Y]


def test_waves_json_c2_defaults_to_zero():
    rec = json.loads('{"l": 2, "m": 1, "c1": [[1, 0], [0, 1]], '
                     '"kinds": ["hankel1", "hankel2"]}')
    assert np.all(_wave_from_dict(rec).c[:, 1] == 0)


def test_waves_json_rejects_unknown_and_missing_keys():
    base = {"l": 1, "m": 0, "c1": [[1, 0], [0, 0]],
            "kinds": ["bessel_j", "bessel_y"]}
    with pytest.raises(ValueError, match="amplitude"):
        _wave_from_dict(dict(base, amplitude=3))
    missing = {k: v for k, v in base.items() if k != "kinds"}
    with pytest.raises(ValueError, match="kinds"):
        _wave_from_dict(missing)


def test_waves_json_rejects_bad_kind_name():
    rec = {"l": 1, "m": 0, "c1": [[1, 0], [0, 0]], "kinds": ["bessel_j", "bogus"]}
    with pytest.raises(ValueError, match="bogus"):
        _wave_from_dict(rec)


def test_waves_json_rejects_wrong_top_level():
    for doc in ({}, []):
        with pytest.raises(ValueError, match="waves"):
            _waves_from_config(doc)


def test_profile_json_round_trip():
    profile = RadialProfile(
        (1.0, 2.5),
        (Medium(2.25, 1.0), Medium(1.0 + 0.5j, 1.1), Medium(1.0, 1.0)),
    )
    def medium(m):
        return {"eps": [m.eps.real, m.eps.imag], "mu": [m.mu.real, m.mu.imag]}

    text = json.dumps({
        "shells": [
            {"r_out": b, **medium(m)} for b, m in zip(profile.boundaries, profile.media)
        ],
        "outer": medium(profile.media[-1]),
    })
    got = RadialProfile.from_dict(json.loads(text))
    assert got.boundaries == profile.boundaries
    assert all(
        gm.eps == pm.eps and gm.mu == pm.mu
        for gm, pm in zip(got.media, profile.media)
    )


def test_profile_json_rejects_unknown_keys():
    doc = {"shells": [], "outer": {"eps": [1, 0], "mu": [1, 0]}, "zaps": 1}
    with pytest.raises(ValueError, match="zaps"):
        RadialProfile.from_dict(doc)
