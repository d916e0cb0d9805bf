"""Readers and writers for the on-disk artifact formats.

Field samples travel as CSV (one row per point, complex values split
into _re/_im columns, 17 significant digits) or as JSON with complex
numbers encoded as [re, im] pairs.  Partial waves and radial profiles
are JSON only.  All writers are deterministic: same inputs, same bytes.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager

from .maxwell_radial import RadialProfile
from .parsing import (
    _fmt,
    _pair,
    complex_pair,
    complex_pairs,
    integer,
    real,
    require_keys,
)
from .specfun import ModeIndex, RadialKind
from .synthesis import FieldSample, PartialWave

__all__ = [
    "FIELD_CSV_COLUMNS",
    "write_field_csv",
    "read_field_csv",
    "write_field_json",
    "read_field_json",
    "write_waves_json",
    "read_waves_json",
    "write_profile_json",
    "read_profile_json",
]

FIELD_CSV_COLUMNS = (
    "r",
    "theta",
    "phi",
    "e_r_re",
    "e_r_im",
    "e_theta_re",
    "e_theta_im",
    "e_phi_re",
    "e_phi_im",
    "h_r_re",
    "h_r_im",
    "h_theta_re",
    "h_theta_im",
    "h_phi_re",
    "h_phi_im",
)


@contextmanager
def _opened(fp, mode: str):
    if isinstance(fp, (str, bytes)):
        with open(fp, mode, newline="" if "b" not in mode else None) as handle:
            yield handle
    else:
        yield fp


def write_field_csv(samples, fp) -> None:
    with _opened(fp, "w") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(FIELD_CSV_COLUMNS)
        for s in samples:
            row = [s.r, s.theta, s.phi]
            for v in (*s.e, *s.h):
                row.extend([v.real, v.imag])
            writer.writerow([_fmt(x) for x in row])


def read_field_csv(fp) -> list:
    with _opened(fp, "r") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty field CSV") from None
        if tuple(header) != FIELD_CSV_COLUMNS:
            raise ValueError(
                f"unexpected field CSV header {header!r}; "
                f"expected {','.join(FIELD_CSV_COLUMNS)}"
            )
        samples = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(FIELD_CSV_COLUMNS):
                raise ValueError(f"field CSV row has {len(row)} columns")
            vals = [float(x) for x in row]
            if not all(map(math.isfinite, vals)):
                col = FIELD_CSV_COLUMNS[[math.isfinite(v) for v in vals].index(False)]
                raise ValueError(
                    f"field CSV line {reader.line_num}: {col} is not finite"
                )
            e = [complex(vals[3 + 2 * i], vals[4 + 2 * i]) for i in range(3)]
            h = [complex(vals[9 + 2 * i], vals[10 + 2 * i]) for i in range(3)]
            samples.append(FieldSample(vals[0], vals[1], vals[2], e, h))
    return samples


def _sample_dict(s: FieldSample) -> dict:
    return {
        "r": s.r,
        "theta": s.theta,
        "phi": s.phi,
        "e": [_pair(v) for v in s.e],
        "h": [_pair(v) for v in s.h],
    }


def write_field_json(samples, fp) -> None:
    doc = {"fields": [_sample_dict(s) for s in samples]}
    with _opened(fp, "w") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")


def read_field_json(fp) -> list:
    with _opened(fp, "r") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or "fields" not in doc:
        raise ValueError("field JSON must be an object with a 'fields' list")
    samples = []
    for rec in doc["fields"]:
        extra = set(rec) - {"r", "theta", "phi", "e", "h"}
        if extra:
            raise ValueError(f"unknown field-sample keys {sorted(extra)}")
        try:
            e = [complex_pair(v, "e") for v in rec["e"]]
            h = [complex_pair(v, "h") for v in rec["h"]]
            r, theta, phi = (real(rec[key], key) for key in ("r", "theta", "phi"))
            samples.append(FieldSample(r, theta, phi, e, h))
        except KeyError as exc:
            raise ValueError(f"field sample missing key {exc}") from None
    return samples


def _wave_dict(w: PartialWave) -> dict:
    return {
        "l": w.mode.l,
        "m": w.mode.m,
        "c1": [_pair(v) for v in w.c1],
        "c2": [_pair(v) for v in w.c2],
        "kinds": [w.kinds[0].value, w.kinds[1].value],
    }


def _wave_from_dict(rec: dict) -> PartialWave:
    require_keys(rec, ("l", "m", "c1", "kinds"), ("c2",), what="wave")
    kinds = rec["kinds"]
    if not (isinstance(kinds, (list, tuple)) and len(kinds) == 2):
        raise ValueError("wave 'kinds' must be a pair of kind names")
    c1 = complex_pairs(rec["c1"], 2, "c1")
    c2 = complex_pairs(rec.get("c2", [[0.0, 0.0], [0.0, 0.0]]), 2, "c2")
    return PartialWave(
        ModeIndex(integer(rec["l"], "l"), integer(rec["m"], "m")),
        c1,
        c2,
        (RadialKind(kinds[0]), RadialKind(kinds[1])),
    )


def write_waves_json(waves, fp) -> None:
    doc = {"waves": [_wave_dict(w) for w in waves]}
    with _opened(fp, "w") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")


def read_waves_json(fp) -> list:
    with _opened(fp, "r") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or "waves" not in doc:
        raise ValueError("waves JSON must be an object with a 'waves' list")
    return [_wave_from_dict(rec) for rec in doc["waves"]]


def write_profile_json(profile: RadialProfile, fp) -> None:
    with _opened(fp, "w") as handle:
        json.dump(profile.to_dict(), handle, indent=2)
        handle.write("\n")


def read_profile_json(fp) -> RadialProfile:
    with _opened(fp, "r") as handle:
        doc = json.load(handle)
    return RadialProfile.from_dict(doc)
