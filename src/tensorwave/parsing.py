"""The one parsing layer for JSON configs and JSON artifacts.

Every number, integer, [re, im] pair and keyed object read from a config
or artifact goes through these functions, so non-finite and non-integral
values are rejected alike everywhere, with a ValueError naming the key.
`_fmt` and `_pair` are the matching encoders for CSV cells and JSON pairs.
"""

from __future__ import annotations

import math


def _fmt(x: float) -> str:
    return "%.17g" % x


def _pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


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


def complex_pair(v, key: str) -> complex:
    """A complex value from a [re, im] pair of finite numbers."""
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise ValueError(f"{key} must be a [re, im] pair, got {v!r}")
    return complex(real(v[0], key), real(v[1], key))
