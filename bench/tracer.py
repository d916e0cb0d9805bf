"""Spans around tensorwave's layer functions, installed from outside the program.

Each layer function is replaced under every name a tensorwave module bound at
import (tensorwave.specfun.ylm, tensorwave.synthesis.ylm, tensorwave.ylm, ...),
so calls are timed whichever binding the caller goes through.  A layer that a
later refactor removed, or whose arguments no longer fit its counters, is
recorded as absent and reported as zero.

Spans (name, start, end, parent, op id) are kept in flat arrays and written
once, when the run ends.  Self time is a span's duration minus the durations
of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = (
    "cli.main",
    "fileio.write_field_csv",
    "fileio.read_field_csv",
    "synthesis.synthesize",
    "synthesis.project_sampled",
    "synthesis.recover_coefficients",
    "synthesis.match_sphere",
    "specfun.ylm",
    "specfun.spherical_radial",
    "maxwell_radial.homogeneous_eta_zeta",
    "maxwell_radial.longitudinal_components",
    "maxwell_radial.fundamental_matrix",
    "maxwell_radial.propagate",
    "maxwell_radial.system_matrix",
)


def _file_size(fp) -> int:
    if isinstance(fp, str):
        return os.path.getsize(fp)
    return fp.tell() if hasattr(fp, "tell") else 0


def _out_bytes(args, kwargs, result) -> dict:
    argv = list(args[0]) if args else list(kwargs.get("argv") or [])
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            return {"cli.out_bytes": os.path.getsize(path)}
    return {}


# counters taken at the span boundary: layer -> f(args, kwargs, result) -> {name: n}
COUNTERS = {
    "cli.main": _out_bytes,
    "synthesis.synthesize": lambda a, kw, res: {
        "synthesis.synthesize.wave_points": len(a[0]) * len(res)
    },
    "specfun.ylm": lambda a, kw, res: {"specfun.ylm.values": int(np.size(res))},
    "fileio.write_field_csv": lambda a, kw, res: {"fileio.csv_bytes": _file_size(a[1])},
    "fileio.read_field_csv": lambda a, kw, res: {"fileio.csv_bytes": _file_size(a[0])},
}


class Tracer:
    def __init__(self):
        self.layer_ids = {name: i for i, name in enumerate(LAYERS)}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.layer = array("q")
        self.op = array("q")
        self.stack = []
        self.op_id = -1
        self.op_label = []  # op id -> workload name
        self.counters = defaultdict(float)  # (workload, counter) -> total
        self.absent = []
        self.bindings = []

    def begin_op(self, label: str) -> None:
        self.op_id = len(self.op_label)
        self.op_label.append(label)

    def install(self) -> None:
        for layer in LAYERS:
            modname, attr = layer.rsplit(".", 1)
            try:
                fn = getattr(importlib.import_module("tensorwave." + modname), attr)
            except (ImportError, AttributeError):
                self.absent.append(layer)
                continue
            timed = self._wrap(self.layer_ids[layer], fn, COUNTERS.get(layer))
            for name, mod in list(sys.modules.items()):
                if name != "tensorwave" and not name.startswith("tensorwave."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, timed)
                        self.bindings.append(f"{name}.{key}")

    def _wrap(self, layer_id: int, fn, count):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            i = len(self.start)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.layer.append(layer_id)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self.stack.append(i)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self.stack.pop()
            if count is not None:
                self._count(layer_id, count, args, kwargs, result)
            return result

        return timed

    def _count(self, layer_id: int, count, args, kwargs, result) -> None:
        try:
            taken = count(args, kwargs, result)
        except (IndexError, TypeError, OSError):
            # a refactored signature must not turn into a failed op
            missing = f"{LAYERS[layer_id]} counters"
            if missing not in self.absent:
                self.absent.append(missing)
            return
        label = self.op_label[self.op_id]
        for key, n in taken.items():
            self.counters[label, key] += n

    def summary(self) -> dict:
        """{workload: {layer: {"self_s", "incl_s", "calls"}}} summed over ops."""
        start, end = np.frombuffer(self.start), np.frombuffer(self.end)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_t = dur - child
        labels = sorted(set(self.op_label))
        op_lab = np.array([labels.index(s) for s in self.op_label], dtype=np.int64)
        span_lab = op_lab[np.frombuffer(self.op, dtype=np.int64)]
        key = span_lab * len(LAYERS) + np.frombuffer(self.layer, dtype=np.int64)
        size = len(labels) * len(LAYERS)
        sums = {
            "self_s": np.bincount(key, self_t, size),
            "incl_s": np.bincount(key, dur, size),
            "calls": np.bincount(key, minlength=size),
        }
        out = {}
        for w, label in enumerate(labels):
            out[label] = {
                layer: {s: float(v[w * len(LAYERS) + j]) for s, v in sums.items()}
                for j, layer in enumerate(LAYERS)
            }
        return out

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            layers=np.array(LAYERS),
            op_label=np.array(self.op_label),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            layer=np.frombuffer(self.layer, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
        )
