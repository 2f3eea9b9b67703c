"""Span tracing of lhca's public functions, from outside the library.

``Tracer.install`` wraps each function in ``TARGETS`` and rebinds every
name under which an lhca module holds it, so calls between lhca modules
are traced too.  A span is (name, start, end, parent) plus the counts its
hook recorded; spans stay in memory until ``write``.  Self time is a
span's duration minus the durations of its direct children: one thread
runs everything, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np
from lhca.hypercube import block_structure

_NAME, _START, _END, _PARENT, _COUNTS = range(5)


def _rows(args, kwargs, result):
    rows, width = np.shape(kwargs["inputs"] if "inputs" in kwargs else args[1])
    return {"rows": rows, "cells": rows * width}


def _cube_shape(rule, b=None, k=None):
    b, k = block_structure(rule, b, k)
    return rule.field.q ** b, k


def _is_latin(args, kwargs, result):
    # lines in scan order up to the first failing one; every caller here
    # scans all axes
    rule, b, k = (*args, None, None)[:3]
    N, k = _cube_shape(rule, kwargs.get("b", b), kwargs.get("k", k))
    lines = k * N ** (k - 1)
    if not result:
        rank = 0
        for c in result.fixed:
            rank = rank * N + c - 1
        lines = (result.axis - 1) * N ** (k - 1) + rank + 1
    return {"N": N, "needed_rows": lines * N}


def _check_random_lines(args, kwargs, result):
    return {"N": _cube_shape(args[0], kwargs.get("b"), kwargs.get("k"))[0]}


def _dump(args, kwargs, result):
    return {"entries": sum(len(layer) * len(layer[0])
                           for layer in result["layers"])}


def _cli_main(args, kwargs, result):
    # the benchmark hands main a fresh StringIO as stdout for every call
    return {"bytes_out": sys.stdout.tell()}


# (module, attribute, count hook); "field.GF" traces the constructor
TARGETS = (
    ("lhca.field", "GF", None),
    ("lhca.rules", "apply_ca", None),
    ("lhca.rules", "apply_ca_batch", _rows),
    ("lhca.hypercube", "is_latin", _is_latin),
    ("lhca.hypercube", "check_random_lines", _check_random_lines),
    ("lhca.hypercube", "dump", _dump),
    ("lhca.hypercube", "count_latin_rules", None),
    ("lhca.toeplitz", "det_of_window", None),
    ("lhca.toeplitz", "support_of_det", None),
    ("lhca.toeplitz", "window_dets", None),
    ("lhca.toeplitz", "solve_middle_block", None),
    ("lhca.debruijn", "build_graph", None),
    ("lhca.debruijn", "count_paths", None),
    ("lhca.debruijn", "enumerate_paths", None),
    ("lhca.debruijn", "rule_from_path", None),
    ("lhca.cli", "main", _cli_main),
)
GENERATORS = {"debruijn.enumerate_paths"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.enabled = False

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, counts: dict | None = None) -> None:
        self.spans[idx][_END] = time.perf_counter()
        self.spans[idx][_COUNTS] = counts
        self.stack.pop()

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx)
                raise
            self.close(idx, hook(args, kwargs, result) if hook else None)
            return result
        return traced

    def wrap_generator(self, name: str, fn):
        """One span per resumption, each counting the walk it yields."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not self.enabled:
                return gen
            return self._resume_traced(name, gen)
        return traced

    def _resume_traced(self, name, gen):
        while True:
            idx = self.open(name)
            try:
                item = next(gen)
            except StopIteration:
                self.close(idx, {"walks": 0})
                return
            except BaseException:
                self.close(idx)
                raise
            self.close(idx, {"walks": 1})
            yield item

    def install(self) -> None:
        for modname, attr, hook in TARGETS:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr)
            name = f"{modname.split('.')[-1]}.{attr}"
            if isinstance(orig, type):
                orig.__init__ = self.wrap(name, orig.__init__, hook)
                continue
            wrapped = (self.wrap_generator(name, orig) if name in GENERATORS
                       else self.wrap(name, orig, hook))
            for m in list(sys.modules.values()):
                if getattr(m, "__name__", "").split(".")[0] != "lhca":
                    continue
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)

    def write(self, path) -> None:
        names = sorted({s[_NAME] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "counts"],
                       "names": names,
                       "spans": [[ids[s[_NAME]], *s[_START:]]
                                 for s in self.spans]}, fh)


def totals(spans: list[list], lo: int, hi: int) -> dict:
    """Sums per span name over spans[lo:hi]: calls, inclusive and self
    time, every count, and the rows of direct apply_ca_batch children."""
    out: dict = defaultdict(lambda: defaultdict(float))
    child_time = defaultdict(float)
    child_rows = defaultdict(int)
    for s in spans[lo:hi]:
        if s[_PARENT] >= lo:
            child_time[s[_PARENT]] += s[_END] - s[_START]
            if s[_NAME] == "rules.apply_ca_batch" and s[_COUNTS]:
                child_rows[s[_PARENT]] += s[_COUNTS]["rows"]
    for idx in range(lo, hi):
        name, start, end, _, counts = spans[idx]
        t = out[name]
        t["calls"] += 1
        t["incl_s"] += end - start
        t["self_s"] += end - start - child_time[idx]
        t["child_rows"] += child_rows[idx]
        for key, value in (counts or {}).items():
            if key == "N":
                t["lines"] += child_rows[idx] / value
            else:
                t[key] += value
    return out


# metric key: (numerator total, denominator total)
RATES = {
    "cells_per_s": ("cells", "self_s"),
    "lines_per_s": ("lines", "incl_s"),
    "dets_per_s": ("calls", "incl_s"),
    "walks_per_s": ("walks", "self_s"),
    "useful_row_ratio": ("needed_rows", "child_rows"),
}
ALIASES = {"init_s": "incl_s"}


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(names, t: dict, op_time: float, overhead_s: float) -> dict:
    """Per-layer metrics named "<module>.<function>.<key>" from summed span
    totals, plus the share of op time spent in toeplitz and the tracing
    overhead."""
    toeplitz_self = sum(v["self_s"] for n, v in t.items()
                        if n.startswith("toeplitz."))
    out = {"toeplitz.self_share": _rate(toeplitz_self, op_time),
           "trace.overhead_s": overhead_s}
    for metric in names:
        if metric in out:
            continue
        span, key = metric.rsplit(".", 1)
        tot = t.get(span, {})
        if key in RATES:
            num, den = RATES[key]
            out[metric] = _rate(tot.get(num, 0.0), tot.get(den, 0.0))
        else:
            out[metric] = float(tot.get(ALIASES.get(key, key), 0.0))
    return {m: out[m] for m in names}
