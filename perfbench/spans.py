"""Span recorder for the benchmark's traced run.

The tracer wraps public functions of jacsyz from outside the package: each
call made while a job is open records a span (name, start, end, parent span,
job id, matrix cells).  Spans stay in memory; ``write`` saves them when the
run ends and ``layer_stats`` turns them into per-layer metrics.

Name guard: ``install`` fails if a listed function or one of its listed
aliases is missing or not bound to that function, and it rebinds every
module-level alias of a wrapped function in every loaded jacsyz module (and
in the benchmark's own), so a rename cannot quietly report zero for a layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np


class NameGuardError(RuntimeError):
    """A layer to trace is missing, or an alias escaped the rebinding."""


def _cells_arg0(args, result):
    rows, cols = args[0].shape
    return rows * cols


def _cells_self(args, result):
    return args[0].nrows * args[0].ncols


def _cells_result(args, result):
    if isinstance(result, np.ndarray):
        return result.shape[0] * result.shape[1]
    return len(result) * len(result[0]) if result else 0


@dataclass(frozen=True)
class Layer:
    module: str          # jacsyz submodule that defines the function
    attr: str            # function, or Class.method
    aliases: tuple = ()  # submodules the program also calls it through
    cells: object = None  # (args, result) -> rows * cols of its matrix

    @property
    def name(self):
        return f"{self.module}.{self.attr}"


LAYERS = (
    Layer("linalg", "rank_mod_np", ("tjurina",), _cells_arg0),
    Layer("linalg", "nullspace_mod_np", ("syzygy",), _cells_arg0),
    Layer("linalg", "ExactMatrix._rref", (), _cells_self),
    Layer("linalg", "ExactMatrix.det", (), _cells_self),
    Layer("syzygy", "graded_multiplication_matrix", ("tjurina",),
          _cells_result),
    Layer("syzygy", "mdr", ("tjurina", "arrangements")),
    Layer("syzygy", "ar_dimension"),
    Layer("syzygy", "ar_slice", ("tjurina",)),
    Layer("syzygy", "verify_syzygy", ("arrangements",)),
    Layer("tjurina", "milnor_hilbert"),
    Layer("tjurina", "classify", ("arrangements",)),
    Layer("pencils", "macaulay_resultant"),
    Layer("pencils", "discriminant"),
    Layer("uni", "uni_squarefree", ("pencils",)),
    Layer("uni", "uni_interpolate", ("pencils",)),
    Layer("backend", "Backend.vote"),
    Layer("arrangements", "lattice"),
    Layer("arrangements", "cone_construction"),
    Layer("arrangements", "trichotomy"),
)

# span fields, in the order the recorder stores them
NAME, START, END, PARENT, JOB, CELLS, FAILED = range(7)


class Tracer:
    def __init__(self, layers=LAYERS, extra_modules=()):
        self.layers = layers
        self.extra_modules = tuple(extra_modules)
        self.spans = []
        self.job = None
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------
    def _wrap(self, name, fn, cells):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.job,
                    0, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if cells is not None:
                span[CELLS] = cells(args, result)
            return result
        return traced

    @contextmanager
    def job_span(self, job_id):
        """Root span of one job; layer calls inside it are recorded."""
        span = ["job", 0.0, 0.0, None, job_id, 0, False]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self.job = job_id
        span[START] = perf_counter()
        try:
            yield
        except BaseException:
            span[FAILED] = True
            raise
        finally:
            span[END] = perf_counter()
            self.job = None
            self._stack.pop()

    # -- installing --------------------------------------------------------
    def install(self):
        wrappers = {}  # id(original) -> (original, wrapper)
        methods = []
        for layer in self.layers:
            owner = importlib.import_module(f"jacsyz.{layer.module}")
            *path, attr = layer.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = vars(owner).get(attr) if owner is not None else None
            if not callable(fn):
                raise NameGuardError(f"{layer.name} not found")
            for alias in layer.aliases:
                mod = importlib.import_module(f"jacsyz.{alias}")
                if getattr(mod, attr, None) is not fn:
                    raise NameGuardError(
                        f"jacsyz.{alias}.{attr} is not {layer.name}")
            wrapper = self._wrap(layer.name, fn, layer.cells)
            wrappers[id(fn)] = (fn, wrapper)
            if path:
                methods.append((owner, attr, fn, wrapper))
        for owner, attr, fn, wrapper in methods:
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, fn))
        # rebind every module-level name bound to an original, so that no
        # alias keeps calling it untraced
        for mod in self._modules():
            for key, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, key, hit[1])
                    self._patches.append((mod, key, val))
        return self

    def _modules(self):
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "jacsyz" or n.startswith("jacsyz.")]
        return mods + list(self.extra_modules)

    def uninstall(self):
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    # -- reporting ---------------------------------------------------------
    def layer_stats(self):
        """Per-layer calls, self seconds, cells, max cells, failed calls,
        plus the job total and the share of job time the layers cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] is not None:
                child[s[PARENT]] += s[END] - s[START]
        stats = {layer.name: {"calls": 0, "self_s": 0.0, "cells": 0,
                              "max_cells": 0, "failed": 0}
                 for layer in self.layers}
        job_s = job_self_s = 0.0
        for s, c in zip(self.spans, child):
            dur = s[END] - s[START]
            if s[NAME] == "job":
                job_s += dur
                job_self_s += dur - c
                continue
            st = stats[s[NAME]]
            st["calls"] += 1
            st["self_s"] += dur - c
            st["cells"] += s[CELLS]
            st["max_cells"] = max(st["max_cells"], s[CELLS])
            st["failed"] += s[FAILED]
        coverage = (job_s - job_self_s) / job_s if job_s else 0.0
        return stats, job_s, coverage

    def write(self, path):
        """Save the spans as JSON lines."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START],
                    "end": s[END], "parent": s[PARENT], "job": s[JOB],
                    "cells": s[CELLS], "failed": s[FAILED]}) + "\n")


def span_cost(calls=20000, batches=7):
    """Seconds one recorded span adds to a call: a no-op wrapped the way
    ``Tracer.install`` wraps a layer, timed inside an open job against the
    bare no-op; the median over ``batches``."""
    probe = Tracer(layers=())
    probe.job = -1

    def noop():
        return None

    traced = probe._wrap("noop", noop, None)
    costs = []
    for _ in range(batches):
        t0 = perf_counter()
        for _ in range(calls):
            traced()
        t1 = perf_counter()
        for _ in range(calls):
            noop()
        t2 = perf_counter()
        probe.spans.clear()
        costs.append(((t1 - t0) - (t2 - t1)) / calls)
    return statistics.median(costs)
