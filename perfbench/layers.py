"""Outside-in layer tracing for the busemann-lab benchmark.

A Tracer replaces public functions of the package's modules with timing
wrappers, from outside the program: every module-level alias of a wrapped
function is patched (``busemann.update_raw`` is the same object as
``seqmaps.update_raw``), so code that imported a name with ``from . import``
is traced too.  Each call adds to its layer's counters and to its self
time, which is the call's duration minus the time spent in wrapped calls
below it.  Calls near the top of the stack are also kept as spans
(name, start, end, parent); deeper calls, which can number in the
hundreds of thousands, are only aggregated.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Count function: (args, kwargs, result) -> {counter: amount}.
Counter = Callable[[tuple, dict, object], dict]

# Spans are kept for calls at most this deep: the step and the wrapped calls
# directly below it.
SPAN_DEPTH = 2


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _result_size(key: str) -> Counter:
    return lambda args, kwargs, result: {key: int(np.size(result))}


def _cells(args, kwargs, result) -> dict:
    (u1, u2), (v1, v2) = _arg(args, kwargs, 1, "u"), _arg(args, kwargs, 2, "v")
    return {"cells": (v1 - u1 + 1) * (v2 - u2 + 1)}


def _evolved(args, kwargs, result) -> dict:
    i_vals = result[0]
    return {"grids": 1, "sites": int(i_vals[1:].size)}


@dataclass(frozen=True)
class Layer:
    """A named group of wrapped functions and the counters it reports.

    targets maps "module:attribute" (attribute may be "Class.method") to
    the function computing the call's counters, or None when only the
    call itself counts.  Every layer also counts calls; ``counters`` lists
    which counters the layer reports, besides its self time.
    """

    name: str
    counters: tuple[str, ...]
    targets: dict[str, Counter | None]


LAYERS = (
    Layer("special_functions.keys", ("calls", "elements"), {
        "special_functions:keys_for_sites": _result_size("elements"),
        "special_functions:_event_keys": _result_size("elements"),
    }),
    Layer("special_functions.gamma", ("calls", "elements"), {
        "special_functions:gamma_from_keys": _result_size("elements"),
    }),
    Layer("special_functions.poisson", ("calls", "draws"), {
        "special_functions:sample_poisson": _result_size("draws"),
    }),
    Layer("special_functions.scalar", ("calls",), {
        "special_functions:digamma": None,
        "special_functions:trigamma": None,
        "special_functions:reg_inc_gamma": None,
        "special_functions:reg_inc_beta": None,
    }),
    Layer("stats.ks", ("calls", "samples"), {
        "stats:ks_one_sample": lambda a, k, r: {"samples": len(_arg(a, k, 0, "samples"))},
    }),
    Layer("lattice.weights", ("calls", "sites"), {
        "lattice:WeightField.log_weight": _result_size("sites"),
        "lattice:WeightField.log_weight_block": _result_size("sites"),
        "lattice:WeightField.log_weight_row": _result_size("sites"),
    }),
    Layer("lattice.log_partition", ("calls", "cells"), {
        "lattice:log_partition": _cells,
    }),
    Layer("seqmaps.update_raw", ("calls", "elements"), {
        "seqmaps:update_raw": lambda a, k, r: {"elements": len(_arg(a, k, 0, "log_w"))},
    }),
    Layer("grsk", ("calls",), {
        "grsk:row_insert": None,
        "grsk:array_insert": None,
        "grsk:build_triangular": None,
    }),
    Layer("busemann", ("grids", "sites"), {
        "busemann:_evolve": _evolved,
        "busemann:stationary_cocycle": None,
        "busemann:parallel_chain": None,
        "busemann:busemann_ratio_estimate": None,
        "busemann:eternal_from_cocycle": None,
    }),
    Layer("igamma_process.points", ("calls", "accepted"), {
        "igamma_process:_accepted_points": lambda a, k, r: {"accepted": len(r[0])},
    }),
    Layer("igamma_process.quadrature", ("calls",), {
        "igamma_process:_gauss_legendre": None,
    }),
    Layer("cif", ("replicas",), {
        "cif:_ratio_samples": lambda a, k, r: {"replicas": int(_arg(a, k, 2, "replicas"))},
    }),
)


@dataclass
class LayerStats:
    counts: dict[str, int] = field(default_factory=dict)
    total_s: float = 0.0
    self_s: float = 0.0

    def add(self, counts: dict) -> None:
        for key, n in counts.items():
            self.counts[key] = self.counts.get(key, 0) + n


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Wraps the layers' functions while installed; use as a context manager.

    ``step(name, layer)`` opens the root frame of one benchmark step, so the
    time of the step not spent in any wrapped layer becomes ``layer``'s self
    time.
    """

    def __init__(self, layers=LAYERS, package: str = "busemann_lab",
                 clock: Callable[[], float] = time.perf_counter):
        self.layers = tuple(layers)
        self.package = package
        self.clock = clock
        self.stats: dict[str, LayerStats] = {}
        self.spans: list[Span] = []
        # Open frames: [child time, span index or None].
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def _modules(self):
        prefix = self.package + "."
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(prefix))]

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for layer in self.layers:
            self.stats.setdefault(layer.name, LayerStats())
            for target, count in layer.targets.items():
                mod_name, _, attr = target.partition(":")
                owner = importlib.import_module(f"{self.package}.{mod_name}")
                *classes, leaf = attr.split(".")
                for cls in classes:
                    owner = getattr(owner, cls)
                original = getattr(owner, leaf)
                wrapper = self._wrap(layer.name, original, count)
                if classes:
                    self._patch(owner, leaf, wrapper)
                    continue
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, wrapper)
        return self

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> list:
        span = None
        if len(self._stack) < SPAN_DEPTH:
            parent = self._stack[-1][1] if self._stack else None
            span = len(self.spans)
            self.spans.append(Span(name, 0.0, 0.0, parent))
        frame = [0.0, span]
        self._stack.append(frame)
        return frame

    def _exit(self, layer: str, frame: list, t0: float, t1: float,
              counts: dict | None) -> None:
        self._stack.pop()
        dt = t1 - t0
        if self._stack:
            self._stack[-1][0] += dt
        if frame[1] is not None:
            span = self.spans[frame[1]]
            span.start, span.end = t0, t1
        stats = self.stats.setdefault(layer, LayerStats())
        stats.total_s += dt
        stats.self_s += dt - frame[0]
        stats.add({"calls": 1})
        if counts:
            stats.add(counts)

    def _wrap(self, layer: str, fn, count: Counter | None):
        name = f"{fn.__module__}.{fn.__qualname__}"
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(layer, frame, t0, clock(), None)
                raise
            self._exit(layer, frame, t0, clock(),
                       count(args, kwargs, result) if count else None)
            return result

        return traced

    @contextlib.contextmanager
    def step(self, name: str, layer: str):
        """Time one benchmark step as a root frame."""
        frame, t0 = self._enter(name), self.clock()
        try:
            yield
        finally:
            self._exit(layer, frame, t0, self.clock(), None)

    # -- results -----------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Every layer counter, keyed "<layer>.<counter>"; must repeat exactly."""
        return {f"{layer}.{key}": n
                for layer, st in sorted(self.stats.items())
                for key, n in sorted(st.counts.items())}

