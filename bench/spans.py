"""Per-layer tracing from outside the program.

`install(tracer)` wraps the public functions below and rebinds each wrapper in
every `decaylab` module namespace that holds the original, so calls made
inside the package (`pipelines` does `from .spectral import fourier_many`)
are caught as well as calls from the CLI.  Spans (name, start, end, parent,
counts) stay in memory; `layer_metrics` folds them into the per-layer metric
names listed in BENCHMARK.json.

A span's self time is its duration minus the time its child spans cover.
Counts are computed at the call boundary from arguments and return values,
after the span has ended; that bookkeeping is recorded as a child span of the
caller, so it lands in no layer's self time.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np
from scipy.signal import fftconvolve

NAME, START, END, PARENT, COUNTS = range(5)
BOOKKEEPING = "trace.bookkeeping"
PIPELINE_RUNS = ("run_base_case", "run_flattening", "run_induction_chain")


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def call(self, name, fn, args, kwargs, counter=None):
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()
        if counter is not None:
            t0 = time.perf_counter()
            span[COUNTS] = counter(args, kwargs, out)
            self.spans.append([BOOKKEEPING, t0, time.perf_counter(), parent, None])
        return out

    def wrap(self, name, fn, counter=None):
        """fn recorded as a span; name is a string or a function of (args, kwargs)."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = name(args, kwargs) if callable(name) else name
            return self.call(key, fn, args, kwargs, counter)
        return traced


# ---------------------------------------------------------------------------
# counters: pure functions of (args, kwargs, return value)
# ---------------------------------------------------------------------------

def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _occupied_at(m, level):
    """0/1 occupancy of m's cells refined to `level`, and its origin index."""
    f = 1 << (level - m.level)
    return np.repeat(m.masses > 0, f).astype(np.float64), m.origin_index * f


def _count_fourier(args, kwargs, out):
    mu = _arg(args, kwargs, 0, "mu")
    freqs = int(np.size(_arg(args, kwargs, 1, "xis")))
    cells = int(np.count_nonzero(mu.masses))
    return {"freqs": freqs, "cells": cells, "terms": freqs * cells}


def _convolve_op(args, kwargs):
    return "convolution.convolve." + _arg(args, kwargs, 2, "op")


def _count_convolve(args, kwargs, out):
    mu, nu = _arg(args, kwargs, 0, "mu"), _arg(args, kwargs, 1, "nu")
    op = _arg(args, kwargs, 2, "op")
    level = max(mu.level, nu.level)
    a, a0 = _occupied_at(mu, level)
    b, b0 = _occupied_at(nu, level)
    if op == "mul":
        return {"pairs": int(a.sum()) * int(b.sum())}
    if op == "sub":
        b, b0 = b[::-1], -(b0 + b.size)
    # exact support: a pair (i, j) puts mass on output cells i+j and i+j+1;
    # rounded FFT counts of 0/1 vectors are exact integers far below 2**52
    hit = np.rint(fftconvolve(a, b)) > 0
    support = np.zeros(hit.size + 1, dtype=bool)
    support[:-1] |= hit
    support[1:] |= hit
    occ = np.nonzero(out.masses)[0] + out.origin_index - (a0 + b0)
    inside = (occ >= 0) & (occ < support.size)
    useful = int(np.count_nonzero(support[occ[inside]]))
    return {"cells_out": int(occ.size), "useful_cells": useful}


def _count_regularize(args, kwargs, out):
    return {"cells_out": int(np.count_nonzero(out.masses))}


def _count_energy(args, kwargs, out):
    return {"cells": int(np.count_nonzero(_arg(args, kwargs, 0, "mu").masses))}


def _count_projection(args, kwargs, out):
    a1, a2, y = (_arg(args, kwargs, i, n) for i, n in enumerate(("A1", "A2", "Y")))
    return {"pairs": a1.size * a2.size * y.size}


# (module, function, span name, counter)
TARGETS = [
    ("decaylab.spectral", "fourier_many", "spectral.fourier_many", _count_fourier),
    ("decaylab.spectral", "product_fourier", "spectral.product_fourier", None),
    ("decaylab.spectral", "product_chain_fourier", "spectral.product_chain_fourier", None),
    ("decaylab.spectral", "l2_at_scale", "spectral.l2_at_scale", None),
    ("decaylab.convolution", "convolve", _convolve_op, _count_convolve),
    ("decaylab.measures", "regularize", "measures.regularize", _count_regularize),
    ("decaylab.measures", "uniform_measure", "measures.uniform_measure", None),
    ("decaylab.energy", "energy_spatial", "energy.energy_spatial", _count_energy),
    ("decaylab.energy", "frostman_constant", "energy.frostman_constant", None),
    ("decaylab.dyadic", "projection_scan", "dyadic.projection_scan", _count_projection),
    ("decaylab.constructions", "make_random_frostman",
     "constructions.make_random_frostman", None),
    ("decaylab.cli", "parse_config", "cli.parse_config", None),
] + [("decaylab.pipelines", fn, "pipelines." + fn, None) for fn in PIPELINE_RUNS]


def install(tracer: Tracer):
    """Wrap every target and rebind it wherever decaylab imported it by name."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "decaylab" or n.startswith("decaylab."))]
    for mod_name, fn_name, span_name, counter in TARGETS:
        original = getattr(sys.modules[mod_name], fn_name)
        wrapped = tracer.wrap(span_name, original, counter)
        for mod in modules:
            if getattr(mod, fn_name, None) is original:
                setattr(mod, fn_name, wrapped)


# ---------------------------------------------------------------------------
# spans -> per-layer metrics
# ---------------------------------------------------------------------------

def _aggregate(spans):
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    agg = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(spans):
        a = agg[s[NAME]]
        a["calls"] += 1
        a["incl_s"] += s[END] - s[START]
        a["s"] += s[END] - s[START] - child_time[i]
        for k, v in (s[COUNTS] or {}).items():
            a[k] += v
    return agg


def _under(spans, i, ancestor):
    while spans[i][PARENT] >= 0:
        i = spans[i][PARENT]
        if spans[i][NAME] == ancestor:
            return True
    return False


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(spans, write_s: float, artifact_bytes: int) -> dict:
    """Every per-layer metric, by its BENCHMARK.json name; 0 where a layer idles."""
    agg = _aggregate(spans)

    def get(name, key):
        return float(agg[name][key]) if name in agg else 0.0

    out = {}
    fm = "spectral.fourier_many"
    for key in ("calls", "s", "freqs", "cells", "terms"):
        out[f"{fm}.{key}"] = get(fm, key)
    out[f"{fm}.ns_per_term"] = _ratio(get(fm, "s"), get(fm, "terms"), 1e9)
    for name in ("spectral.product_fourier", "spectral.product_chain_fourier",
                 "spectral.l2_at_scale", "energy.frostman_constant"):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.s"] = get(name, "s")
    mul = "convolution.convolve.mul"
    for key in ("calls", "s", "pairs"):
        out[f"{mul}.{key}"] = get(mul, key)
    out[f"{mul}.ns_per_pair"] = _ratio(get(mul, "s"), get(mul, "pairs"), 1e9)
    for op in ("add", "sub"):
        name = f"convolution.convolve.{op}"
        for key in ("calls", "s", "cells_out"):
            out[f"{name}.{key}"] = get(name, key)
        out[f"{name}.useful_cell_ratio"] = _ratio(get(name, "useful_cells"),
                                                  get(name, "cells_out"))
    for key in ("calls", "s", "cells_out"):
        out[f"measures.regularize.{key}"] = get("measures.regularize", key)
    out["measures.uniform_measure.s"] = get("measures.uniform_measure", "s")
    for key in ("calls", "s", "cells"):
        out[f"energy.energy_spatial.{key}"] = get("energy.energy_spatial", key)
    ps = "dyadic.projection_scan"
    for key in ("calls", "s", "pairs"):
        out[f"{ps}.{key}"] = get(ps, key)
    out[f"{ps}.ns_per_pair"] = _ratio(get(ps, "s"), get(ps, "pairs"), 1e9)
    mrf = "constructions.make_random_frostman"
    out[f"{mrf}.calls"] = get(mrf, "calls")
    out[f"{mrf}.s"] = get(mrf, "s")
    draws = sum(1 for i, s in enumerate(spans)
                if s[NAME] == "energy.frostman_constant" and _under(spans, i, mrf))
    out[f"{mrf}.accept_ratio"] = _ratio(get(mrf, "calls"), draws)
    for fn in PIPELINE_RUNS:
        out[f"pipelines.{fn}.s"] = get(f"pipelines.{fn}", "s")
        out[f"pipelines.{fn}.incl_s"] = get(f"pipelines.{fn}", "incl_s")
    out["cli.main.s"] = get("cli.main", "s")
    out["cli.parse_config.s"] = get("cli.parse_config", "s")
    out["cli.write.s"] = float(write_s)
    out["cli.artifact_bytes"] = float(artifact_bytes)
    return out
