"""Outside-in spans around the layer functions of ``brieskorn_wrt``.

The traced worker replaces every ``brieskorn_wrt.*`` module attribute bound
to a traced function with a wrapper that records a span.  The modules
import by name (``from .chi import enumerate_triples``), so patching only
the defining module would miss most calls.

Per-point helpers (``ell_condition``, ``canonicalize``, ``orbit``) are not
wrapped: they run millions of times per sweep and the trace would measure
itself.  ``theta_eval`` and ``phi_hat`` are left out because no workload
exercises them (the ``modular`` suite takes 0.08 s).
"""

from __future__ import annotations

import functools
import sys
import time

# module.function -> workload on which its span must appear.  The per-layer
# metric names in BENCHMARK.json are derived from this table and STATS.
LAYER_MAP = {
    "exactmath.dedekind_sum": "sweep",
    "chi.enumerate_triples": "sweep",
    "chi.admissible_triples": "sweep",
    "chi.mordell_count": "sweep",
    "chi.gamma_closed_form": "sweep",
    "chi.build_chi": "spectrum",
    "chi.l_function_value": "spectrum",
    "modularform.modular_data": "spectrum",
    "modularform.eichler_tail": "spectrum",
    # only the levels check calls it until tau_n is routed through it
    "modularform.eichler_limit": "levels",
    "wrt.rozansky_normalized": "levels",
    "wrt.tau_n": "levels",
    "wrt.tau_prefactor": "levels",
    "wrt.asymptotic_approx": "spectrum",
    "topology.casson": "sweep",
    "topology.phi_invariant": "spectrum",
    "topology.flat_connections": "spectrum",
    "topology.spectral_flow": "spectrum",
    "topology.torsion_sqrt": "spectrum",
    "ohtsuki.lambda_coefficients": "spectrum",
    "cli.execute": "levels",
    "cli.render": "levels",
}

# module.function -> (module, attribute) of the lru_cache behind it.
CACHES = {
    "chi.enumerate_triples": ("chi", "enumerate_triples"),
    "chi.build_chi": ("chi", "build_chi"),
    "modularform.modular_data": ("modularform", "_modular_data_cached"),
}

# Reported statistics beyond self_s, per function.
STATS = {
    "exactmath.dedekind_sum": ("calls",),
    "chi.enumerate_triples": ("calls", "cache_hit_ratio", "cache_lookups"),
    "chi.build_chi": ("calls", "cache_hit_ratio", "cache_lookups", "cache_size"),
    "modularform.modular_data": ("calls", "cache_hit_ratio", "cache_lookups"),
    "wrt.rozansky_normalized": ("calls",),
    "wrt.tau_n": ("term_count",),
}

UNITS = {
    "self_s": ("s", "lower"),
    "calls": ("count", "lower"),
    "cache_hit_ratio": ("ratio", "higher"),
    "cache_lookups": ("count", "lower"),
    "cache_size": ("count", "lower"),
    "term_count": ("count", "lower"),
}


def per_layer_metrics() -> dict:
    """Every per-layer metric name, in a fixed order, with (unit, better)."""
    metrics = {}
    for fn in LAYER_MAP:
        for stat in ("self_s", *STATS.get(fn, ())):
            metrics[f"{fn}.{stat}"] = UNITS[stat]
    metrics["trace_overhead_frac"] = ("ratio", "lower")
    return metrics


def package_module(short: str):
    return sys.modules[f"brieskorn_wrt.{short}"]


def cache_object(fn: str):
    """The lru_cache behind ``fn``, or None once a later change removes it.

    In a traced worker the attribute holds the span wrapper, so look one
    ``__wrapped__`` deeper too.
    """
    module, attr = CACHES[fn]
    obj = getattr(package_module(module), attr, None)
    for candidate in (obj, getattr(obj, "__wrapped__", None)):
        if callable(getattr(candidate, "cache_info", None)):
            return candidate
    return None


def cache_counts() -> dict:
    """(hits, misses, currsize) per cache, None where the cache is absent."""
    counts = {}
    for fn in CACHES:
        obj = cache_object(fn)
        info = obj.cache_info() if obj is not None else None
        counts[fn] = None if info is None else (info.hits, info.misses, info.currsize)
    return counts


class Recorder:
    """Spans kept in memory: [name, start, end, parent index, job id, phase]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.job = None
        self.phase = "job"
        self.term_count = 0

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job, self.phase])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if name == "wrt.tau_n" and self.phase == "job":
                self.term_count += getattr(result, "term_count", 0)
            return result

        return traced


def install(recorder: Recorder) -> list:
    """Wrap every binding of each LAYER_MAP function; return names not found."""
    wrappers = {}
    missing = []
    for name in LAYER_MAP:
        module, attr = name.split(".")
        fn = getattr(package_module(module), attr, None)
        if fn is None:
            missing.append(name)
            continue
        wrappers[id(fn)] = recorder.wrap(name, fn)
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "brieskorn_wrt" and not mod_name.startswith("brieskorn_wrt."):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)
    return missing


def self_times(spans: list) -> dict:
    """Per span name: (calls, self seconds) over job-phase spans.

    Self time is the span's duration minus the durations of its direct
    children; spans nest strictly because they are opened and closed on
    one stack.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _job, _phase in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals = {}
    for index, (name, start, end, _parent, _job, phase) in enumerate(spans):
        if phase != "job":
            continue
        calls, seconds = totals.get(name, (0, 0.0))
        totals[name] = (calls + 1, seconds + (end - start) - child_time[index])
    return totals
