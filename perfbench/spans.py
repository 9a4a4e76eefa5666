"""In-memory spans around latgreen's public functions, installed from outside.

Nothing in the package is edited.  Each wrapper replaces the attribute that
the calling code looks up: ``latgreen.ode`` imports ``nullspace_modular`` by
name, so both ``latgreen.ode.nullspace_modular`` and
``latgreen.linalg.nullspace_modular`` are wrapped; ``latgreen.analytic``
reaches mpmath through ``mp.quad`` and friends, so the attributes of the
``mpmath`` module are wrapped.

A span is (name, start, end, parent index).  A layer's self time is the
sum over its spans of the span's duration minus the durations of its direct
children; calls are strictly nested in one thread, so the children never
overlap.  Counts are kept beside the spans in a plain dict.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time


def _count_calls(key):
    def hook(tracer, args, kwargs, result):
        tracer.add(key, 1)
    return hook


def _count_terms(tracer, args, kwargs, result):
    tracer.add("lattices.terms", len(result))


def _count_powers(tracer, args, kwargs, result):
    # ct_sequence(kspec, n_max): one kernel multiplication per power
    tracer.add("constant_term.powers", len(result) - 1)


def _count_unknowns(kind):
    def hook(tracer, args, kwargs, result):
        tracer.add(f"linalg.{kind}_calls", 1)
        tracer.add("linalg.unknowns", args[1] if len(args) > 1 else kwargs["ncols"])
    return hook


def _count_bytes(tracer, args, kwargs, result):
    tracer.add("cli.bytes_written", os.path.getsize(args[0]))


_FRACTION, _MODULAR = _count_unknowns("fraction"), _count_unknowns("modular")
_MUL = _count_calls("series.mul_calls")

# (module, owner inside the module or None, attribute, span name, count
# hook or None).  The span name is the layer; several attributes can feed
# one layer.
WRAPS = [
    ("latgreen.lattices", None, "coeffs", "lattices.formula", _count_terms),
    ("latgreen.analytic", None, "coeffs", "lattices.formula", _count_terms),
    ("latgreen.cli", None, "coeffs", "lattices.formula", _count_terms),
    ("latgreen.lattices", None, "fcc4_table", "lattices.fcc4", None),
    ("latgreen.lattices", None, "triples4_table", "lattices.triples4", None),
    ("latgreen.lattices", None, "cosine_integer_table", "lattices.cosine", None),
    ("latgreen.cli", None, "cosine_integer_table", "lattices.cosine", None),
    ("latgreen.constant_term", None, "kernel", "constant_term.kernel", None),
    ("latgreen.cli", None, "kernel", "constant_term.kernel", None),
    ("latgreen.constant_term", None, "ct_series", "constant_term.ct", None),
    ("latgreen.constant_term", None, "ct_sequence", "constant_term.ct", _count_powers),
    ("latgreen.cli", None, "ct_series", "constant_term.ct", None),
    ("latgreen.linalg", None, "nullspace_fraction", "linalg.fraction", _FRACTION),
    ("latgreen.ode", None, "nullspace_fraction", "linalg.fraction", _FRACTION),
    ("latgreen.linalg", None, "nullspace_modular", "linalg.modular", _MODULAR),
    ("latgreen.ode", None, "nullspace_modular", "linalg.modular", _MODULAR),
    ("latgreen.ode", None, "fit_minimal_degree", "ode.fit", None),
    ("latgreen.ode", None, "fit_ode", "ode.fit", _count_calls("ode.fit_calls")),
    ("latgreen.ode", "ThetaOperator", "annihilates", "ode.annihilates", None),
    ("latgreen.ode", None, "frobenius", "ode.frobenius", None),
    ("latgreen.ode", None, "yukawa", "ode.yukawa", None),
    ("latgreen.ode", None, "symmetric_square_check", "ode.symsq", None),
    ("latgreen.ode", None, "wronskian_fifth_order", "ode.fifth_order", None),
    ("latgreen.series", "PowerSeries", "__mul__", "series.mul", _MUL),
    ("latgreen.series", "PowerSeries", "__rmul__", "series.mul", _MUL),
    ("latgreen.series", "PowerSeries", "div", "series.div", None),
    ("latgreen.series", "PowerSeries", "__truediv__", "series.div", None),
    ("latgreen.series", "PowerSeries", "exp", "series.exp", None),
    ("latgreen.series", "PowerSeries", "compose", "series.compose", None),
    ("latgreen.series", "PowerSeries", "reversion", "series.reversion", None),
    ("latgreen.analytic", None, "watson", "analytic.watson", None),
    ("latgreen.analytic", None, "joyce_closed_form", "analytic.closed_form", None),
    ("latgreen.analytic", None, "honeycomb_map_eval", "analytic.closed_form", None),
    ("latgreen.analytic", None, "rogers_3f2", "analytic.closed_form", None),
    ("latgreen.analytic", None, "fourd_sc_double_elliptic", "analytic.closed_form", None),
    ("latgreen.analytic", None, "lgf_series_eval", "analytic.series_eval", None),
    ("latgreen.analytic", None, "ramanujan_eval", "analytic.ramanujan", None),
    ("latgreen.analytic", None, "log_mahler_measure", "analytic.mahler", None),
    ("latgreen.analytic", None, "quadrature", "analytic.quadrature",
     _count_calls("analytic.quadrature_calls")),
    ("mpmath", None, "gamma", "mpmath.gamma", None),
    ("mpmath", None, "quad", "mpmath.quad", _count_calls("mpmath.quad_calls")),
    ("mpmath", None, "besseli", "mpmath.bessel", _count_calls("mpmath.besseli_calls")),
    ("mpmath", None, "besselk", "mpmath.bessel", _count_calls("mpmath.besselk_calls")),
    ("latgreen.cli", None, "read_cache", "cli.read_cache", _count_calls("cli.cache_reads")),
    ("latgreen.cli", None, "write_cache", "cli.write_cache", _count_bytes),
]


class Tracer:
    """Spans and counts of one process, kept in memory until dumped."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent]
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def add(self, key: str, k: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    def begin(self, name: str, start: float | None = None) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter() if start is None else start, None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def wrapped(self, fn, name: str, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(i)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every attribute in WRAPS with a span-recording wrapper."""
        for modname, owner, attr, name, hook in WRAPS:
            target = importlib.import_module(modname)
            if owner is not None:
                target = getattr(target, owner)
            setattr(target, attr, self.wrapped(getattr(target, attr), name, hook))
        # primes drawn by nullspace_modular: count each one the generator yields
        linalg = importlib.import_module("latgreen.linalg")
        stream = linalg.prime_stream

        def counted_stream(*args, **kwargs):
            for p in stream(*args, **kwargs):
                self.add("linalg.primes", 1)
                yield p

        linalg.prime_stream = counted_stream

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "self_s": self.self_times()}, fh)


# The per-layer metrics, in the order BENCHMARK.json lists them.  Times are
# self times in seconds summed over one round; the rest are exact counts.
LAYER_METRICS = [
    "lattices.formula_s", "lattices.fcc4_s", "lattices.triples4_s", "lattices.terms",
    "lattices.cosine_s",
    "constant_term.kernel_s", "constant_term.ct_s", "constant_term.powers",
    "linalg.fraction_s", "linalg.fraction_calls", "linalg.modular_s",
    "linalg.modular_calls", "linalg.primes", "linalg.unknowns",
    "ode.fit_s", "ode.fit_calls", "ode.annihilates_s",
    "ode.frobenius_s", "ode.yukawa_s", "ode.symsq_s", "ode.fifth_order_s",
    "series.mul_s", "series.mul_calls", "series.div_s", "series.exp_s",
    "series.compose_s", "series.reversion_s",
    "analytic.watson_s", "analytic.closed_form_s", "analytic.series_eval_s",
    "analytic.ramanujan_s", "analytic.mahler_s", "mpmath.gamma_s",
    "analytic.quadrature_s", "analytic.quadrature_calls", "mpmath.quad_calls",
    "mpmath.quad_s", "mpmath.besseli_calls", "mpmath.besselk_calls", "mpmath.bessel_s",
    "cli.startup_s", "cli.read_cache_s", "cli.cache_hits",
    "cli.write_cache_s", "cli.cache_misses", "cli.bytes_written", "cli.commands",
]


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "bytes" if metric == "cli.bytes_written" else "count"


def layer_values(self_s: dict[str, float], counts: dict[str, int]) -> dict[str, float]:
    """One round's self times and counts, keyed by per-layer metric name."""
    out = {}
    for metric in LAYER_METRICS:
        if metric.endswith("_s"):
            out[metric] = self_s.get(metric[:-2], 0.0)
        else:
            out[metric] = counts.get(metric, 0)
    return out
