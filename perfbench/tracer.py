"""Per-layer spans for curveseq, recorded from outside the package.

The tracer wraps every public function and every public method (plus the
arithmetic operators) of the eleven curveseq modules, and rebinds each wrapper
in every curveseq module namespace that holds the original: the modules import
with ``from .x import f``, so patching only the defining module would miss
most calls.  Each call becomes a span (id, parent id, name, start, end) kept in
memory; self time is a span's duration minus the durations of its direct
children.  ``series`` and ``recurrence`` are split by the call's modulus
argument into an exact-rational half (``.q``) and a modular half
(``.mod``/``.modp``).  The layer counters are computed from call arguments and
results only.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from fractions import Fraction

MODULES = (
    "exactnum", "series", "polyring", "linalg", "recurrence", "curve",
    "cartier", "descent", "modpspace", "frobenius", "cli",
)
LAYERS = (
    "exactnum", "series.q", "series.mod", "polyring", "linalg", "recurrence.q",
    "recurrence.modp", "curve", "cartier", "descent", "modpspace", "frobenius", "cli",
)
COUNTERS = (
    "series.q.coeffs", "series.mod.coeffs", "recurrence.q.terms", "recurrence.modp.terms",
    "cartier.primes", "cartier.pow_coeffs", "modpspace.vectors",
    "modpspace.array_bytes_computed", "frobenius.expansion_terms",
)
#: leaf helpers left unwrapped: each is a few arithmetic operations called
#: hundreds of thousands of times per pass (poly_eval ~475k times in one modp
#: pass), so a span per call would cost more than the call and swamp the
#: caller's self time, which is where their time is counted instead
UNWRAPPED = {"recurrence.poly_eval", "recurrence.zero_policy"}
OPERATORS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
    "__rtruediv__", "__floordiv__", "__mod__", "__pow__", "__neg__", "__call__",
}


def _param_index(fn, names):
    """Position and default of the first parameter of ``fn`` named in ``names``."""
    params = list(inspect.signature(fn).parameters.values())
    for i, prm in enumerate(params):
        if prm.name in names:
            default = None if prm.default is inspect.Parameter.empty else prm.default
            return i, prm.name, default
    return None


def _argument(args, kwargs, where):
    if where is None:
        return None
    i, name, default = where
    if name in kwargs:
        return kwargs[name]
    return args[i] if i < len(args) else default


class Tracer:
    """Spans and per-layer totals for one traced run.

    ``install`` patches the package and ``uninstall`` restores it, so traced
    and untraced passes can alternate in one process.
    """

    def __init__(self):
        self.mods = {m: importlib.import_module(f"curveseq.{m}") for m in MODULES}
        series = self.mods["series"]
        self._series_types = (series.TruncatedSeries, series.LaurentSeries)
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._functions, self._methods = self._build_wrappers()
        # recurrence.q.redundant_ratio: terms computed over the distinct
        # indices needed, i.e. the longest request per initial data and pass
        self._longest: dict = defaultdict(int)
        self.distinct_terms = 0

    # -- patching ---------------------------------------------------------------

    def _build_wrappers(self):
        """Wrappers for the module functions, keyed by id(original) (each
        wrapper keeps its original alive), and for the class methods as
        (class, attribute, original, wrapper); a method
        aliased under two names (``__rmul__ = __mul__``) is patched under both."""
        functions, methods = {}, []
        for mod_name, mod in self.mods.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and f"{mod_name}.{name}" not in UNWRAPPED:
                    functions[id(obj)] = self._wrap(obj, mod_name, name)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for attr, raw in vars(obj).items():
                        if attr.startswith("_") and attr not in OPERATORS:
                            continue
                        if isinstance(raw, (staticmethod, classmethod)):
                            wrapped = type(raw)(self._wrap(raw.__func__, mod_name, f"{name}.{attr}"))
                        elif inspect.isfunction(raw):
                            wrapped = self._wrap(raw, mod_name, f"{name}.{attr}")
                        else:
                            continue
                        methods.append((obj, attr, raw, wrapped))
        return functions, methods

    def install(self):
        if self._patches:
            return
        for cls, attr, raw, wrapped in self._methods:
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)
        for ns in (importlib.import_module("curveseq"), *self.mods.values()):
            for name, obj in list(vars(ns).items()):
                wrapper = self._functions.get(id(obj))
                if wrapper is not None:
                    self._patches.append((ns, name, obj))
                    setattr(ns, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- spans --------------------------------------------------------------------

    def _open(self) -> tuple[int, int, list]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [span_id, 0.0]
        self._stack.append(frame)
        return span_id, parent, frame

    def _close(self, span_id, parent, frame, layer, name, start, end):
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        self.calls[layer] += 1
        self.self_s[layer] += duration - frame[1]
        self.spans.append((span_id, parent, f"{layer}:{name}", start, end))

    @contextmanager
    def span(self, layer: str, name: str):
        """A span opened by the benchmark itself, around one pass."""
        span_id, parent, frame = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(span_id, parent, frame, layer, name, start, time.perf_counter())

    def _wrap(self, fn, mod_name: str, name: str):
        layer_of = self._layer_rule(fn, mod_name)
        count = getattr(self, f"_count_{mod_name}_{name.replace('.', '_')}", None)
        if mod_name == "series":
            count = self._count_series
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            layer = layer_of(args, kwargs)
            span_id, parent, frame = tracer._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span_id, parent, frame, layer, name, start, time.perf_counter())
            if count is not None:
                count(layer, args, kwargs, result)
            return result

        return traced

    def _layer_rule(self, fn, mod_name: str):
        """The layer a call belongs to; series and recurrence split on modulus."""
        if mod_name == "series":
            where = _param_index(fn, ("modulus",))
            kinds = self._series_types

            def series_layer(args, kwargs):
                for a in args:
                    if isinstance(a, kinds):
                        return "series.q" if a.modulus is None else "series.mod"
                return "series.q" if _argument(args, kwargs, where) is None else "series.mod"

            return series_layer
        if mod_name == "recurrence":
            where = _param_index(fn, ("modulus", "p"))

            def recurrence_layer(args, kwargs):
                return "recurrence.q" if _argument(args, kwargs, where) is None else "recurrence.modp"

            return recurrence_layer
        return lambda args, kwargs: mod_name

    # -- counters (arguments and results only) ---------------------------------------

    def _count_series(self, layer, args, kwargs, result):
        if isinstance(result, self._series_types[0]):
            self.counts[f"{layer}.coeffs"] += result.precision
        elif isinstance(result, self._series_types[1]):
            self.counts[f"{layer}.coeffs"] += result.series.precision

    def _count_recurrence_extend_rational(self, layer, args, kwargs, result):
        self.counts["recurrence.q.terms"] += len(result)
        spec = args[0] if args else kwargs["spec"]
        init = args[1] if len(args) > 1 else kwargs["init"]
        values = getattr(init, "values", init)
        key = (id(spec), tuple(Fraction(v) for v in values))
        self._longest[key] = max(self._longest[key], len(result))

    def _count_recurrence_extend_modp(self, layer, args, kwargs, result):
        self.counts["recurrence.modp.terms"] += len(result.values)

    def _count_recurrence_extend_modp_exhaustive(self, layer, args, kwargs, result):
        if result is not None:
            self.counts["recurrence.modp.terms"] += len(result.values)

    def _count_cartier_alphabeta_quartic(self, layer, args, kwargs, result):
        self.counts["cartier.primes"] += 1

    _count_cartier_alphabeta_weierstrass = _count_cartier_alphabeta_quartic

    def _count_cartier_poly_pow_mod(self, layer, args, kwargs, result):
        self.counts["cartier.pow_coeffs"] += len(result)

    def _count_modpspace_vp_bruteforce_mask(self, layer, args, kwargs, result):
        self.counts["modpspace.vectors"] += len(result)

    def _count_modpspace_vp_bruteforce_literal(self, layer, args, kwargs, result):
        p = args[0] if args else kwargs["p"]
        self.counts["modpspace.vectors"] += p**4

    def _count_modpspace_union_check(self, layer, args, kwargs, result):
        self.counts["modpspace.vectors"] += result.checked

    def _count_modpspace_extension_constraints(self, layer, args, kwargs, result):
        p = args[0] if args else kwargs["p"]
        blocks = args[1] if len(args) > 1 else kwargs["blocks"]
        # the full history the oracle keeps: blocks*p+2 int64 arrays of p^4
        self.counts["modpspace.array_bytes_computed"] += (blocks * p + 2) * p**4 * 8

    def _count_frobenius_origin_expansion(self, layer, args, kwargs, result):
        self.counts["frobenius.expansion_terms"] += args[2] if len(args) > 2 else kwargs["n_terms"]

    def end_pass(self):
        """Close the bookkeeping of one pass (distinct terms are per pass)."""
        self.distinct_terms += sum(self._longest.values())
        self._longest.clear()

    # -- results ---------------------------------------------------------------------------

    def layer_totals(self) -> dict[str, float]:
        """calls/self_s of every layer and every counter, summed over the run."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        out["bench.self_s"] = self.self_s["bench"]
        for name in COUNTERS:
            out[name] = self.counts[name]
        terms = self.counts["recurrence.q.terms"]
        out["recurrence.q.redundant_ratio"] = terms / self.distinct_terms if self.distinct_terms else 0.0
        return out

    def write_spans(self, path):
        """All spans as JSON lines [id, parent, "layer:function", start, end]."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
