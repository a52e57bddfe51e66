"""In-memory span tracer installed around phaselab's public functions.

The program itself records nothing.  This module replaces every public
function of each phaselab module -- at every module that binds it, since
``from .x import f`` gives each importer its own reference -- with a wrapper
that records one span ``(name, parent, start, end)``.  Spans stay in memory
until the run ends; self time is a span's duration minus the durations of
its direct children (calls are nested and single-threaded, so children never
overlap).

Span names are ``<layer>.<function>``; ``twisted_convolution`` adds the
requested method (``weyl.twisted_convolution.fast`` / ``.direct``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("grids", "stft", "weyl", "norms", "weights", "lab", "exponents", "suites", "cli")

#: methods traced in addition to the public module-level functions
METHODS = {"weights": ("WeightSpec", "evaluate_grid")}


class CoverageError(RuntimeError):
    """The phaselab surface the tracer expects is missing."""


class Tracer:
    """Collects spans and the computed byte counters of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, float, float]] = []  # name id, parent, t0, t1
        self._local = threading.local()
        self.tensor_bytes = 0
        self.norm_bytes = 0
        self._norm_keys: set = set()
        self._norm_tensors: list = []  # keeps tensors alive so id() stays unique

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs):
        name_id = self._name_id(name)
        stack = self._stack()
        slot = len(self.spans)
        self.spans.append(None)
        stack.append(slot)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans[slot] = (name_id, stack[-1] if stack else -1, t0, t1)

    def count_norm(self, F, spec) -> None:
        """Computed bytes and (tensor, spec) identity of one ``mixed_norm`` call."""
        self.norm_bytes += F.values.nbytes
        self._norm_keys.add((id(F), repr(spec)))
        self._norm_tensors.append(F)

    def mark(self) -> int:
        """Start of a pass: returns the span index later passed to :meth:`summary`."""
        self._norm_keys.clear()
        self._norm_tensors.clear()
        self.tensor_bytes = 0
        self.norm_bytes = 0
        return len(self.spans)

    # -- analysis -------------------------------------------------------------

    def summary(self, start: int) -> dict:
        """Per-name call counts, self and inclusive seconds of spans since ``start``."""
        spans = self.spans[start:]
        child = [0.0] * len(spans)
        for name_id, parent, t0, t1 in spans:
            if parent >= start:
                child[parent - start] += t1 - t0
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        incl_s: defaultdict = defaultdict(float)
        for k, (name_id, parent, t0, t1) in enumerate(spans):
            name = self.names[name_id]
            calls[name] += 1
            self_s[name] += (t1 - t0) - child[k]
            incl_s[name] += t1 - t0
        n_norm = calls.get("norms.mixed_norm", 0)
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "incl_s": dict(incl_s),
            "stft.tensor_bytes": self.tensor_bytes,
            "norms.bytes_read": self.norm_bytes,
            "norms.distinct_ratio": len(self._norm_keys) / n_norm if n_norm else 0.0,
        }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "columns": ["name", "parent", "start_s", "end_s"]}, fh)


def _span_name(layer: str, fname: str):
    if fname == "twisted_convolution":
        def name_of(args, kwargs):
            method = args[2] if len(args) > 2 else kwargs.get("method", "fast")
            return f"weyl.twisted_convolution.{method}"
        return name_of
    fixed = f"{layer}.{fname}"
    return lambda args, kwargs: fixed


def _wrap(tracer: Tracer, layer: str, fname: str, fn):
    name_of = _span_name(layer, fname)
    if layer == "stft" and fname in ("stft", "symplectic_stft"):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = tracer.call(name_of(args, kwargs), fn, args, kwargs)
            tracer.tensor_bytes += out.values.nbytes
            return out
    elif (layer, fname) == ("norms", "mixed_norm"):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count_norm(args[0] if args else kwargs["F"],
                              args[1] if len(args) > 1 else kwargs["spec"])
            return tracer.call(name_of(args, kwargs), fn, args, kwargs)
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name_of(args, kwargs), fn, args, kwargs)
    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every public function of each layer at every binding site.

    Raises :class:`CoverageError` when a layer module or traced method is
    missing, so a renamed surface cannot silently under-report.
    """
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"phaselab.{layer}")
        except ImportError as exc:
            raise CoverageError(f"layer module phaselab.{layer} missing: {exc}") from exc
    originals = {}  # id(original) -> wrapper
    for layer, mod in modules.items():
        for fname, obj in list(vars(mod).items()):
            if fname.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            originals[id(obj)] = _wrap(tracer, layer, fname, obj)
    for mod in modules.values():
        for fname, obj in list(vars(mod).items()):
            wrapper = originals.get(id(obj))
            if wrapper is not None:
                setattr(mod, fname, wrapper)
    for layer, (cls_name, meth) in METHODS.items():
        cls = getattr(modules[layer], cls_name, None)
        fn = getattr(cls, meth, None) if cls is not None else None
        if not inspect.isfunction(fn):
            raise CoverageError(f"traced method {layer}.{cls_name}.{meth} missing")
        setattr(cls, meth, _wrap(tracer, layer, meth, fn))
